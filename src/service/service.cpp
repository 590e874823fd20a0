#include "service/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "faults/fault_plan.hpp"
#include "llm/model_profile.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "workloads/workloads.hpp"

namespace stellar::service {

namespace {

constexpr const char* kComponent = "service";

[[nodiscard]] bool terminalState(SessionState state) noexcept {
  return state == SessionState::Completed || state == SessionState::Failed ||
         state == SessionState::Interrupted;
}

}  // namespace

TuningService::TuningService(ServiceOptions options)
    : options_(std::move(options)),
      fleet_(options_.storePath, options_.store, options_.recallExcludes),
      scheduler_(options_.quantum) {
  {
    const util::MutexLock lock{mutex_};
    for (const auto& [tenant, policy] : options_.tenants) {
      scheduler_.setPolicy(tenant, policy);
    }
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.workers);
}

TuningService::~TuningService() {
  stop();
  // Destroying the pool runs every already-dispatched cell to completion
  // and joins; only then do the maps the tasks touch go away.
  pool_.reset();
}

SubmitResult TuningService::submit(const SubmitOptions& request) {
  const std::uint64_t stamp = now();
  const util::MutexLock lock{mutex_};
  const auto reject = [&](RejectReason reason, std::string detail) {
    ++stats_.rejected;
    noteCounter("service.sessions.rejected");
    SubmitResult out;
    out.rejection = Rejection{reason, std::move(detail)};
    return out;
  };
  if (stopping_) {
    return reject(RejectReason::Stopped, "service is stopping");
  }
  if (request.workload.empty()) {
    return reject(RejectReason::BadRequest, "empty workload name");
  }
  if (!validTenantId(request.tenant)) {
    return reject(RejectReason::BadRequest,
                  "invalid tenant id (want [a-z0-9_-]+): " + request.tenant);
  }
  // Admission bounds are counted over *outstanding* sessions — accepted and
  // not yet retired by wait() — so the verdict is a pure function of the
  // driver's submit/wait schedule, never of dispatch timing.
  if (outstanding_ >= options_.maxOutstanding) {
    return reject(RejectReason::QueueFull,
                  "outstanding sessions at global bound (" +
                      std::to_string(options_.maxOutstanding) + ")");
  }
  const TenantPolicy policy = policyFor(request.tenant);
  if (tenantOutstanding_[request.tenant] >= policy.maxOutstanding) {
    return reject(RejectReason::TenantQuota,
                  request.tenant + " at tenant bound (" +
                      std::to_string(policy.maxOutstanding) + ")");
  }

  const SessionId id = nextId_++;
  Session session;
  session.tenant = request.tenant;
  session.key = cellKey(request);
  session.submitNanos = stamp;
  ++outstanding_;
  ++tenantOutstanding_[request.tenant];
  stats_.peakOutstanding = std::max(stats_.peakOutstanding, outstanding_);
  if (options_.counters != nullptr) {
    options_.counters->gauge("service.queue.peak_depth")
        .setMax(static_cast<double>(outstanding_));
  }
  ++stats_.submitted;
  noteCounter("service.sessions.submitted");
  noteTenantCounter("service.sessions.submitted", request.tenant);

  const auto cellIt = cells_.find(session.key);
  if (cellIt != cells_.end()) {
    // Coalesce: every duplicate of a key already submitted to this
    // instance rides the first submission's run (live or already settled).
    session.coalesced = true;
    ++stats_.coalesced;
    noteCounter("service.sessions.coalesced");
    Cell& cell = cellIt->second;
    cell.members.push_back(id);
    if (terminalState(cell.state)) {
      session.completeNanos = stamp;
      accountTerminalLocked(cell);
    }
  } else {
    Cell cell;
    cell.key = session.key;
    cell.request = request;
    cell.members.push_back(id);
    std::unique_ptr<core::SessionJournal> journal;
    if (!options_.storePath.empty()) {
      journal = std::make_unique<core::SessionJournal>(
          options_.storePath + ".sessions/" + cellFileStem(session.key) + ".jsonl");
    }
    if (journal != nullptr && journal->complete()) {
      // Resume: a prior invocation finished this cell; replay the result
      // document its journal carries instead of re-running the engine.
      cell.replayed = true;
      cell.state = SessionState::Completed;
      cell.docLine = journal->result()->dump();
      session.completeNanos = stamp;
      accountTerminalLocked(cell);
    } else if (options_.maxFreshSessions != 0 &&
               freshCells_ >= options_.maxFreshSessions) {
      // Deterministic kill switch: the cap counts fresh cells in
      // *submission* order, so the interrupted set does not depend on how
      // fast workers drain the queue.
      cell.state = SessionState::Interrupted;
      cell.error = "fresh-session cap reached (" +
                   std::to_string(options_.maxFreshSessions) + ")";
      session.completeNanos = stamp;
      accountTerminalLocked(cell);
    } else {
      cell.journal = std::move(journal);
      ++freshCells_;
      scheduler_.setPolicy(request.tenant, policy);
      scheduler_.push(request.tenant, id);
    }
    cells_.emplace(session.key, std::move(cell));
  }
  sessions_.emplace(id, std::move(session));
  pumpLocked();
  terminal_.notify_all();
  SubmitResult out;
  out.id = id;
  return out;
}

void TuningService::accountTerminalLocked(const Cell& cell) {
  switch (cell.state) {
    case SessionState::Completed:
      ++stats_.completed;
      noteCounter("service.sessions.completed");
      break;
    case SessionState::Failed:
      ++stats_.failed;
      noteCounter("service.sessions.failed");
      break;
    case SessionState::Interrupted:
      ++stats_.interrupted;
      noteCounter("service.sessions.interrupted");
      break;
    case SessionState::Queued:
    case SessionState::Running:
      break;
  }
  if (cell.replayed) {
    ++stats_.replayed;
    noteCounter("service.sessions.replayed");
  }
}

void TuningService::pumpLocked() {
  if (stopping_) {
    return;
  }
  while (runningCells_ < pool_->threadCount()) {
    const std::optional<SessionId> primary = scheduler_.next();
    if (!primary.has_value()) {
      break;
    }
    const Session& session = sessions_.at(*primary);
    Cell& cell = cells_.at(session.key);
    cell.state = SessionState::Running;
    ++runningCells_;
    ++stats_.freshRuns;
    noteCounter("service.dispatch.fresh_runs");
    (void)pool_->submit([this, key = cell.key, request = cell.request,
                         journal = std::move(cell.journal)]() mutable {
      runCell(std::move(key), std::move(request), std::move(journal));
    });
  }
}

void TuningService::runCell(std::string key, SubmitOptions request,
                            std::unique_ptr<core::SessionJournal> journal) {
  auto span = obs::beginSpan(options_.tracer, "service", key.c_str());
  try {
    faults::FaultPlan plan;
    if (!request.faults.empty()) {
      plan = faults::parseFaultSpec(request.faults);
    }
    pfs::SimulatorOptions simOpts;
    simOpts.counters = options_.counters;
    simOpts.tracer = options_.tracer;
    if (!request.faults.empty()) {
      simOpts.faults = &plan;
    }
    core::StellarOptions engineOpts;
    engineOpts.seed = request.seed;
    engineOpts.agent.seed = request.seed;
    engineOpts.agent.model = llm::profileByName(request.model);
    // Pinned for the whole run: what this run recalls cannot change under
    // it, even across a commit (which the service never performs mid-run).
    const std::shared_ptr<const exp::ExperienceStore> snapshot =
        request.warmStart ? fleet_.snapshot() : nullptr;
    engineOpts.warmStart = snapshot.get();
    engineOpts.journal = journal.get();
    core::StellarEngine engine{pfs::PfsSimulator{std::move(simOpts)},
                               std::move(engineOpts)};
    const core::TuningRunResult run = engine.tune(workloads::byName(
        request.workload,
        {.ranks = request.ranks, .scale = request.scale, .seed = request.seed}));
    exp::ExperienceRecord record =
        exp::recordFromRun(run, request.seed, request.model, request.faults);
    record.id = key;  // cell identity: a re-run dedups, not duplicates
    fleet_.appendRecord(request.tenant, std::move(record));
    const util::Json doc = run.toJson();
    if (journal != nullptr) {
      // Complete only once the record is filed: a kill in between re-runs
      // the cell from its journaled measurements and files it again.
      journal->markComplete(doc);
    }
    finishCell(key, SessionState::Completed, "", doc.dump());
  } catch (const std::exception& e) {
    // Deterministic per-cell failures (unknown workload/model, bad fault
    // spec, a journal left by another session) settle the cell as Failed
    // and are not journaled, so a resumed service fails them the same way;
    // the task never leaks an exception into the pool.
    finishCell(key, SessionState::Failed, e.what(), "");
  }
}

void TuningService::finishCell(const std::string& key, SessionState state,
                               std::string error, std::string docLine) {
  {
    const util::MutexLock lock{mutex_};
    Cell& cell = cells_.at(key);
    settleCellLocked(cell, state, std::move(error), std::move(docLine));
    scheduler_.release(cell.request.tenant);
    --runningCells_;
    pumpLocked();
  }
  terminal_.notify_all();
}

void TuningService::settleCellLocked(Cell& cell, SessionState state,
                                     std::string error, std::string docLine) {
  cell.state = state;
  cell.error = std::move(error);
  cell.docLine = std::move(docLine);
  const std::uint64_t stamp = now();
  for (const SessionId member : cell.members) {
    Session& session = sessions_.at(member);
    session.completeNanos = stamp;
    accountTerminalLocked(cell);
  }
}

SessionState TuningService::poll(SessionId id) const {
  const util::MutexLock lock{mutex_};
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session id " + std::to_string(id));
  }
  return cells_.at(it->second.key).state;
}

SessionResult TuningService::wait(SessionId id) {
  std::unique_lock<std::mutex> lock{mutex_.native()};
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session id " + std::to_string(id));
  }
  terminal_.wait(lock, [&] {
    return terminalState(cells_.at(it->second.key).state);
  });
  SessionResult result = resultLocked(id);
  Session& session = it->second;
  if (!session.retired) {
    session.retired = true;
    --outstanding_;
    --tenantOutstanding_[session.tenant];
  }
  return result;
}

std::vector<SessionResult> TuningService::drainAll() {
  std::vector<SessionId> ids;
  {
    const util::MutexLock lock{mutex_};
    for (const auto& [id, session] : sessions_) {  // std::map: ascending ids
      if (!session.retired) {
        ids.push_back(id);
      }
    }
  }
  std::vector<SessionResult> out;
  out.reserve(ids.size());
  for (const SessionId id : ids) {
    out.push_back(wait(id));
  }
  return out;
}

SessionResult TuningService::resultLocked(SessionId id) {
  const Session& session = sessions_.at(id);
  const Cell& cell = cells_.at(session.key);
  SessionResult result;
  result.id = id;
  result.tenant = session.tenant;
  result.key = session.key;
  result.state = cell.state;
  result.coalesced = session.coalesced;
  result.replayed = cell.replayed;
  result.error = cell.error;
  if (!cell.docLine.empty()) {
    result.cellDoc = util::Json::parse(cell.docLine);
  }
  result.submitNanos = session.submitNanos;
  result.completeNanos = session.completeNanos;
  return result;
}

std::size_t TuningService::commit() {
  const util::MutexLock lock{mutex_};
  if (runningCells_ > 0 || scheduler_.queued() > 0) {
    throw std::logic_error(
        "commit requires an idle service (a mid-flight snapshot swap would "
        "break the determinism law)");
  }
  if (stats_.interrupted > 0) {
    // Absorbing the finished half of an interrupted batch would let its
    // resumed cells recall their siblings, so their documents would differ
    // from an uninterrupted run's.
    util::logLine(util::LogLevel::Warn, kComponent,
                  "commit deferred: " + std::to_string(stats_.interrupted) +
                      " interrupted session(s); the run that completes the "
                      "batch commits it");
    return 0;
  }
  ++stats_.commits;
  noteCounter("service.commits");
  // The fleet store has its own lock and never calls back into the
  // service, so holding mutex_ across the commit just makes the
  // idle-check + swap atomic against concurrent submits.
  return fleet_.commit();
}

void TuningService::stop() {
  {
    const util::MutexLock lock{mutex_};
    if (stopping_) {
      return;
    }
    stopping_ = true;
    for (const SessionId primary : scheduler_.drain()) {
      const Session& session = sessions_.at(primary);
      Cell& cell = cells_.at(session.key);
      settleCellLocked(cell, SessionState::Interrupted,
                       "service stopped before dispatch", "");
    }
  }
  terminal_.notify_all();
}

ServiceStats TuningService::stats() const {
  const util::MutexLock lock{mutex_};
  return stats_;
}

TenantPolicy TuningService::policyFor(const std::string& tenant) const {
  const auto it = options_.tenants.find(tenant);
  return it == options_.tenants.end() ? options_.defaultPolicy : it->second;
}

std::uint64_t TuningService::now() const {
  return options_.clock == nullptr ? 0 : options_.clock();
}

void TuningService::noteCounter(const char* name, double delta) const {
  if (options_.counters != nullptr) {
    options_.counters->counter(name).add(delta);
  }
}

void TuningService::noteTenantCounter(const char* name,
                                      const std::string& tenant) const {
  if (options_.counters != nullptr) {
    options_.counters->counter(name, {{"tenant", tenant}}).add(1.0);
  }
}

}  // namespace stellar::service
