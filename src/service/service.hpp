// TuningService: the stellard daemon core (DESIGN.md §9).
//
// An in-process, multi-tenant tuning-session service: clients submit
// SubmitOptions, get a SessionId back immediately, and poll/wait for the
// TuningRunResult document. Four layers stack under the API:
//
//   1. Async sessions — submissions are admitted, queued, and executed on
//      a util::ThreadPool; per-cell SessionJournals make a killed service
//      resumable bit-identically (a cell whose journal is complete replays
//      the result document it carries).
//   2. Coalescing — sessions that agree on the cell key (workload
//      fingerprint, cluster scale, knob space; see session.hpp) share one
//      engine run; results fan out to every member session.
//   3. Admission + fairness — bounded outstanding-session counts (global
//      and per tenant) reject overload with a typed reason; queued cells
//      dispatch in deficit-round-robin order (fairness.hpp) so a greedy
//      tenant cannot starve the fleet.
//   4. Fleet memory — every session recalls from the FleetStore's
//      immutable snapshot and files its experience into a per-tenant
//      shard; commit() absorbs the shards and swaps the snapshot.
//
// Determinism law (the service analogue of the engine's kill/resume law):
// for a fixed submission schedule and starting store, the set of
// per-session result documents is byte-identical at any worker count, and
// a killed-and-resumed service produces the same documents as an
// uninterrupted one. The design choices that make this hold:
//   - a cell's run is a pure function of (cell spec, recall snapshot);
//     the snapshot changes only in commit(), which requires idleness;
//   - admission decisions depend on *outstanding* sessions (submitted
//     minus retired via wait), which the driver's schedule fully
//     determines — never on instantaneous queue depth or time;
//   - `coalesced` means "not the first submission of this key in this
//     instance", independent of completion timing or journal replay;
//   - result documents exclude wall-clock stamps and the replay flag.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/session_journal.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "service/fairness.hpp"
#include "service/fleet_store.hpp"
#include "service/session.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace stellar::service {

struct ServiceOptions {
  /// Fleet experience store path; "" = memory-only (no session journals —
  /// tests and benches that want a blank slate). Each cell's journal is
  /// `<storePath>.sessions/<cellFileStem(key)>.jsonl`.
  std::string storePath;
  exp::StoreOptions store;
  /// Record ids left out of every recall snapshot (the base store keeps
  /// them). runCampaign lists its own cells' keys, so a cell that re-runs
  /// never warm-starts from a sibling committed earlier; empty otherwise.
  std::set<std::string> recallExcludes;
  /// Worker threads == max concurrently running cells.
  std::size_t workers = 4;
  /// Global admission bound on outstanding (unretired) sessions.
  std::size_t maxOutstanding = 256;
  /// Fairness policy for tenants without an explicit entry.
  TenantPolicy defaultPolicy;
  std::map<std::string, TenantPolicy> tenants;
  /// Deficit-round-robin credit per scheduler visit.
  double quantum = 1.0;
  /// Deterministic interrupt: only the first N *fresh* (non-replayed)
  /// cells in submission order may run; later ones complete as
  /// Interrupted (0 = unlimited). The service analogue of the engine's
  /// maxMeasurements kill switch — submission order, not dispatch order,
  /// decides, so the interrupted set is identical at any worker count.
  std::size_t maxFreshSessions = 0;
  obs::CounterRegistry* counters = nullptr;  ///< nullable, non-owning
  obs::Tracer* tracer = nullptr;             ///< nullable, non-owning
  /// Injected monotonic nanosecond clock for session latency stamps
  /// (nullable: stamps stay 0). Injection keeps src/service free of wall
  /// clocks (stellar-lint DET-CLOCK); latency never enters result docs.
  std::uint64_t (*clock)() = nullptr;
};

/// Monotonic counters mirrored into the registry as service.* metrics.
struct ServiceStats {
  std::size_t submitted = 0;    ///< accepted sessions
  std::size_t coalesced = 0;    ///< accepted sessions that joined a live cell
  std::size_t completed = 0;    ///< sessions finished with a result doc
  std::size_t failed = 0;       ///< sessions finished with an error
  std::size_t rejected = 0;     ///< submissions refused by admission control
  std::size_t replayed = 0;     ///< sessions satisfied from a complete journal
  std::size_t interrupted = 0;  ///< sessions cut off by stop()/fresh cap
  std::size_t freshRuns = 0;    ///< engine runs actually dispatched
  std::size_t commits = 0;
  std::size_t peakOutstanding = 0;
};

/// In-process service client surface == this class's public methods; a
/// network front end would proxy exactly these calls.
class TuningService {
 public:
  explicit TuningService(ServiceOptions options);
  /// Stops (interrupting still-queued cells) and joins the workers.
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Admission-checked submission; returns a session id or a typed
  /// rejection. Never blocks on engine work.
  [[nodiscard]] SubmitResult submit(const SubmitOptions& request);

  /// Non-blocking state probe (Queued for unknown ids never issued).
  [[nodiscard]] SessionState poll(SessionId id) const;

  /// Blocks until the session is terminal, returns its result, and
  /// *retires* it — freeing the admission slot. Idempotent: a second wait
  /// on the same id returns the same result without double-retiring.
  /// (Opted out of the thread-safety analysis: the condition-variable wait
  /// needs mutex_.native(), which the analysis cannot see through.)
  [[nodiscard]] SessionResult wait(SessionId id) STELLAR_NO_THREAD_SAFETY_ANALYSIS;

  /// wait() for every unretired session, ascending id order.
  [[nodiscard]] std::vector<SessionResult> drainAll();

  /// Single-writer fleet-store commit (absorb the shards with the verdicts
  /// their records carry, swap snapshot). Requires idleness — throws std::logic_error if any cell is
  /// queued or running, because a mid-flight snapshot swap would break the
  /// determinism law. While any session of this instance is Interrupted
  /// the commit is deferred (logged; returns 0): the run that completes the
  /// batch commits it, so no resumed cell recalls a sibling from the
  /// interrupted run.
  std::size_t commit();

  /// Stop accepting work and interrupt still-queued cells; running cells
  /// finish. Idempotent.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }
  [[nodiscard]] FleetStore& fleetStore() noexcept { return fleet_; }

 private:
  /// One engine run shared by every coalesced member session.
  struct Cell {
    std::string key;
    SubmitOptions request;  ///< first submitter's request defines the run
    SessionState state = SessionState::Queued;
    bool replayed = false;
    std::string error;
    std::string docLine;  ///< canonical dumped result JSON ("" = none)
    std::vector<SessionId> members;
    /// Loaded once at submit; handed to the cell's run at dispatch.
    std::unique_ptr<core::SessionJournal> journal;
  };

  struct Session {
    std::string tenant;
    std::string key;
    bool coalesced = false;
    bool retired = false;
    std::uint64_t submitNanos = 0;
    std::uint64_t completeNanos = 0;
  };

  void pumpLocked() STELLAR_REQUIRES(mutex_);
  void finishCell(const std::string& key, SessionState state, std::string error,
                  std::string docLine) STELLAR_EXCLUDES(mutex_);
  void settleCellLocked(Cell& cell, SessionState state, std::string error,
                        std::string docLine) STELLAR_REQUIRES(mutex_);
  /// Stats/counter bookkeeping for one member reaching a terminal cell.
  void accountTerminalLocked(const Cell& cell) STELLAR_REQUIRES(mutex_);
  void runCell(std::string key, SubmitOptions request,
               std::unique_ptr<core::SessionJournal> journal);
  [[nodiscard]] SessionResult resultLocked(SessionId id) STELLAR_REQUIRES(mutex_);
  [[nodiscard]] TenantPolicy policyFor(const std::string& tenant) const;
  [[nodiscard]] std::uint64_t now() const;
  void noteCounter(const char* name, double delta = 1.0) const;
  void noteTenantCounter(const char* name, const std::string& tenant) const;

  ServiceOptions options_;
  FleetStore fleet_;
  mutable util::Mutex mutex_;
  std::condition_variable terminal_;  ///< waits on mutex_.native()
  std::map<std::string, Cell> cells_ STELLAR_GUARDED_BY(mutex_);
  std::map<SessionId, Session> sessions_ STELLAR_GUARDED_BY(mutex_);
  DrrScheduler scheduler_ STELLAR_GUARDED_BY(mutex_);
  SessionId nextId_ STELLAR_GUARDED_BY(mutex_) = 1;
  std::size_t outstanding_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::map<std::string, std::size_t> tenantOutstanding_ STELLAR_GUARDED_BY(mutex_);
  std::size_t runningCells_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::size_t freshCells_ STELLAR_GUARDED_BY(mutex_) = 0;  ///< fresh-cap ledger
  bool stopping_ STELLAR_GUARDED_BY(mutex_) = false;
  ServiceStats stats_ STELLAR_GUARDED_BY(mutex_);
  /// Declared last: destroyed first, so the pool drains and joins while
  /// every member the tasks touch is still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace stellar::service
