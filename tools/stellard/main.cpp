// stellard — driver for the in-process tuning-session service core
// (src/service). There is deliberately NO network listener: the service
// "protocol" is the TuningService method surface, and this binary feeds it
// a batch of submissions, which keeps the daemon core deterministic and
// testable (DESIGN.md §9). A socket front end would parse requests into
// exactly the SubmitOptions documents accepted here.
//
//   stellard --store FILE [options] < requests.jsonl
//   stellard --store FILE --request '{"tenant":"alice","workload":"ior-easy"}'
//
// Input: one JSON object per line (stdin, or repeated --request flags):
//   {"tenant": "alice", "workload": "ior-easy", "seed": 1,
//    "model": "claude-3.7-sonnet", "faults": "", "scale": 0.05,
//    "ranks": 50, "warm_start": true}
// Missing fields take the SubmitOptions defaults shown above.
//
// Output: one JSON line per session (submission order) on stdout; a final
// summary document on stderr. Exit 0 when every session completed, 3 when
// any was rejected/failed/interrupted (partial service), 2 on usage errors.
//
// Re-running the same batch against the same --store resumes: completed
// cells replay from their session journals (`<store>.sessions/`)
// byte-identically, and `--commit` absorbs the per-tenant experience shards
// so the *next* batch warm-starts from fleet history.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "service/service.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace {

using namespace stellar;

struct DaemonOptions {
  std::string storePath;
  std::size_t workers = 4;
  std::size_t maxOutstanding = 256;
  std::size_t maxFresh = 0;
  double quantum = 1.0;
  bool commit = false;
  bool metrics = false;
  std::vector<std::string> requests;  ///< inline --request bodies
  /// --tenant-weight alice=2[:maxRunning[:maxOutstanding]] overrides.
  std::map<std::string, service::TenantPolicy> tenants;
};

[[noreturn]] void usage(int code = 2) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: stellard --store FILE [options] [< requests.jsonl]\n"
               "  --store FILE          fleet experience store (tenant shards and\n"
               "                        session journals live next to it; a rerun\n"
               "                        replays the cells its journals completed)\n"
               "  --workers N           worker threads / concurrent sessions (default 4)\n"
               "  --max-outstanding N   global admission bound (default 256)\n"
               "  --max-fresh N         interrupt after N fresh cells (resume testing)\n"
               "  --quantum Q           deficit-round-robin credit per visit\n"
               "  --tenant-weight T=W[:RUN[:OUT]]  per-tenant weight, running cap,\n"
               "                        outstanding bound (repeatable)\n"
               "  --request JSON        submit this request (repeatable; with no\n"
               "                        --request flags, requests are read from stdin)\n"
               "  --commit              absorb experience shards after the batch\n"
               "  --metrics             print the counter registry to stderr\n"
               "  --help, -h            print this help and exit 0\n");
  std::exit(code);
}

DaemonOptions parseArgs(const std::vector<std::string>& args) {
  DaemonOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    std::string inlineValue;
    bool hasInlineValue = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inlineValue = arg.substr(eq + 1);
        arg.erase(eq);
        hasInlineValue = true;
      }
    }
    const auto value = [&]() -> std::string {
      if (hasInlineValue) {
        return inlineValue;
      }
      if (i + 1 >= args.size()) {
        usage();
      }
      return args[++i];
    };
    if (arg == "--store") {
      opts.storePath = value();
    } else if (arg == "--workers") {
      opts.workers = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--max-outstanding") {
      opts.maxOutstanding = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--max-fresh") {
      opts.maxFresh = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--quantum") {
      opts.quantum = std::atof(value().c_str());
    } else if (arg == "--tenant-weight") {
      // T=W[:RUN[:OUT]]
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --tenant-weight (want T=W[:RUN[:OUT]]): %s\n",
                     spec.c_str());
        usage();
      }
      service::TenantPolicy policy;
      const std::vector<std::string> parts =
          stellar::util::split(spec.substr(eq + 1), ':');
      policy.weight = std::atof(parts[0].c_str());
      if (parts.size() > 1) {
        policy.maxRunning = std::strtoull(parts[1].c_str(), nullptr, 10);
      }
      if (parts.size() > 2) {
        policy.maxOutstanding = std::strtoull(parts[2].c_str(), nullptr, 10);
      }
      opts.tenants[spec.substr(0, eq)] = policy;
    } else if (arg == "--request") {
      opts.requests.push_back(value());
    } else if (arg == "--commit") {
      opts.commit = true;
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
    }
  }
  return opts;
}

std::uint64_t monotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  const DaemonOptions opts = parseArgs({argv + 1, argv + argc});
  std::vector<std::string> lines = opts.requests;
  if (lines.empty()) {
    std::string line;
    for (int c = std::getchar(); c != EOF; c = std::getchar()) {
      if (c == '\n') {
        lines.push_back(line);
        line.clear();
      } else {
        line.push_back(static_cast<char>(c));
      }
    }
    if (!line.empty()) {
      lines.push_back(line);
    }
  }

  obs::CounterRegistry registry;
  service::ServiceOptions serviceOpts;
  serviceOpts.storePath = opts.storePath;
  serviceOpts.workers = opts.workers;
  serviceOpts.maxOutstanding = opts.maxOutstanding;
  serviceOpts.maxFreshSessions = opts.maxFresh;
  serviceOpts.quantum = opts.quantum;
  serviceOpts.tenants = opts.tenants;
  serviceOpts.counters = &registry;
  serviceOpts.store.counters = &registry;
  serviceOpts.clock = &monotonicNanos;

  try {
    service::TuningService daemon{serviceOpts};
    std::vector<service::SessionId> accepted;
    std::size_t rejected = 0;
    std::size_t lineNo = 0;
    for (const std::string& raw : lines) {
      ++lineNo;
      if (stellar::util::trim(raw).empty()) {
        continue;
      }
      service::SubmitOptions request;
      try {
        request = service::SubmitOptions::fromJson(util::Json::parse(raw));
      } catch (const util::JsonError& e) {
        std::fprintf(stderr, "request %zu: bad JSON (%s)\n", lineNo, e.what());
        ++rejected;
        continue;
      }
      const service::SubmitResult result = daemon.submit(request);
      if (result.accepted()) {
        accepted.push_back(*result.id);
      } else {
        ++rejected;
        util::Json doc = util::Json::makeObject();
        doc.set("state", "rejected");
        doc.set("reason", service::rejectReasonName(result.rejection->reason));
        doc.set("detail", result.rejection->detail);
        std::printf("%s\n", doc.dump().c_str());
      }
    }

    std::size_t failed = 0;
    for (const service::SessionId id : accepted) {
      const service::SessionResult session = daemon.wait(id);
      if (session.state != service::SessionState::Completed) {
        ++failed;
      }
      std::printf("%s\n", session.toJson().dump().c_str());
    }
    std::size_t absorbed = 0;
    if (opts.commit) {
      absorbed = daemon.commit();
    }

    const service::ServiceStats stats = daemon.stats();
    std::fprintf(stderr,
                 "stellard: %zu submitted, %zu coalesced, %zu completed, "
                 "%zu failed, %zu rejected, %zu replayed, %zu interrupted, "
                 "%zu fresh runs, %zu absorbed\n",
                 stats.submitted, stats.coalesced, stats.completed, stats.failed,
                 stats.rejected, stats.replayed, stats.interrupted,
                 stats.freshRuns, absorbed);
    if (opts.metrics) {
      std::fprintf(stderr, "\n--- metrics ---\n%s", registry.renderTable().c_str());
    }
    return (failed == 0 && rejected == 0) ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stellard: %s\n", e.what());
    return 1;
  }
}
