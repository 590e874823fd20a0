// Physical-law invariant checker, run after every simulated run.
//
// Each law is an algebraic statement about quantities the simulator must
// conserve regardless of configuration, workload, or faults: bytes cannot
// appear or vanish between the client cache, the RPC layer, and the OSTs;
// a single-server disk stage cannot be busy longer than the simulation
// ran; dirty pages cannot exceed their budget except through the one
// documented oversized-write admission; lock lifecycles must balance.
//
// Laws are identified by short stable ids (INV-W1, INV-B2, ...) that the
// explore CLI prints and DESIGN.md §6 documents.
#pragma once

#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "pfs/simulator.hpp"
#include "testkit/gen.hpp"

namespace stellar::testkit {

struct Violation {
  std::string law;      ///< stable id, e.g. "INV-W1"
  std::string message;  ///< human-readable statement with the numbers

  [[nodiscard]] std::string format() const { return law + ": " + message; }
};

/// Mutations deliberately corrupt a RunResult copy before checking, to
/// prove the checker catches a broken law (mutation testing, DESIGN.md §6).
/// Names: "write-conservation", "read-partition", "rpc-balance",
/// "dirty-bound", "lock-balance", "disk-bandwidth".
[[nodiscard]] const std::vector<std::string>& mutationNames();

/// Applies the named mutation to `result` (no-op for unknown names;
/// callers validate against mutationNames first).
void applyMutation(const std::string& name, pfs::RunResult& result);

/// Checks every law that applies to the run's outcome. `hadFaultPlan`
/// relaxes the equality conservation laws to inequalities where loss is
/// legal (gave-up RPCs are never served).
[[nodiscard]] std::vector<Violation> checkRun(const GeneratedCase& cse,
                                              const pfs::RunResult& result);

/// Cross-checks the RunCounters and audit totals against the `pfs.*`
/// counters the run published to `registry` (INV-O1). The registry must
/// contain exactly one run's publish.
[[nodiscard]] std::vector<Violation> checkObsConsistency(
    const obs::CounterRegistry& registry, const pfs::RunResult& result);

}  // namespace stellar::testkit
