// Metamorphic laws over the simulator's response surface.
//
// A metamorphic law relates the outputs of *two related runs* without
// knowing either output in advance — exactly the kind of property that
// survives when no closed-form oracle exists:
//
//   ML-DET       same (job, config, seed, plan) ⇒ bit-identical results
//   ML-SHARD     a cellified case is bit-identical on 1 / 2 / 4 worker
//                threads (one engine per cell, globally keyed randomness,
//                cell-order fold); its 4-worker run must also pass INV-O1
//   ML-FAULTFREE an *empty* fault plan ⇒ bit-identical to no plan at all
//   ML-SCALE     doubling the client ranks never reduces aggregate work
//   ML-RELAX     raising osc.max_rpcs_in_flight on a contention-free
//                single-rank workload never worsens wall time beyond ε
//                (the knob only adds capacity; ε absorbs jitter resampling)
//
// ML-SCHED, the engine's (timestamp, insertion-seq) dispatch order, is a
// property of the event queue alone; tests/sim/test_scheduler.cpp checks
// it against a brute-force sort.
#pragma once

#include <vector>

#include "testkit/gen.hpp"
#include "testkit/invariants.hpp"

namespace stellar::testkit {

/// Which laws apply to this shape (ML-RELAX needs a contention-free
/// shape; ML-SCALE needs headroom to double the ranks).
struct MetamorphicPlan {
  bool determinism = true;
  bool shards = true;
  bool faultFree = true;
  bool scale = true;
  bool relax = true;
};

/// Runs every applicable law for the shape; each failing law yields one
/// Violation with an ML-* id.
[[nodiscard]] std::vector<Violation> checkMetamorphic(const CaseShape& shape,
                                                      const MetamorphicPlan& plan = {});

}  // namespace stellar::testkit
