// Shared single-case runner: materialized case -> RunResult, with the
// fault plan and (optionally) a fresh observability registry attached the
// same way every testkit consumer expects.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/counters.hpp"
#include "pfs/simulator.hpp"
#include "testkit/gen.hpp"

namespace stellar::testkit {

/// Runs the materialized case once. The shape's seed is the sim seed, the
/// shape's fault plan is attached when non-empty, and `registry` (if
/// given) receives exactly this run's published metrics.
[[nodiscard]] pfs::RunResult runCase(const GeneratedCase& cse,
                                     obs::CounterRegistry* registry = nullptr);

/// As above on `workers` cell threads (pfs::SimulatorOptions::workers).
/// The ML-SHARD law drives the same case at different worker counts and
/// demands bit-identity.
[[nodiscard]] pfs::RunResult runCase(const GeneratedCase& cse, std::uint32_t workers,
                                     obs::CounterRegistry* registry = nullptr);

/// Bit-identity comparison of two whole run results; returns a description
/// of the first difference, or nullopt when identical. It names the part
/// that differs: a scalar field, the counters, rank i, file i, OST i of the
/// audit, or the audit totals. Floating-point fields are compared exactly —
/// determinism means *exact* replay.
[[nodiscard]] std::optional<std::string> describeDifference(const pfs::RunResult& a,
                                                            const pfs::RunResult& b);

}  // namespace stellar::testkit
