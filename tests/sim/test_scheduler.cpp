// Dispatch-order law (ML-SCHED).
//
// The determinism contract says the engine dispatches in strict
// (timestamp, insertion-seq) order. The property drives randomized streams
// of pushes interleaved with pops through the heap, with timestamps drawn
// from a tiny set so ties dominate, and checks every pop against a
// brute-force reference: a full (at, seq) sort of the keys pending at that
// moment. Failures shrink to a minimal op stream before reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <tuple>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace stellar::sim {
namespace {

// An op stream: a negative entry pops, any other entry pushes a key at
// (time of the last pop + entry) — never into the past, like the engine.
constexpr SimTime kPop = -1.0;

bool sameKey(const EventKey& a, const EventKey& b) {
  return a.at == b.at && a.seq == b.seq && a.slot == b.slot;
}

// Replays `ops` (then pops until empty) against the heap and the
// brute-force reference; true when every pop returns the reference's next
// key. Used directly by the property tests and as the failing predicate
// for the shrinker.
bool popsMatchBruteForceSort(const std::vector<SimTime>& ops) {
  HeapScheduler heap;
  std::vector<EventKey> pending;
  std::uint64_t seq = 0;
  SimTime now = 0.0;
  const auto popBoth = [&] {
    std::sort(pending.begin(), pending.end(), [](const EventKey& a, const EventKey& b) {
      return std::tie(a.at, a.seq) < std::tie(b.at, b.seq);
    });
    const EventKey expected = pending.front();
    pending.erase(pending.begin());
    const EventKey got = heap.pop();
    now = got.at;
    return sameKey(got, expected);
  };
  for (const SimTime op : ops) {
    if (op >= 0.0) {
      const EventKey key{now + op, seq, static_cast<std::uint32_t>(seq)};
      ++seq;
      heap.push(key);
      pending.push_back(key);
    } else if (!pending.empty() && !popBoth()) {
      return false;
    }
    if (heap.size() != pending.size()) {
      return false;
    }
  }
  while (!pending.empty()) {
    if (!popBoth()) {
      return false;
    }
  }
  return heap.empty();
}

// Greedy delta-debugging shrinker: repeatedly drop elements while the
// predicate keeps failing. Returns the minimal failing list.
std::vector<SimTime> shrinkTimes(std::vector<SimTime> times,
                                 const std::function<bool(const std::vector<SimTime>&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < times.size(); ++i) {
      std::vector<SimTime> candidate = times;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(candidate)) {
        times = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return times;
}

std::string formatTimes(const std::vector<SimTime>& times) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < times.size(); ++i) {
    out << (i == 0 ? "" : ", ") << times[i];
  }
  out << "]";
  return out.str();
}

void expectLawHolds(std::uint64_t trial, const std::vector<SimTime>& ops) {
  if (!popsMatchBruteForceSort(ops)) {
    const std::vector<SimTime> minimal = shrinkTimes(
        ops, [](const std::vector<SimTime>& t) { return !popsMatchBruteForceSort(t); });
    ADD_FAILURE() << "trial " << trial << ": pop order diverged from the (at, seq) sort; "
                  << "minimal failing op stream (" << kPop << " = pop) "
                  << formatTimes(minimal);
  }
}

TEST(SchedulerProperty, SameTimestampFifoMatchesAcrossBackends) {
  // The two backends compared are the heap and the brute-force sort.
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    util::Rng rng{util::mix64(0xF1F0, trial)};
    // Draw timestamps from a tiny value set so same-timestamp collisions
    // dominate — FIFO tie-breaking is exactly what this law targets.
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 64));
    std::vector<SimTime> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      ops.push_back(0.5 * static_cast<double>(rng.uniformInt(0, 4)));
    }
    expectLawHolds(trial, ops);
  }
}

TEST(SchedulerProperty, ShrinkerFindsMinimalCounterexample) {
  // Sanity-check the shrinker itself against a synthetic predicate, so a
  // real law failure reports a genuinely minimal input.
  const std::vector<SimTime> noisy{3.0, 1.0, 1.0, 2.5, 1.0, 0.0, 4.0};
  const auto atLeastThreeOnes = [](const std::vector<SimTime>& t) {
    std::size_t ones = 0;
    for (const SimTime v : t) {
      ones += v == 1.0 ? 1 : 0;
    }
    return ones >= 3;
  };
  const std::vector<SimTime> minimal = shrinkTimes(noisy, atLeastThreeOnes);
  EXPECT_EQ(minimal, (std::vector<SimTime>{1.0, 1.0, 1.0}));
}

TEST(SchedulerProperty, InterleavedPushPopAgrees) {
  // Pushes interleaved with pops, each push at most 1.75 s past the last
  // popped time and on a 0.25 s grid, so new keys keep tying with keys
  // that have been pending for many pops.
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    util::Rng rng{util::mix64(0xBEEF, trial)};
    std::vector<SimTime> ops;
    std::size_t depth = 0;
    for (int step = 0; step < 400; ++step) {
      if (depth == 0 || rng.chance(0.6)) {
        ops.push_back(0.25 * static_cast<double>(rng.uniformInt(0, 7)));
        ++depth;
      } else {
        ops.push_back(kPop);
        --depth;
      }
    }
    expectLawHolds(trial, ops);
  }
}

}  // namespace
}  // namespace stellar::sim
