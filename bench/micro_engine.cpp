// micro_engine — datacenter-scale event-engine gate.
//
// Part 1 (scheduler microbenchmark, informational): a deep,
// constantly-churning event queue (50k pending events, millions
// processed), reported as events/sec.
//
// Part 2 (scale gate): every rank runs the same program (create, a few
// 1 MiB writes, fsync, close) on
//   1x   — 500 OSTs /  5,000 ranks, one monolithic engine (the old
//          engine's world), and
//   10x  — 5,000 OSTs / 50,000 ranks across 1,000 federated cells, each
//          run start to finish on an engine of its own by one of the
//          simulator's worker threads.
// The 10x point processes 10x the events, so raw wall time is machine-
// bound: on a single-core box it cannot beat 10x no matter how good the
// engine is. The machine-independent gate is therefore per-event wall
// cost: the 10x cluster must cost < 2.0x the 1x heap baseline per event.
// On a box with >= 4 cores, that bound plus one task per cell (cells
// never interact, so they run concurrently to completion) yields the
// headline claim: a 10x larger simulated cluster in < 2x the wall time.
// Each point averages enough repeats to accumulate a comparable total
// duration, so host frequency wander cancels instead of deciding the gate.
//
// Part 3 (full mode only, informational): a 100x point — 50,000 OSTs /
// 500,000 ranks — reported but not gated.
//
// Flags:
//   --quick           fewer repeats and skip the 100x point (CI)
//   --baseline=FILE   compare the per-event cost ratio against a previous
//                     BENCH_engine.json; fail on a clear regression
//                     (wide relative tolerance + absolute floor, see
//                     checkBaseline — the ratio is noisy run to run)
//
// Emits BENCH_engine.json (rows: name, metric, value) in the current
// directory — run from the repo root to refresh the checked-in copy.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pfs/simulator.hpp"
#include "pfs/topology.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace stellar;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------- scheduler microbench --

// A self-rescheduling event: the queue depth stays constant while events
// churn through it, so every pop sifts through a 50k-deep heap.
struct Churn {
  sim::SimEngine& engine;
  util::Rng rng;
  std::uint64_t remaining;

  void fire() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    engine.scheduleAfter(rng.uniform(0.0, 1.0), [this] { fire(); });
  }
};

double deepQueueEventsPerSec(std::uint64_t rounds) {
  sim::SimEngine engine;
  constexpr std::uint64_t kPending = 50'000;
  std::vector<std::unique_ptr<Churn>> churners;
  churners.reserve(kPending);
  util::Rng seeder{0xBE9C4ULL};
  for (std::uint64_t i = 0; i < kPending; ++i) {
    churners.push_back(
        std::make_unique<Churn>(Churn{engine, util::Rng{seeder.next()}, rounds}));
    Churn* churn = churners.back().get();
    engine.scheduleAt(churn->rng.uniform(0.0, 1.0), [churn] { churn->fire(); });
  }
  const auto start = Clock::now();
  (void)engine.run();
  const double elapsed = secondsSince(start);
  return static_cast<double>(engine.eventsProcessed()) / elapsed;
}

// --------------------------------------------------------- scale points --

// File-per-process job: create, `chunks` sequential 1 MiB writes, fsync,
// close. Fsync forces server-side writeout inside the measured window, and
// private files keep the job partitionable into federation cells. The SAME
// per-rank program runs at every scale point so per-event costs compare a
// fixed workload mix; 1 MiB chunks keep the mix data-RPC-heavy.
pfs::JobSpec fppJob(std::uint32_t ranks, std::uint32_t chunks) {
  constexpr std::uint64_t kChunkBytes = util::kMiB;
  pfs::JobSpec job;
  job.name = "micro_engine_fpp";
  job.ranks.resize(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto f = job.addFile("/bench/rank" + std::to_string(r));
    auto& prog = job.ranks[r];
    prog.reserve(std::size_t{chunks} + 3);
    prog.push_back(pfs::IoOp::create(f));
    for (std::uint32_t i = 0; i < chunks; ++i) {
      prog.push_back(pfs::IoOp::write(f, std::uint64_t{i} * kChunkBytes, kChunkBytes));
    }
    prog.push_back(pfs::IoOp::fsync(f));
    prog.push_back(pfs::IoOp::close(f));
  }
  return job;
}

struct ScalePoint {
  std::string label;
  std::uint32_t osts = 0;
  std::uint32_t ranks = 0;
  double wallSeconds = 0.0;  // host wall clock per run, averaged over repeats
  std::uint64_t events = 0;  // per run
  double usPerEvent = 0.0;
};

// Repeats are sized so every point accumulates a comparable total duration:
// a single 1x run is ~10x shorter than a 10x run, and on shared/throttled
// hosts short runs make per-event figures a lottery. Averaging totals over
// a few seconds lets CPU-frequency wander cancel out.
ScalePoint runScalePoint(const std::string& label, pfs::ClusterSpec cluster,
                         std::uint32_t workers, std::uint32_t chunks, int repeats) {
  ScalePoint point;
  point.label = label;
  point.osts = cluster.totalOsts();
  point.ranks = cluster.totalRanks();
  const pfs::JobSpec job = fppJob(point.ranks, chunks);
  pfs::PfsSimulator sim{{.cluster = std::move(cluster), .workers = workers}};
  double totalSeconds = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    const pfs::RunResult result = sim.run(job, pfs::PfsConfig{}, 17);
    totalSeconds += secondsSince(start);
    point.events = result.counters.events;
  }
  point.wallSeconds = totalSeconds / repeats;
  point.usPerEvent =
      1e6 * point.wallSeconds / static_cast<double>(point.events);
  std::printf(
      "  %-5s %6u OSTs %7u ranks  %7.2fs wall  %9llu events  %5.2f us/event (x%d)\n",
      label.c_str(), point.osts, point.ranks, point.wallSeconds,
      static_cast<unsigned long long>(point.events), point.usPerEvent, repeats);
  return point;
}

// ------------------------------------------------------------- baseline --

// Regression check against a committed BENCH_engine.json: ratio metrics
// are machine-independent enough to gate on (absolute events/sec is not).
bool checkBaseline(const std::string& path, double perEventRatio) {
  const bench::BaselineMetric base = bench::readBaseline(path, "scale10x_per_event_ratio");
  if (!base.ok()) {
    std::printf("FAIL: baseline %s\n", base.missing.c_str());
    return false;
  }
  // The ratio swings up to ~50% run to run (shared-machine load), so the
  // threshold pairs a wide relative tolerance with an absolute floor. The
  // regression this is meant to catch is not subtle: losing per-cell cache
  // locality cost ~3-4x.
  if (perEventRatio > std::max(base.value * 1.5, 1.2)) {
    std::printf("FAIL: scale10x_per_event_ratio regressed: %.3f -> %.3f "
                "(limit max(1.5x baseline, 1.2))\n",
                base.value, perEventRatio);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    } else {
      std::printf("usage: %s [--quick] [--baseline=BENCH_engine.json]\n", argv[0]);
      return 2;
    }
  }

  std::printf("micro_engine: event-engine + federated-cell scale gate%s\n",
              quick ? " (quick)" : "");
  bool ok = true;

  // Part 1: deep-queue scheduler throughput.
  const std::uint64_t rounds = quick ? 20 : 40;
  std::printf("deep-queue scheduler microbench (50k pending, %lluk events):\n",
              static_cast<unsigned long long>(50 * (rounds + 1)));
  const double heapEps = deepQueueEventsPerSec(rounds);
  std::printf("  heap %6.2f Mev/s\n", heapEps / 1e6);

  // Part 2: the 10x-cluster-size gate (see file header for why the gated
  // quantity is per-event wall cost rather than raw wall time).
  const std::uint32_t chunks = 4;
  const int repeats1x = quick ? 8 : 16;
  const int repeats10x = quick ? 2 : 3;

  // One engine per federation cell: each cell's queue drains to completion
  // with a hot cache instead of 1000 cells' state thrashing through one
  // interleaved queue, and one worker thread per core takes cells in turn.
  const std::uint32_t workers = std::max(std::thread::hardware_concurrency(), 1U);
  std::printf("scale points (identical per-rank programs, one engine per cell):\n");
  pfs::ClusterSpec mono = pfs::scaledCluster(100);
  mono.cells = 1;  // the old engine's world: one monolithic event queue
  const ScalePoint base = runScalePoint("1x", std::move(mono), 1, chunks, repeats1x);
  const ScalePoint big =
      runScalePoint("10x", pfs::scaledCluster(1000), workers, chunks, repeats10x);

  const double perEventRatio = big.usPerEvent / base.usPerEvent;
  const double wallRatio = big.wallSeconds / base.wallSeconds;
  std::printf("  10x/1x per-event cost ratio: %.3f (gate: < 2.0)\n", perEventRatio);
  std::printf("  10x/1x wall ratio: %.3f (informational; 10x the events on %u cores)\n",
              wallRatio, std::thread::hardware_concurrency());
  if (big.osts < base.osts * 10 || big.ranks < base.ranks * 10 ||
      big.events < base.events * 10) {
    std::printf("FAIL: 10x point is not 10x the simulated cluster and work\n");
    ok = false;
  }
  if (perEventRatio >= 2.0) {
    std::printf("FAIL: per-event cost grew %.2fx at 10x scale (gate < 2.0x)\n",
                perEventRatio);
    ok = false;
  }
  // With >= 4 cores the worker threads absorb the 10x event volume, so the
  // headline wall-clock claim is directly checkable.
  if (std::thread::hardware_concurrency() >= 4 && wallRatio >= 2.0) {
    std::printf("FAIL: 10x cluster cost %.2fx wall time on %u cores (gate < 2.0x)\n",
                wallRatio, std::thread::hardware_concurrency());
    ok = false;
  }

  // Part 3: informational 100x point (full mode only; no gate).
  double usPerEvent100x = 0.0;
  if (!quick) {
    const ScalePoint huge =
        runScalePoint("100x", pfs::scaledCluster(10000), workers, chunks, 1);
    usPerEvent100x = huge.usPerEvent;
  }

  if (!baseline.empty() && !checkBaseline(baseline, perEventRatio)) {
    ok = false;
  }

  bench::BenchRows rows{"micro_engine"};
  rows.add("heap_deep_queue_events_per_sec", heapEps);
  rows.add("scale1x_wall_seconds", base.wallSeconds);
  rows.add("scale1x_events", static_cast<double>(base.events));
  rows.add("scale1x_us_per_event", base.usPerEvent);
  rows.add("scale10x_wall_seconds", big.wallSeconds);
  rows.add("scale10x_events", static_cast<double>(big.events));
  rows.add("scale10x_us_per_event", big.usPerEvent);
  rows.add("scale10x_per_event_ratio", perEventRatio);
  rows.add("scale10x_wall_ratio", wallRatio);
  if (usPerEvent100x > 0.0) {
    rows.add("scale100x_us_per_event", usPerEvent100x);
  }
  rows.write("BENCH_engine.json");

  std::printf("%s\n", ok ? "micro_engine gate PASSED" : "micro_engine gate FAILED");
  return ok ? 0 : 1;
}
