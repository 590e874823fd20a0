// micro_readahead — sliding-window readahead engine gate.
//
// Cross-node sequential-read workload: writer ranks on node 0 publish
// private files, reader ranks on node 1 (cold page cache) scan them in
// 256 KiB chunks. The same job runs three ways:
//
//   RA on      default llite knobs (64/32/2 MiB): the window machine must
//              keep prefetch ahead of a sequential consumer
//   RA off     llite knobs zeroed: every read is a synchronous fetch
//   random     RA on, descending read offsets: the window machine must
//              stay out of the way (reset on every miss, no speculation)
//
// Machine-independent gates (absolute events/sec is not portable):
//   - host cost of simulating the job with RA on <= 1.10x the RA-off run:
//     the window machine is O(1) per read with batched SoA accounting, and
//     prefetch coalescing roughly halves the event count, so enabling
//     readahead may not make the same job dearer to simulate (per-EVENT
//     cost is the wrong normalization here — the two runs have different
//     event mixes, so the gated quantity is per-RUN; per-event figures are
//     emitted as informational metrics). The arms alternate run by run and
//     the gate takes the median of each repeat's RA-on/RA-off ratio: a run
//     is ~0.1-0.3 ms, so one scheduler preemption (~4 ms) on a loaded host
//     moves an arm's mean by tens of percent, but not the paired median.
//   - cold sequential hit rate >= 0.95 (closed form: (N-1)/N per file)
//   - random-read hit rate <= 0.05, separation cold - random >= 0.90 —
//     the steepened response surface the rewrite exists for
//   - simulated read-phase speedup from enabling readahead >= 1.2x
//
// Flags:
//   --quick           fewer repeats (CI)
//   --baseline=FILE   compare ratio metrics against a committed
//                     BENCH_readahead.json; fail on a clear regression
//
// Emits BENCH_readahead.json (rows: name, metric, value) in the current
// directory — run from the repo root to refresh the checked-in copy.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "pfs/simulator.hpp"
#include "util/units.hpp"

namespace {

using namespace stellar;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::uint32_t kReaders = 4;
constexpr std::uint32_t kChunksPerFile = 32;
constexpr std::uint64_t kChunkBytes = 256 * util::kKiB;
constexpr std::uint64_t kFileBytes = kChunksPerFile * kChunkBytes;  // 8 MiB

pfs::ClusterSpec benchCluster() {
  pfs::ClusterSpec cluster = pfs::defaultCluster();
  cluster.clientNodes = 2;  // writers on node 0, cold readers on node 1
  cluster.ranksPerNode = kReaders;
  cluster.ossNodes = 1;
  cluster.ostsPerOss = 4;
  return cluster;
}

pfs::PfsConfig benchConfig(bool readaheadOn) {
  pfs::PfsConfig cfg;
  cfg.llite_max_read_ahead_mb = readaheadOn ? 64 : 0;
  cfg.llite_max_read_ahead_per_file_mb = readaheadOn ? 32 : 0;
  cfg.llite_max_read_ahead_whole_mb = readaheadOn ? 2 : 0;
  return cfg;
}

/// Writer rank i publishes /bench/f<i>; reader rank kReaders+i scans it.
/// `descending` flips the reader's chunk order to the random-access shape
/// (never sequential, so the window machine must reset instead of ramp).
pfs::JobSpec crossNodeReadJob(bool descending) {
  pfs::JobSpec job;
  job.name = descending ? "micro_readahead_random" : "micro_readahead_seq";
  job.ranks.resize(2 * kReaders);
  for (std::uint32_t i = 0; i < kReaders; ++i) {
    const pfs::FileId f = job.addFile("/bench/f" + std::to_string(i));
    auto& writer = job.ranks[i];
    writer.push_back(pfs::IoOp::create(f));
    for (std::uint64_t off = 0; off < kFileBytes; off += util::kMiB) {
      writer.push_back(pfs::IoOp::write(f, off, util::kMiB));
    }
    writer.push_back(pfs::IoOp::fsync(f));
    writer.push_back(pfs::IoOp::barrier());
    writer.push_back(pfs::IoOp::close(f));

    auto& reader = job.ranks[kReaders + i];
    reader.push_back(pfs::IoOp::barrier());
    reader.push_back(pfs::IoOp::open(f));
    for (std::uint32_t c = 0; c < kChunksPerFile; ++c) {
      const std::uint32_t chunk = descending ? kChunksPerFile - 1 - c : c;
      reader.push_back(
          pfs::IoOp::read(f, std::uint64_t{chunk} * kChunkBytes, kChunkBytes));
    }
    reader.push_back(pfs::IoOp::close(f));
  }
  return job;
}

struct BenchPoint {
  double wallPerRun = 0.0;   // host seconds per run, averaged over repeats
  double usPerEvent = 0.0;   // host cost per event (informational)
  double hitRate = 0.0;      // readahead hits / bytes read (simulated)
  double readPhase = 0.0;    // simulated seconds from barrier to last reader
};

/// One configuration of the job under measurement.
struct Arm {
  Arm(const char* label, const pfs::JobSpec& job, const pfs::PfsConfig& cfg)
      : label(label), job(job), cfg(cfg) {}

  const char* label;
  const pfs::JobSpec& job;
  pfs::PfsConfig cfg;
  std::vector<double> runSeconds;  // host seconds of each repeat, in order
  std::uint64_t events = 0;
  BenchPoint point;
};

void runOnce(const pfs::PfsSimulator& sim, Arm& arm) {
  const auto start = Clock::now();
  const pfs::RunResult result = sim.run(arm.job, arm.cfg, /*seed=*/17);
  arm.runSeconds.push_back(secondsSince(start));
  arm.events = result.counters.events;
  // INV-R1 partition: every read byte is a readahead hit, a readahead
  // miss, or a page-cache hit — the sum is the read-byte denominator.
  const double bytesRead =
      static_cast<double>(result.counters.readaheadHitBytes +
                          result.counters.readaheadMissBytes +
                          result.counters.pageCacheHitBytes);
  arm.point.hitRate =
      static_cast<double>(result.counters.readaheadHitBytes) / bytesRead;
  double lastReader = 0.0;
  for (std::uint32_t r = kReaders; r < 2 * kReaders; ++r) {
    lastReader = std::max(lastReader, result.ranks[r].finishTime);
  }
  arm.point.readPhase = lastReader - result.barrierTimes.front();
}

/// Runs every arm `repeats` times. The arms alternate inside each repeat
/// (in reverse order on odd repeats), so a repeat's runs share one host
/// load; each arm reports its per-run mean.
void runArms(std::vector<Arm>& arms, int repeats) {
  const pfs::PfsSimulator sim{{.cluster = benchCluster()}};
  for (int i = 0; i < repeats; ++i) {
    for (std::size_t k = 0; k < arms.size(); ++k) {
      runOnce(sim, arms[i % 2 == 0 ? k : arms.size() - 1 - k]);
    }
  }
  for (Arm& arm : arms) {
    BenchPoint& point = arm.point;
    double totalSeconds = 0.0;
    for (const double seconds : arm.runSeconds) {
      totalSeconds += seconds;
    }
    point.wallPerRun = totalSeconds / repeats;
    point.usPerEvent = 1e6 * point.wallPerRun / static_cast<double>(arm.events);
    std::printf(
        "  %-10s %7.0f us/run  %5.2f us/event  hit rate %.4f  read phase %.3fs (x%d)\n",
        arm.label, 1e6 * point.wallPerRun, point.usPerEvent, point.hitRate,
        point.readPhase, repeats);
  }
}

// Regression check against a committed BENCH_readahead.json: only the
// ratio metrics are stable enough across hosts to gate on, and each pairs
// a relative tolerance with an absolute floor/ceiling (the per-event ratio
// swings with host load; the hit rates are deterministic).
bool checkBaseline(const std::string& path, double hostCostRatio,
                   double separation) {
  bool ok = true;
  const bench::BaselineMetric cost = bench::readBaseline(path, "seqread_host_cost_ratio");
  if (!cost.ok()) {
    std::printf("FAIL: baseline %s\n", cost.missing.c_str());
    ok = false;
  } else if (hostCostRatio > std::max(cost.value * 1.5, 1.10)) {
    std::printf("FAIL: seqread_host_cost_ratio regressed: %.3f -> %.3f "
                "(limit max(1.5x baseline, 1.10))\n",
                cost.value, hostCostRatio);
    ok = false;
  }
  const bench::BaselineMetric sep = bench::readBaseline(path, "hit_rate_separation");
  if (!sep.ok()) {
    // A file-level fault gives both metrics the same reason; say it once.
    if (sep.missing != cost.missing) {
      std::printf("FAIL: baseline %s\n", sep.missing.c_str());
    }
    ok = false;
  } else if (separation < sep.value - 0.02) {
    std::printf("FAIL: hit_rate_separation regressed: %.4f -> %.4f "
                "(limit baseline - 0.02)\n",
                sep.value, separation);
    ok = false;
  }
  return ok;
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
      std::printf("usage: %s [--quick] [--baseline=BENCH_readahead.json]\n",
                  argv[0]);
      return 2;
    }
  }

  std::printf("micro_readahead: sliding-window readahead gate%s\n",
              quick ? " (quick)" : "");
  // Single runs are sub-millisecond; many paired repeats let the median
  // ratio shrug off the runs a preemption or frequency step lands on.
  const int repeats = quick ? 60 : 240;
  bool ok = true;

  const pfs::JobSpec seqJob = crossNodeReadJob(/*descending=*/false);
  const pfs::JobSpec randomJob = crossNodeReadJob(/*descending=*/true);
  std::vector<Arm> arms{{"seq RA-on", seqJob, benchConfig(true)},
                        {"seq RA-off", seqJob, benchConfig(false)},
                        {"random", randomJob, benchConfig(true)}};
  runArms(arms, repeats);
  const BenchPoint& on = arms[0].point;
  const BenchPoint& off = arms[1].point;
  const BenchPoint& random = arms[2].point;

  std::vector<double> pairedRatios;
  for (int i = 0; i < repeats; ++i) {
    pairedRatios.push_back(arms[0].runSeconds[i] / arms[1].runSeconds[i]);
  }
  const double hostCostRatio = bench::median(pairedRatios);
  const double separation = on.hitRate - random.hitRate;
  const double speedup = off.readPhase / on.readPhase;
  std::printf("  host cost per run RA-on/RA-off, median of %d repeats: %.3f "
              "(gate <= 1.10)\n",
              repeats, hostCostRatio);
  std::printf("  hit-rate separation cold seq vs random: %.4f (gate >= 0.90)\n",
              separation);
  std::printf("  simulated read-phase speedup from RA: %.2fx (gate >= 1.2)\n",
              speedup);

  // The window machine is O(1) per read with batched accounting, and its
  // coalesced prefetch RPCs shrink the event count: the same job may not
  // become dearer to simulate when readahead is enabled.
  if (hostCostRatio > 1.10) {
    std::printf("FAIL: readahead made the job %.2fx dearer to simulate "
                "(gate <= 1.10)\n",
                hostCostRatio);
    ok = false;
  }
  // Closed form per file: (N-1)/N chunks hit = 31/32 ~ 0.969.
  if (on.hitRate < 0.95) {
    std::printf("FAIL: cold sequential hit rate %.4f (gate >= 0.95)\n",
                on.hitRate);
    ok = false;
  }
  if (random.hitRate > 0.05) {
    std::printf("FAIL: random-read hit rate %.4f (gate <= 0.05): the window "
                "machine is speculating against a random reader\n",
                random.hitRate);
    ok = false;
  }
  if (separation < 0.90) {
    std::printf("FAIL: hit-rate separation %.4f (gate >= 0.90)\n", separation);
    ok = false;
  }
  if (speedup < 1.2) {
    std::printf("FAIL: enabling readahead sped reads up only %.2fx (gate >= 1.2)\n",
                speedup);
    ok = false;
  }

  if (!baseline.empty() && !checkBaseline(baseline, hostCostRatio, separation)) {
    ok = false;
  }

  bench::BenchRows rows{"micro_readahead"};
  rows.add("seqread_us_per_event_ra_on", on.usPerEvent);
  rows.add("seqread_us_per_event_ra_off", off.usPerEvent);
  rows.add("seqread_host_cost_ratio", hostCostRatio);
  rows.add("cold_seq_hit_rate", on.hitRate);
  rows.add("random_hit_rate", random.hitRate);
  rows.add("hit_rate_separation", separation);
  rows.add("read_phase_speedup", speedup);
  rows.write("BENCH_readahead.json");

  std::printf("%s\n",
              ok ? "micro_readahead gate PASSED" : "micro_readahead gate FAILED");
  return ok ? 0 : 1;
}
