// google-benchmark microbenchmarks for the substrate layers: event engine,
// service centers, striping math, dataframe/query engine, RAG retrieval,
// JSON, expressions, and whole-simulation throughput.
#include <benchmark/benchmark.h>

#include "core/offline_extractor.hpp"
#include "dfquery/eval.hpp"
#include "manual/manual_text.hpp"
#include "pfs/layout.hpp"
#include "pfs/simulator.hpp"
#include "rag/vector_index.hpp"
#include "sim/engine.hpp"
#include "sim/service_center.hpp"
#include "util/expr.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

using namespace stellar;

namespace {

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEngine engine;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 10000) {
        engine.scheduleAfter(0.001, [&chain] { chain(); });
      }
    };
    engine.scheduleAt(0.0, [&chain] { chain(); });
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventEngine);

void BM_ServiceCenterQueueing(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEngine engine;
    sim::ServiceCenterBank center{engine, 1, 16};
    for (int i = 0; i < 5000; ++i) {
      center.submit(0, 0.001, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(center.busyTime(0));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_ServiceCenterQueueing);

void BM_StripingMath(benchmark::State& state) {
  pfs::FileLayout layout{.stripeCount = 5, .stripeSize = 1 << 20, .firstOst = 2,
                         .totalOsts = 5};
  std::uint64_t offset = 0;
  for (auto _ : state) {
    auto pieces = pfs::mapExtent(layout, offset, 16 << 20);
    benchmark::DoNotOptimize(pieces);
    offset += 12345;
  }
}
BENCHMARK(BM_StripingMath);

void BM_SimulateIor16m(benchmark::State& state) {
  pfs::PfsSimulator sim;
  workloads::WorkloadOptions opt;
  opt.ranks = 50;
  opt.scale = 0.05;
  const pfs::JobSpec job = workloads::ior16m(opt);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result = sim.run(job, pfs::PfsConfig{}, ++seed);
    benchmark::DoNotOptimize(result.wallSeconds);
    state.counters["events"] = static_cast<double>(result.counters.events);
  }
}
BENCHMARK(BM_SimulateIor16m)->Unit(benchmark::kMillisecond);

void BM_SimulateMdw(benchmark::State& state) {
  pfs::PfsSimulator sim;
  workloads::WorkloadOptions opt;
  opt.ranks = 50;
  opt.scale = 0.05;
  const pfs::JobSpec job = workloads::mdworkbench(8192, opt);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result = sim.run(job, pfs::PfsConfig{}, ++seed);
    benchmark::DoNotOptimize(result.wallSeconds);
    state.counters["events"] = static_cast<double>(result.counters.events);
  }
}
BENCHMARK(BM_SimulateMdw)->Unit(benchmark::kMillisecond);

void BM_DfQueryGroupBy(benchmark::State& state) {
  df::DataFrame frame;
  frame.addColumn("rank", df::ColumnType::Int64);
  frame.addColumn("bytes", df::ColumnType::Int64);
  for (std::int64_t i = 0; i < 10000; ++i) {
    frame.appendRow({i % 50, i * 17});
  }
  const dfq::TableSet tables{{"posix", &frame}};
  for (auto _ : state) {
    auto result = dfq::runQuery(
        "select rank, sum(bytes) from posix where bytes > 100 group by rank "
        "order by sum_bytes desc limit 10",
        tables);
    benchmark::DoNotOptimize(result.rowCount());
  }
}
BENCHMARK(BM_DfQueryGroupBy)->Unit(benchmark::kMicrosecond);

void BM_RagQuery(benchmark::State& state) {
  rag::VectorIndex index;
  index.buildFromDocument(manual::fullManualText());
  for (auto _ : state) {
    auto hits = index.query("How do I use the parameter osc.max_rpcs_in_flight?", 20);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_RagQuery)->Unit(benchmark::kMicrosecond);

void BM_OfflineExtraction(benchmark::State& state) {
  manual::SystemFacts facts;
  for (auto _ : state) {
    core::OfflineExtractor extractor;
    auto result = extractor.run(facts);
    benchmark::DoNotOptimize(result.tunables.size());
  }
}
BENCHMARK(BM_OfflineExtraction)->Unit(benchmark::kMillisecond);

void BM_JsonRoundTrip(benchmark::State& state) {
  util::Json arr = util::Json::makeArray();
  for (int i = 0; i < 100; ++i) {
    util::Json rule = util::Json::makeObject();
    rule.set("Parameter", util::Json{"osc.max_rpcs_in_flight"});
    rule.set("Rule Description", util::Json{"raise concurrency for small records"});
    rule.set("value", util::Json{i});
    arr.push(std::move(rule));
  }
  const std::string text = arr.dump();
  for (auto _ : state) {
    auto parsed = util::Json::parse(text);
    benchmark::DoNotOptimize(parsed.asArray().size());
  }
}
BENCHMARK(BM_JsonRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_ExprEvaluate(benchmark::State& state) {
  const util::Expr expr = util::Expr::parse("min(client_ram_mb / 2, budget) / 2");
  const util::SymbolResolver resolver = [](std::string_view name) -> std::optional<double> {
    if (name == "client_ram_mb") return 200704.0;
    if (name == "budget") return 512.0;
    return std::nullopt;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.evaluate(resolver));
  }
}
BENCHMARK(BM_ExprEvaluate);

}  // namespace

BENCHMARK_MAIN();
