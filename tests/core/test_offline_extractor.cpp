// The offline RAG extraction pipeline (§4.2) and the process-wide copy of
// its result that every StellarEngine reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>

#include "core/engine.hpp"
#include "core/offline_extractor.hpp"

namespace stellar::core {
namespace {

const ExtractionResult& extraction() {
  static const ExtractionResult result = [] {
    manual::SystemFacts facts;
    return OfflineExtractor{}.run(facts);
  }();
  return result;
}

TEST(OfflineExtractor, RecoversAllThirteenTunables) {
  EXPECT_DOUBLE_EQ(extraction().precision(), 1.0);
  EXPECT_DOUBLE_EQ(extraction().recall(), 1.0);
  EXPECT_EQ(extraction().tunables.size(), 13u);
}

TEST(OfflineExtractor, FiltersEachDecoyIntoTheRightBucket) {
  const ExtractionResult& r = extraction();
  const auto has = [](const std::vector<std::string>& v, const char* name) {
    return std::find(v.begin(), v.end(), name) != v.end();
  };
  EXPECT_TRUE(has(r.filteredNotWritable, "mgs.mount_block_size"));
  EXPECT_TRUE(has(r.filteredInsufficientDocs, "osc.experimental_prefetch_mode"));
  EXPECT_TRUE(has(r.filteredBinary, "osc.checksums"));
  EXPECT_TRUE(has(r.filteredLowImpact, "ost.nrs_delay_min"));
  EXPECT_TRUE(has(r.filteredLowImpact, "llite.debug_level"));
}

TEST(OfflineExtractor, EveryCandidateLandsExactlyOnce) {
  const ExtractionResult& r = extraction();
  const std::size_t total = r.tunables.size() + r.filteredNotWritable.size() +
                            r.filteredInsufficientDocs.size() +
                            r.filteredBinary.size() + r.filteredLowImpact.size();
  EXPECT_EQ(total, manual::allParamFacts().size());
}

TEST(OfflineExtractor, ExtractedRangesMatchGroundTruth) {
  manual::SystemFacts facts;
  for (const ExtractedParam& p : extraction().tunables) {
    const manual::ParamFact* fact = manual::findParamFact(p.name);
    ASSERT_NE(fact, nullptr) << p.name;
    const llm::ResolvedRange truth = llm::resolveRange(*fact, facts);
    EXPECT_EQ(p.knowledge.minValue, truth.min) << p.name;
    EXPECT_EQ(p.knowledge.maxValue, truth.max) << p.name;
    EXPECT_EQ(p.knowledge.defaultValue, fact->defaultValue) << p.name;
  }
}

TEST(OfflineExtractor, DependentRangesStayAsExpressions) {
  const ExtractedParam* perFile =
      extraction().find("llite.max_read_ahead_per_file_mb");
  ASSERT_NE(perFile, nullptr);
  EXPECT_EQ(perFile->maxExpr, "llite.max_read_ahead_mb / 2");
  const ExtractedParam* mod = extraction().find("mdc.max_mod_rpcs_in_flight");
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->maxExpr, "mdc.max_rpcs_in_flight - 1");
}

TEST(OfflineExtractor, DescriptionsComeFromTheManualProse) {
  const ExtractedParam* stripe = extraction().find("lov.stripe_count");
  ASSERT_NE(stripe, nullptr);
  EXPECT_NE(stripe->knowledge.description.find("Object Storage Targets"),
            std::string::npos);
  EXPECT_EQ(stripe->knowledge.source, llm::KnowledgeSource::RagExtraction);
  EXPECT_EQ(stripe->knowledge.corruption, llm::CorruptionKind::None);
}

TEST(OfflineExtractor, SystemFactsChangeResolvedBounds) {
  manual::SystemFacts small;
  small.clientRamMb = 8192;
  const ExtractionResult result = OfflineExtractor{}.run(small);
  const ExtractedParam* ra = result.find("llite.max_read_ahead_mb");
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->knowledge.maxValue, 4096);
}

TEST(OfflineExtractor, MeterRecordsExtractionCalls) {
  manual::SystemFacts facts;
  llm::TokenMeter meter;
  (void)OfflineExtractor{}.run(facts, &meter);
  const llm::UsageTotals usage = meter.totals("extraction");
  // One call per writable candidate.
  std::size_t writable = 0;
  for (const auto& fact : manual::allParamFacts()) {
    writable += fact.writable ? 1 : 0;
  }
  EXPECT_EQ(usage.calls, writable);
  EXPECT_GT(usage.inputTokens, 10000u);  // top-K chunks per query
}

TEST(OfflineExtractor, FindReturnsNullForUnknown) {
  EXPECT_EQ(extraction().find("nope"), nullptr);
}

// ------------------------------------------------------- shared extraction

manual::SystemFacts factsOf(const pfs::ClusterSpec& cluster) {
  manual::SystemFacts facts;
  facts.clientRamMb = cluster.clientRamMb();
  facts.ostCount = cluster.totalOsts();
  return facts;
}

pfs::PfsSimulator simulatorFor(const pfs::ClusterSpec& cluster,
                               obs::CounterRegistry* counters = nullptr) {
  pfs::SimulatorOptions options;
  options.cluster = cluster;
  options.counters = counters;
  return pfs::PfsSimulator{options};
}

std::int64_t maxOf(const ExtractionResult& result, std::string_view name) {
  const ExtractedParam* param = result.find(name);
  return param == nullptr ? -1 : param->knowledge.maxValue;
}

TEST(SharedExtraction, ConcurrentEnginesRunThePipelineOnce) {
  // No other test in this binary extracts for scaledCluster(3), so one of
  // these eight calls is the process's first for its facts.
  const pfs::ClusterSpec cluster = pfs::scaledCluster(3);
  obs::CounterRegistry counters;
  constexpr std::size_t kThreads = 8;
  std::vector<const ExtractionResult*> seen(kThreads, nullptr);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const StellarEngine engine{simulatorFor(cluster, &counters), StellarOptions{}};
      start.arrive_and_wait();
      seen[t] = &engine.extraction();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const ExtractionResult* result : seen) {
    EXPECT_EQ(result, seen[0]);
  }
  EXPECT_EQ(counters.counter("core.extraction.cache_miss").value(), 1.0);
  EXPECT_EQ(counters.counter("core.extraction.cache_hit").value(), 7.0);
  // The engines are gone; the shared result outlives them.
  EXPECT_EQ(*seen[0], OfflineExtractor{}.run(factsOf(cluster)));
}

TEST(SharedExtraction, ResultFollowsEveryFactTheEngineSets) {
  pfs::ClusterSpec leanRam = pfs::defaultCluster();
  leanRam.clientRamBytes = 64ULL * util::kGiB;
  const pfs::ClusterSpec base = pfs::defaultCluster();
  const pfs::ClusterSpec wide = pfs::scaledCluster(2);
  // Extract for the default cluster first, so a key that drops a fact
  // would hand its result to the clusters below.
  const ExtractionResult& onBase =
      StellarEngine{simulatorFor(base), StellarOptions{}}.extraction();
  const ExtractionResult& onWide =
      StellarEngine{simulatorFor(wide), StellarOptions{}}.extraction();
  const ExtractionResult& onLeanRam =
      StellarEngine{simulatorFor(leanRam), StellarOptions{}}.extraction();

  // lov.stripe_count tops out at ost_count, osc.max_dirty_mb at client_ram_mb / 8.
  EXPECT_EQ(maxOf(onBase, "lov.stripe_count"), 5);
  EXPECT_EQ(maxOf(onWide, "lov.stripe_count"), 10);
  EXPECT_EQ(maxOf(onBase, "osc.max_dirty_mb"), base.clientRamMb() / 8);
  EXPECT_EQ(maxOf(onLeanRam, "osc.max_dirty_mb"), 65536 / 8);
  EXPECT_EQ(onBase, OfflineExtractor{}.run(factsOf(base)));
  EXPECT_EQ(onWide, OfflineExtractor{}.run(factsOf(wide)));
  EXPECT_EQ(onLeanRam, OfflineExtractor{}.run(factsOf(leanRam)));
}

}  // namespace
}  // namespace stellar::core
