// PfsConfig: name-based access, JSON round-trip, bounds (including the
// dependent ranges the paper's expression mechanism exists for).
#include <gtest/gtest.h>

#include "pfs/params.hpp"

namespace stellar::pfs {
namespace {

TEST(Params, ThirteenTunableNames) {
  EXPECT_EQ(PfsConfig::tunableNames().size(), 13u);
}

TEST(Params, GetSetByName) {
  PfsConfig cfg;
  EXPECT_TRUE(cfg.set("osc.max_rpcs_in_flight", 64));
  EXPECT_EQ(cfg.osc_max_rpcs_in_flight, 64);
  EXPECT_EQ(cfg.get("osc.max_rpcs_in_flight"), 64);
  EXPECT_FALSE(cfg.set("bogus.parameter", 1));
  EXPECT_EQ(cfg.get("bogus.parameter"), std::nullopt);
}

TEST(Params, EveryTunableNameRoundTrips) {
  PfsConfig cfg;
  std::int64_t v = 2;
  for (const auto& name : PfsConfig::tunableNames()) {
    ASSERT_TRUE(cfg.set(name, v)) << name;
    EXPECT_EQ(cfg.get(name), v) << name;
    ++v;
  }
}

TEST(Params, JsonRoundTrip) {
  PfsConfig cfg;
  cfg.stripe_count = -1;
  cfg.stripe_size = 16 << 20;
  cfg.osc_checksums = true;
  const auto json = cfg.toJson();
  const PfsConfig back = PfsConfig::fromJson(json);
  EXPECT_EQ(back, cfg);
}

TEST(Params, FromJsonRejectsUnknownKeys) {
  auto json = util::Json::makeObject();
  json.set("not.a.param", util::Json{1});
  EXPECT_THROW((void)PfsConfig::fromJson(json), util::JsonError);
  // A knob value no integer holds is a corrupt record too, not a wrapped
  // stripe count.
  const auto stripes = [](const char* text) {
    return PfsConfig::fromJson(util::Json::parse(text)).stripe_count;
  };
  EXPECT_THROW((void)stripes(R"({"lov.stripe_count":1e300})"), util::JsonError);
  EXPECT_THROW((void)stripes(R"({"lov.stripe_count":-1e300})"), util::JsonError);
  // Integers parse as before; a fraction truncates like every integer field.
  EXPECT_EQ(stripes(R"({"lov.stripe_count":-1})"), -1);
  EXPECT_EQ(stripes(R"({"lov.stripe_count":2.5})"), 2);
}

TEST(Params, DependentBoundsFollowOtherValues) {
  BoundsContext ctx;
  PfsConfig cfg;
  cfg.llite_max_read_ahead_mb = 100;
  auto bounds = paramBounds("llite.max_read_ahead_per_file_mb", cfg, ctx);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->max, 50);

  cfg.mdc_max_rpcs_in_flight = 10;
  bounds = paramBounds("mdc.max_mod_rpcs_in_flight", cfg, ctx);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->max, 9);
}

TEST(Params, ReadAheadBoundDependsOnClientRam) {
  PfsConfig cfg;
  BoundsContext ctx;
  ctx.clientRamMb = 1024;
  const auto bounds = paramBounds("llite.max_read_ahead_mb", cfg, ctx);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->max, 512);
}

TEST(Params, ValidateFlagsViolations) {
  BoundsContext ctx;
  PfsConfig cfg;
  cfg.osc_max_rpcs_in_flight = 0;
  cfg.llite_max_read_ahead_per_file_mb = 1024;  // > half of 64
  const auto violations = validateConfig(cfg, ctx);
  EXPECT_EQ(violations.size(), 2u);
}

TEST(Params, ValidateRejectsStripeCountZero) {
  BoundsContext ctx;
  PfsConfig cfg;
  cfg.stripe_count = 0;
  EXPECT_FALSE(validateConfig(cfg, ctx).empty());
}

TEST(Params, ClampRepairsOutOfRangeValues) {
  BoundsContext ctx;
  PfsConfig cfg;
  cfg.stripe_count = 99;
  cfg.osc_max_pages_per_rpc = 1;
  cfg.llite_max_read_ahead_mb = 64;
  cfg.llite_max_read_ahead_per_file_mb = 512;
  const PfsConfig fixed = clampConfig(cfg, ctx);
  EXPECT_TRUE(validateConfig(fixed, ctx).empty());
  EXPECT_EQ(fixed.stripe_count, ctx.ostCount);
  EXPECT_EQ(fixed.osc_max_pages_per_rpc, 16);
  EXPECT_EQ(fixed.llite_max_read_ahead_per_file_mb, 32);
}

TEST(Params, DefaultConfigIsValid) {
  EXPECT_TRUE(validateConfig(PfsConfig{}, BoundsContext{}).empty());
}

TEST(Params, DiffAgainstReportsChanges) {
  PfsConfig base;
  PfsConfig changed = base;
  changed.stripe_count = -1;
  changed.osc_max_dirty_mb = 256;
  const std::string diff = changed.diffAgainst(base);
  EXPECT_NE(diff.find("lov.stripe_count: 1 -> -1"), std::string::npos);
  EXPECT_NE(diff.find("osc.max_dirty_mb: 32 -> 256"), std::string::npos);
  EXPECT_TRUE(base.diffAgainst(base).empty());
}

}  // namespace
}  // namespace stellar::pfs
