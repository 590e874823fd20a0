// sim::Callback storage semantics: inline small-buffer, heap spill and
// move-only ownership.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "sim/callback.hpp"

namespace stellar::sim {
namespace {

TEST(Callback, SmallClosuresStayInline) {
  int hits = 0;
  Callback cb{[&hits] { ++hits; }};
  EXPECT_FALSE(cb.spilled());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(Callback, LargeClosuresWithoutArenaUseHeap) {
  std::array<double, 16> payload{};
  payload[0] = 7.0;
  double seen = 0.0;
  Callback cb{[payload, &seen] { seen = payload[0]; }};
  EXPECT_TRUE(cb.spilled());
  cb();
  EXPECT_DOUBLE_EQ(seen, 7.0);
}

TEST(Callback, MoveTransfersOwnership) {
  int hits = 0;
  Callback a{[&hits] { ++hits; }};
  Callback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(Callback, DestructionReleasesCapturedState) {
  auto token = std::make_shared<int>(5);
  {
    Callback cb{[token] { (void)*token; }};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, SpilledDestructionReleasesCapturedState) {
  // A spilled closure moves by handing over its heap pointer; the moved-to
  // callback alone owns the captures and releases them once.
  auto token = std::make_shared<int>(5);
  std::array<double, 16> padding{};
  {
    Callback cb{[token, padding] { (void)*token; (void)padding; }};
    EXPECT_TRUE(cb.spilled());
    Callback moved = std::move(cb);
    EXPECT_TRUE(moved.spilled());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace stellar::sim
