// sim::Callback storage semantics: inline small-buffer, heap spill, and
// in-place filling (a callback is neither copied nor moved).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>

#include "sim/callback.hpp"

namespace stellar::sim {
namespace {

static_assert(!std::is_copy_constructible_v<Callback> &&
              !std::is_copy_assignable_v<Callback>);
static_assert(!std::is_move_constructible_v<Callback> &&
              !std::is_move_assignable_v<Callback>);

TEST(Callback, SmallClosuresStayInline) {
  int hits = 0;
  const auto fn = [&hits] { ++hits; };
  static_assert(Callback::storesInline<decltype(fn)>);
  Callback cb;
  cb.assign(fn);
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(Callback, LargeClosuresWithoutArenaUseHeap) {
  std::array<double, 16> payload{};
  payload[0] = 7.0;
  double seen = 0.0;
  const auto fn = [payload, &seen] { seen = payload[0]; };
  static_assert(!Callback::storesInline<decltype(fn)>);
  Callback cb;
  cb.assign(fn);
  cb();
  EXPECT_DOUBLE_EQ(seen, 7.0);
}

TEST(Callback, DestructionReleasesCapturedState) {
  auto token = std::make_shared<int>(5);
  {
    Callback cb;
    cb.assign([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, SpilledDestructionReleasesCapturedState) {
  // A spilled closure lives behind a heap pointer in the buffer; destroying
  // the callback deletes it and releases the captures once.
  auto token = std::make_shared<int>(5);
  std::array<double, 16> padding{};
  {
    Callback cb;
    cb.assign([token, padding] { (void)*token; (void)padding; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, AssignReplacesAndResetEmpties) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  Callback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  cb.assign([first] { (void)*first; });
  cb.assign([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);  // the replaced closure is destroyed
  EXPECT_EQ(second.use_count(), 2);
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_EQ(second.use_count(), 1);
}

}  // namespace
}  // namespace stellar::sim
