// Unit tests for the client-side cache state machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "pfs/client_cache.hpp"
#include "pfs/readahead.hpp"

namespace stellar::pfs {
namespace {

// ----------------------------------------------------------- DirtyTracker

/// The single-lane reference for DirtyBank: one (client node, OST) pair's
/// write-back budget, written for clarity rather than speed. The
/// differential test below replays one op trace against both.
class DirtyTracker {
 public:
  explicit DirtyTracker(std::uint64_t budgetBytes) : budget_(budgetBytes) {}

  [[nodiscard]] std::uint64_t dirtyBytes() const noexcept { return dirty_; }
  [[nodiscard]] std::uint64_t freeBytes() const noexcept {
    return dirty_ >= budget_ ? 0 : budget_ - dirty_;
  }
  [[nodiscard]] std::size_t waiterCount() const noexcept { return waiters_.size(); }
  [[nodiscard]] std::uint64_t peakDirtyBytes() const noexcept { return peakDirty_; }
  [[nodiscard]] std::uint64_t maxReservationBytes() const noexcept {
    return maxReservation_;
  }

  /// Reserves `bytes` when they fit and nobody waits. A request larger than
  /// the whole budget is admitted only when the tracker is empty.
  [[nodiscard]] bool tryReserve(std::uint64_t bytes) {
    const bool fits = bytes > budget_ ? dirty_ == 0 : dirty_ + bytes <= budget_;
    if (!fits || !waiters_.empty()) {
      return false;
    }
    charge(bytes);
    return true;
  }

  void waitForSpace(std::uint64_t bytes, RankId rank) {
    waiters_.push_back(Waiter{bytes, rank});
  }

  /// Returns `bytes` of budget and admits waiters FIFO while they fit;
  /// returns the admitted ranks in order.
  std::vector<RankId> release(std::uint64_t bytes) {
    dirty_ = bytes >= dirty_ ? 0 : dirty_ - bytes;
    std::vector<RankId> admitted;
    while (!waiters_.empty()) {
      const Waiter& head = waiters_.front();
      const bool oversized = head.bytes > budget_;
      if (oversized ? dirty_ != 0 : dirty_ + head.bytes > budget_) {
        break;
      }
      charge(head.bytes);
      admitted.push_back(head.rank);
      waiters_.pop_front();
    }
    return admitted;
  }

 private:
  struct Waiter {
    std::uint64_t bytes;
    RankId rank;
  };

  void charge(std::uint64_t bytes) noexcept {
    dirty_ += bytes;
    maxReservation_ = std::max(maxReservation_, bytes);
    peakDirty_ = std::max(peakDirty_, dirty_);
  }

  std::uint64_t budget_;
  std::uint64_t dirty_ = 0;
  std::uint64_t peakDirty_ = 0;
  std::uint64_t maxReservation_ = 0;
  std::deque<Waiter> waiters_;
};

TEST(DirtyTracker, ReservesWithinBudget) {
  DirtyTracker d{100};
  EXPECT_TRUE(d.tryReserve(60));
  EXPECT_EQ(d.dirtyBytes(), 60u);
  EXPECT_FALSE(d.tryReserve(60));
  EXPECT_TRUE(d.tryReserve(40));
  EXPECT_EQ(d.freeBytes(), 0u);
}

TEST(DirtyTracker, ReleaseWakesWaitersFifo) {
  DirtyTracker d{100};
  ASSERT_TRUE(d.tryReserve(100));
  d.waitForSpace(50, 1);
  d.waitForSpace(50, 2);
  EXPECT_TRUE(d.release(40).empty());  // only 40 free: nobody admitted
  // 100 free: both admitted in order.
  EXPECT_EQ(d.release(60), (std::vector<RankId>{1, 2}));
  EXPECT_EQ(d.dirtyBytes(), 100u);  // both reservations charged
}

TEST(DirtyTracker, OversizedWriteAdmittedWhenEmpty) {
  DirtyTracker d{10};
  EXPECT_TRUE(d.tryReserve(50));  // empty tracker: oversized allowed
  EXPECT_FALSE(d.tryReserve(1));
  d.waitForSpace(50, 7);
  // The oversized waiter is admitted once the tracker drains.
  EXPECT_EQ(d.release(50), (std::vector<RankId>{7}));
}

TEST(DirtyTracker, NewRequestsQueueBehindWaiters) {
  DirtyTracker d{100};
  ASSERT_TRUE(d.tryReserve(90));
  d.waitForSpace(20, 7);
  // 10 bytes are free, but FIFO fairness blocks late arrivals.
  EXPECT_FALSE(d.tryReserve(5));
  EXPECT_EQ(d.release(90), (std::vector<RankId>{7}));
}

// -------------------------------------------------------------- DirtyBank

TEST(DirtyBank, LanesShareBudgetScalarButNotState) {
  DirtyBank bank;
  bank.configure(/*lanes=*/3, /*budgetBytes=*/100);
  EXPECT_TRUE(bank.tryReserve(0, 100));
  // Lane 0 full; lane 2 untouched.
  EXPECT_FALSE(bank.tryReserve(0, 1));
  EXPECT_TRUE(bank.tryReserve(2, 100));
  EXPECT_EQ(bank.dirtyBytes(0), 100u);
  EXPECT_EQ(bank.dirtyBytes(1), 0u);
  EXPECT_EQ(bank.dirtyBytes(2), 100u);
  EXPECT_TRUE(bank.release(0, 100).empty());
  EXPECT_EQ(bank.dirtyBytes(0), 0u);
  EXPECT_EQ(bank.peakDirtyBytes(0), 100u);
  EXPECT_EQ(bank.maxReservationBytes(2), 100u);
}

TEST(DirtyBank, ReleaseOnOneLaneNeverWakesAnother) {
  DirtyBank bank;
  bank.configure(2, 100);
  ASSERT_TRUE(bank.tryReserve(0, 100));
  ASSERT_TRUE(bank.tryReserve(1, 100));
  bank.waitForSpace(1, 50, 4);
  EXPECT_TRUE(bank.release(0, 100).empty());
  EXPECT_EQ(bank.waiterCount(1), 1u);
  const std::span<const RankId> admitted = bank.release(1, 100);
  EXPECT_EQ(std::vector<RankId>(admitted.begin(), admitted.end()),
            (std::vector<RankId>{4}));
  EXPECT_EQ(bank.waiterCount(1), 0u);
  EXPECT_EQ(bank.dirtyBytes(1), 50u);  // the admitted reservation is charged
}

TEST(DirtyBank, DifferentialAgainstScalarTrackerOnEveryLane) {
  // The bank is the SoA form of N independent DirtyTrackers. Replay one
  // deterministic pseudo-random op trace against both representations and
  // require identical admissions, wake order, and accounting per lane.
  constexpr std::size_t kLanes = 3;
  constexpr std::uint64_t kBudget = 128;
  DirtyBank bank;
  bank.configure(kLanes, kBudget);
  std::vector<DirtyTracker> scalars(kLanes, DirtyTracker{kBudget});
  std::vector<std::vector<RankId>> bankWakes(kLanes);
  std::vector<std::vector<RankId>> scalarWakes(kLanes);
  std::vector<std::vector<std::uint64_t>> outstanding(kLanes);  // for releases
  std::vector<std::uint64_t> waiterBytes;  // indexed by waiter id

  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // fixed-seed xorshift trace
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int step = 0; step < 400; ++step) {
    const std::size_t lane = next() % kLanes;
    const std::uint64_t bytes = 1 + next() % 160;  // sometimes oversized
    switch (next() % 3) {
      case 0: {
        const bool a = bank.tryReserve(lane, bytes);
        const bool b = scalars[lane].tryReserve(bytes);
        ASSERT_EQ(a, b) << "step " << step;
        if (a) {
          outstanding[lane].push_back(bytes);
        }
        break;
      }
      case 1: {
        const auto id = static_cast<RankId>(waiterBytes.size());
        waiterBytes.push_back(bytes);
        bank.waitForSpace(lane, bytes, id);
        scalars[lane].waitForSpace(bytes, id);
        break;
      }
      default: {
        if (!outstanding[lane].empty()) {
          const std::uint64_t freed = outstanding[lane].back();
          outstanding[lane].pop_back();
          for (const RankId id : bank.release(lane, freed)) {
            bankWakes[lane].push_back(id);
            outstanding[lane].push_back(waiterBytes[id]);
          }
          const std::vector<RankId> admitted = scalars[lane].release(freed);
          scalarWakes[lane].insert(scalarWakes[lane].end(), admitted.begin(),
                                   admitted.end());
        }
        break;
      }
    }
    ASSERT_EQ(bank.dirtyBytes(lane), scalars[lane].dirtyBytes()) << "step " << step;
    ASSERT_EQ(bank.waiterCount(lane), scalars[lane].waiterCount()) << "step " << step;
  }
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(bankWakes[lane], scalarWakes[lane]) << "lane " << lane;
    EXPECT_EQ(bank.peakDirtyBytes(lane), scalars[lane].peakDirtyBytes());
    EXPECT_EQ(bank.maxReservationBytes(lane), scalars[lane].maxReservationBytes());
  }
}

// --------------------------------------------------------- ReadAheadCache

TEST(ReadAheadCache, QueryReportsMissingRanges) {
  ReadAheadCache ra{1 << 20};
  auto cov = ra.query(1, 0, 1000);
  ASSERT_EQ(cov.missing.size(), 1u);
  EXPECT_EQ(cov.missing[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1000}));
  EXPECT_TRUE(cov.pending.empty());
}

TEST(ReadAheadCache, PendingChunksReportedUntilReady) {
  ReadAheadCache ra{1 << 20};
  CacheChunk* chunk = ra.insertPending(1, 0, 512);
  auto cov = ra.query(1, 0, 512);
  EXPECT_TRUE(cov.missing.empty());
  ASSERT_EQ(cov.pending.size(), 1u);
  ra.markReady(chunk);
  cov = ra.query(1, 0, 512);
  EXPECT_TRUE(cov.fullyReady());
}

TEST(ReadAheadCache, PartialCoverageSplitsMissing) {
  ReadAheadCache ra{1 << 20};
  ra.markReady(ra.insertPending(7, 100, 200));
  ra.markReady(ra.insertPending(7, 300, 400));
  const auto cov = ra.query(7, 0, 500);
  ASSERT_EQ(cov.missing.size(), 3u);
  EXPECT_EQ(cov.missing[0], (std::pair<std::uint64_t, std::uint64_t>{0, 100}));
  EXPECT_EQ(cov.missing[1], (std::pair<std::uint64_t, std::uint64_t>{200, 300}));
  EXPECT_EQ(cov.missing[2], (std::pair<std::uint64_t, std::uint64_t>{400, 500}));
}

TEST(ReadAheadCache, ConsumeRefundsBudgetAndErasesChunks) {
  ReadAheadCache ra{1000};
  CacheChunk* chunk = ra.insertPending(1, 0, 600);
  EXPECT_EQ(ra.outstanding(), 600u);
  EXPECT_EQ(ra.freeBudget(), 400u);
  ra.markReady(chunk);
  ra.consume(1, 0, 300);
  EXPECT_EQ(ra.outstanding(), 300u);
  EXPECT_EQ(ra.chunkCount(1), 1u);  // partially consumed, still present
  ra.consume(1, 300, 600);
  EXPECT_EQ(ra.outstanding(), 0u);
  EXPECT_EQ(ra.chunkCount(1), 0u);
}

TEST(ReadAheadCache, DropFileRefundsAndReturnsOrphans) {
  ReadAheadCache ra{1000};
  CacheChunk* first = ra.insertPending(1, 0, 500);
  CacheChunk* second = ra.insertPending(1, 500, 700);
  first->waiters = {3, 5};
  second->waiters = {3};
  // One orphan per wait, in chunk order.
  EXPECT_EQ(ra.dropFile(1), (std::vector<RankId>{3, 5, 3}));
  EXPECT_EQ(ra.outstanding(), 0u);
  EXPECT_EQ(ra.discardedBytes(), 700u);
  EXPECT_EQ(ra.find(1, 0), nullptr);
}

TEST(ReadAheadCache, FindLocatesChunkByBegin) {
  ReadAheadCache ra{1000};
  ra.insertPending(3, 128, 256);
  EXPECT_NE(ra.find(3, 128), nullptr);
  EXPECT_EQ(ra.find(3, 0), nullptr);
  EXPECT_EQ(ra.find(4, 128), nullptr);
}

// ----------------------------------------------------------------- LockLru

/// The list+map reference for LockLru: the same capacity, TTL and eviction
/// semantics over a std::list (front = most recent) indexed by a hash map,
/// written for clarity rather than speed. The differential test below
/// replays random op streams against both.
class ListLockLru {
 public:
  ListLockLru(std::size_t capacity, double maxAge) { configure(capacity, maxAge); }

  void configure(std::size_t capacity, double maxAge) {
    capacity_ = capacity == 0 ? LockLru::kDynamicCapacity : capacity;
    maxAge_ = maxAge;
    while (order_.size() > capacity_) {
      evict(order_.back().file);
    }
  }

  void setEvictionHandler(std::function<void(FileId)> handler) {
    onEvict_ = std::move(handler);
  }

  [[nodiscard]] bool touch(FileId file, double now) {
    const auto it = index_.find(file);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    if (now - it->second->acquiredAt > maxAge_) {
      evict(file);
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    it->second->acquiredAt = now;
    ++hits_;
    return true;
  }

  [[nodiscard]] bool contains(FileId file, double now) const {
    const auto it = index_.find(file);
    return it != index_.end() && now - it->second->acquiredAt <= maxAge_;
  }

  void insert(FileId file, double now) {
    const auto it = index_.find(file);
    if (it != index_.end()) {
      it->second->acquiredAt = now;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(Entry{file, now});
    index_[file] = order_.begin();
    ++inserts_;
    while (order_.size() > capacity_) {
      evict(order_.back().file);
    }
  }

  void erase(FileId file) { evict(file); }

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    FileId file;
    double acquiredAt;
  };

  void evict(FileId file) {
    const auto it = index_.find(file);
    if (it == index_.end()) {
      return;
    }
    order_.erase(it->second);
    index_.erase(it);
    ++evictions_;
    if (onEvict_) {
      onEvict_(file);
    }
  }

  std::size_t capacity_ = 0;
  double maxAge_ = 0.0;
  std::function<void(FileId)> onEvict_;
  std::list<Entry> order_;
  std::unordered_map<FileId, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(LockLru, HitRefreshesMissInsertsNothing) {
  LockLru lru{4, 100.0};
  EXPECT_FALSE(lru.touch(1, 0.0));
  lru.insert(1, 0.0);
  EXPECT_TRUE(lru.touch(1, 1.0));
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
}

TEST(LockLru, EvictsLeastRecentlyUsed) {
  LockLru lru{2, 1000.0};
  lru.insert(1, 0.0);
  lru.insert(2, 0.0);
  EXPECT_TRUE(lru.touch(1, 1.0));  // 1 becomes MRU
  lru.insert(3, 2.0);              // evicts 2
  EXPECT_TRUE(lru.touch(1, 3.0));
  EXPECT_FALSE(lru.touch(2, 3.0));
  EXPECT_TRUE(lru.touch(3, 3.0));
}

TEST(LockLru, TtlExpiresEntries) {
  LockLru lru{10, 50.0};
  lru.insert(1, 0.0);
  EXPECT_TRUE(lru.touch(1, 49.0));   // refreshed at 49
  EXPECT_TRUE(lru.touch(1, 98.0));   // within 50 of refresh
  EXPECT_FALSE(lru.touch(1, 200.0)); // expired
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LockLru, ZeroCapacitySelectsDynamicSizing) {
  LockLru lru{0, 1000.0};
  EXPECT_EQ(lru.effectiveCapacity(), LockLru::kDynamicCapacity);
  for (FileId f = 0; f < LockLru::kDynamicCapacity + 100; ++f) {
    lru.insert(f, 0.0);
  }
  EXPECT_EQ(lru.size(), LockLru::kDynamicCapacity);
}

TEST(LockLru, EraseRemovesLock) {
  LockLru lru{4, 100.0};
  lru.insert(9, 0.0);
  lru.erase(9);
  EXPECT_FALSE(lru.touch(9, 1.0));
  lru.erase(9);  // idempotent
}

TEST(LockLru, ReconfigureShrinksToCapacity) {
  LockLru lru{8, 100.0};
  for (FileId f = 0; f < 8; ++f) {
    lru.insert(f, 0.0);
  }
  lru.configure(3, 100.0);
  EXPECT_EQ(lru.size(), 3u);
}

TEST(LockLru, MatchesTheListAndMapReferenceOnRandomStreams) {
  // 256 seeded streams of 600 ops over ids 0-63 (ids beyond the slot
  // vector get probed before their first insert), capacities 0 (dynamic)
  // and 1-8, and TTLs short enough that refreshed locks still expire.
  // Every return value, counter and eviction callback must agree.
  constexpr int kStreams = 256;
  constexpr int kOps = 600;
  constexpr double kAges[] = {3.0, 12.0, 1e9};
  for (int stream = 0; stream < kStreams; ++stream) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1);
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const std::size_t capacity = next() % 9;
    const double maxAge = kAges[next() % 3];
    LockLru lru{capacity, maxAge};
    ListLockLru ref{capacity, maxAge};
    std::vector<FileId> evicted;
    std::vector<FileId> refEvicted;
    lru.setEvictionHandler([&evicted](FileId f) { evicted.push_back(f); });
    ref.setEvictionHandler([&refEvicted](FileId f) { refEvicted.push_back(f); });

    double now = 0.0;
    for (int step = 0; step < kOps; ++step) {
      SCOPED_TRACE(::testing::Message() << "stream " << stream << " step " << step);
      now += static_cast<double>(next() % 4);
      const auto file = static_cast<FileId>(next() % 64);
      const std::uint64_t op = next() % 16;
      if (op < 5) {
        lru.insert(file, now);
        ref.insert(file, now);
      } else if (op < 10) {
        ASSERT_EQ(lru.touch(file, now), ref.touch(file, now));
      } else if (op < 13) {
        ASSERT_EQ(lru.contains(file, now), ref.contains(file, now));
      } else if (op < 15) {
        lru.erase(file);
        ref.erase(file);
      } else {
        const std::size_t cap = next() % 9;
        const double age = kAges[next() % 3];
        lru.configure(cap, age);
        ref.configure(cap, age);
      }
      ASSERT_EQ(lru.size(), ref.size());
      ASSERT_EQ(lru.hits(), ref.hits());
      ASSERT_EQ(lru.misses(), ref.misses());
      ASSERT_EQ(lru.inserts(), ref.inserts());
      ASSERT_EQ(lru.evictions(), ref.evictions());
      ASSERT_EQ(evicted.size(), refEvicted.size());
      ASSERT_EQ(lru.inserts(), lru.evictions() + lru.size());
    }
    ASSERT_EQ(evicted, refEvicted) << "stream " << stream;
  }
}

// ------------------------------------------------------------ ReadaWindow

namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

ReadaheadKnobs defaultKnobs() {
  ReadaheadKnobs k;
  k.clientBudgetBytes = 64 * kMiB;
  k.perFileBytes = 32 * kMiB;
  k.wholeFileBytes = 2 * kMiB;
  k.alignBytes = kMiB;
  return k;
}

}  // namespace

TEST(ReadaWindow, OpensAtInitialSizeWithAlignedEdge) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  // First read of 256 KiB at offset 0 on a 16 MiB file.
  const ReadaDecision d = advanceWindow(w, k, /*sequential=*/false,
                                        /*firstRead=*/true,
                                        /*sizeKnownLocally=*/true, 0,
                                        256 * kKiB, 16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::Opened);
  EXPECT_EQ(w.length, ReadaWindow::kInitialBytes);
  EXPECT_FALSE(w.wholeMode);
  EXPECT_EQ(d.prefetchBegin, 0u);
  // readEnd + window = 512 KiB, rounded up to the 1 MiB RPC edge.
  EXPECT_EQ(d.prefetchEnd, kMiB);
}

TEST(ReadaWindow, DoublesOnSequentialHitsUpToPerFileCap) {
  ReadaWindow w;
  ReadaheadKnobs k = defaultKnobs();
  k.perFileBytes = kMiB;
  (void)advanceWindow(w, k, false, true, true, 0, 256 * kKiB, 16 * kMiB);
  std::uint64_t readEnd = 512 * kKiB;
  ReadaDecision d =
      advanceWindow(w, k, true, false, true, 256 * kKiB, readEnd, 16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::Grown);
  EXPECT_EQ(w.length, 512 * kKiB);
  d = advanceWindow(w, k, true, false, true, readEnd, readEnd + 256 * kKiB,
                    16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::Grown);
  EXPECT_EQ(w.length, kMiB);  // saturated at the per-file cap
  // Saturated growth is no longer a Grown event, but still prefetches.
  d = advanceWindow(w, k, true, false, true, readEnd + 256 * kKiB,
                    readEnd + 512 * kKiB, 16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::None);
  EXPECT_EQ(w.length, kMiB);
  EXPECT_TRUE(d.wantsPrefetch());
}

TEST(ReadaWindow, MissResetsWindowAndSkipsPrefetch) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  (void)advanceWindow(w, k, false, true, true, 0, 256 * kKiB, 16 * kMiB);
  (void)advanceWindow(w, k, true, false, true, 256 * kKiB, 512 * kKiB,
                      16 * kMiB);
  ASSERT_GT(w.length, ReadaWindow::kInitialBytes);
  const ReadaDecision d =
      advanceWindow(w, k, false, false, true, 8 * kMiB, 8 * kMiB + 256 * kKiB,
                    16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::Reset);
  EXPECT_EQ(w.length, ReadaWindow::kInitialBytes);
  EXPECT_FALSE(d.wantsPrefetch());
}

TEST(ReadaWindow, WholeFileModeTriggersAtCutoverAndParks) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  // Exactly at the cutover: whole-file shot covering the file, no rounding.
  ReadaDecision d =
      advanceWindow(w, k, false, true, true, 0, 256 * kKiB, 2 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::Opened);
  EXPECT_TRUE(w.wholeMode);
  EXPECT_EQ(d.prefetchEnd, 2 * kMiB);
  // Parked: later sequential reads neither grow nor prefetch.
  d = advanceWindow(w, k, true, false, true, 256 * kKiB, 512 * kKiB, 2 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::None);
  EXPECT_FALSE(d.wantsPrefetch());
}

TEST(ReadaWindow, OneByteOverCutoverStaysWindowed) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  const ReadaDecision d =
      advanceWindow(w, k, false, true, true, 0, 256 * kKiB, 2 * kMiB + 1);
  EXPECT_EQ(d.event, ReadaEvent::Opened);
  EXPECT_FALSE(w.wholeMode);
  EXPECT_EQ(d.prefetchEnd, kMiB);  // windowed ramp, not the whole file
}

TEST(ReadaWindow, WholeFileModeRequiresLocallyKnownSize) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  // Without a cached lock (statahead/open would prime one) the client
  // cannot trust the size: fall back to the windowed ramp.
  const ReadaDecision d =
      advanceWindow(w, k, false, true, /*sizeKnownLocally=*/false, 0,
                    256 * kKiB, 2 * kMiB);
  EXPECT_FALSE(w.wholeMode);
  EXPECT_EQ(w.length, ReadaWindow::kInitialBytes);
  EXPECT_EQ(d.prefetchEnd, kMiB);
}

TEST(ReadaWindow, SpeculationClampsAtKnownEof) {
  ReadaWindow w;
  const ReadaheadKnobs k = defaultKnobs();
  // First read of the final chunk: nothing beyond EOF to speculate on.
  const ReadaDecision d = advanceWindow(w, k, false, true, true,
                                        16 * kMiB - 256 * kKiB, 16 * kMiB,
                                        16 * kMiB);
  EXPECT_EQ(d.prefetchEnd, 16 * kMiB);
}

TEST(ReadaWindow, DisabledKnobsNeverPrefetch) {
  ReadaWindow w;
  ReadaheadKnobs k = defaultKnobs();
  k.clientBudgetBytes = 0;
  const ReadaDecision d =
      advanceWindow(w, k, false, true, true, 0, 256 * kKiB, 16 * kMiB);
  EXPECT_EQ(d.event, ReadaEvent::None);
  EXPECT_FALSE(d.wantsPrefetch());
  EXPECT_EQ(w.length, 0u);
}

// --------------------------------------------------- ReadAheadCache totals

TEST(ReadAheadCache, LifetimeTotalsObeyConservation) {
  ReadAheadCache ra{10 * kMiB};
  const auto conserved = [&ra] {
    return ra.prefetchedBytes() ==
           ra.consumedBytes() + ra.discardedBytes() + ra.residentBytes();
  };

  CacheChunk* a = ra.insertPending(1, 0, kMiB);
  CacheChunk* b = ra.insertPending(1, kMiB, 2 * kMiB);
  (void)ra.insertPending(2, 0, 512 * kKiB);
  EXPECT_EQ(ra.prefetchedBytes(), 2 * kMiB + 512 * kKiB);
  EXPECT_EQ(ra.residentBytes(), ra.prefetchedBytes());
  EXPECT_TRUE(conserved());

  ra.markReady(a);
  ra.markReady(b);
  ra.consume(1, 0, kMiB + 256 * kKiB);  // all of a, a quarter of b
  EXPECT_EQ(ra.consumedBytes(), kMiB + 256 * kKiB);
  EXPECT_TRUE(conserved());

  // Re-consuming the same range is idempotent (high-water-mark math).
  ra.consume(1, kMiB, kMiB + 256 * kKiB);
  EXPECT_EQ(ra.consumedBytes(), kMiB + 256 * kKiB);
  EXPECT_TRUE(conserved());

  // Dropping file 1 discards b's unconsumed remainder; file 2's pending
  // chunk is untouched and stays resident.
  (void)ra.dropFile(1);
  EXPECT_EQ(ra.discardedBytes(), 768 * kKiB);
  EXPECT_EQ(ra.residentBytes(), 512 * kKiB);
  EXPECT_TRUE(conserved());

  (void)ra.dropFile(2);
  EXPECT_EQ(ra.residentBytes(), 0u);
  EXPECT_TRUE(conserved());
}

// ---------------------------------------------------------- WritebackBank

TEST(WritebackBank, DrainCoalescesContiguousRunsIntoRpcCuts) {
  WritebackBank wb;
  wb.configure(1);
  // Out-of-order contiguous segments of one file plus a stray second file.
  wb.append(0, /*file=*/5, 2 * kMiB, kMiB);
  wb.append(0, 5, 0, kMiB);
  wb.append(0, 5, kMiB, kMiB);
  wb.append(0, 9, 0, 256 * kKiB);
  EXPECT_EQ(wb.pendingBytes(0), 3 * kMiB + 256 * kKiB);

  std::vector<std::tuple<FileId, std::uint64_t, std::uint64_t>> rpcs;
  const std::uint64_t drained =
      wb.drain(0, /*fileOnly=*/false, 0, /*maxRpcBytes=*/2 * kMiB,
               [&rpcs](FileId f, std::uint64_t off, std::uint64_t len) {
                 rpcs.emplace_back(f, off, len);
               });
  EXPECT_EQ(drained, 3 * kMiB + 256 * kKiB);
  EXPECT_EQ(wb.pendingBytes(0), 0u);
  // File 5's three segments coalesce into one 3 MiB run cut at 2 MiB.
  ASSERT_EQ(rpcs.size(), 3u);
  EXPECT_EQ(rpcs[0], std::make_tuple(FileId{5}, std::uint64_t{0}, 2 * kMiB));
  EXPECT_EQ(rpcs[1], std::make_tuple(FileId{5}, 2 * kMiB, kMiB));
  EXPECT_EQ(rpcs[2], std::make_tuple(FileId{9}, std::uint64_t{0}, 256 * kKiB));
}

TEST(WritebackBank, FileOnlyDrainLeavesOtherFilesQueued) {
  WritebackBank wb;
  wb.configure(2);
  wb.append(1, 5, 0, kMiB);
  wb.append(1, 9, 0, 512 * kKiB);
  wb.append(1, 5, kMiB, kMiB);

  std::vector<FileId> drainedFiles;
  const std::uint64_t drained =
      wb.drain(1, /*fileOnly=*/true, 5, 4 * kMiB,
               [&drainedFiles](FileId f, std::uint64_t, std::uint64_t) {
                 drainedFiles.push_back(f);
               });
  EXPECT_EQ(drained, 2 * kMiB);
  EXPECT_EQ(drainedFiles, (std::vector<FileId>{5}));  // one coalesced RPC
  EXPECT_EQ(wb.pendingBytes(1), 512 * kKiB);

  // The stray file is still there and drains later.
  drainedFiles.clear();
  (void)wb.drain(1, false, 0, 4 * kMiB,
                 [&drainedFiles](FileId f, std::uint64_t, std::uint64_t) {
                   drainedFiles.push_back(f);
                 });
  EXPECT_EQ(drainedFiles, (std::vector<FileId>{9}));
}

TEST(WritebackBank, DiscardFileDropsOnlyThatFile) {
  WritebackBank wb;
  wb.configure(1);
  wb.append(0, 5, 0, kMiB);
  wb.append(0, 9, 0, 512 * kKiB);
  EXPECT_EQ(wb.discardFile(0, 5), kMiB);
  EXPECT_EQ(wb.pendingBytes(0), 512 * kKiB);
  EXPECT_EQ(wb.discardFile(0, 5), 0u);
}

}  // namespace
}  // namespace stellar::pfs
