// Client-side cache state machines, factored out of the client model so
// they can be unit-tested in isolation:
//
//  - DirtyBank     : per client-OST write-back budgets (osc.max_dirty_mb)
//  - ReadAheadCache: per-client prefetch store with a global budget
//                    (llite.max_read_ahead_mb) and chunk readiness/waiters
//  - LockLru       : per-client DLM lock cache (ldlm.lru_size/lru_max_age)
//
// These run in *simulated* time. Only a blocked rank ever waits on them,
// so their waiter queues hold rank ids, and the owner (pfs/client.cpp)
// wakes those ranks when a simulated event releases them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "pfs/job.hpp"

namespace stellar::pfs {

/// Write-back budgets for every (client node, OST) pair of a runtime,
/// struct-of-arrays over dense lane ids (lane = node * totalOsts + ost).
/// Writers consume a lane's budget synchronously; completed flush RPCs
/// return it and admit that lane's waiters FIFO while their reservations
/// fit. A write larger than the whole budget is admitted only when its lane
/// is empty, so it cannot deadlock. The hot counters are flat vectors and
/// waiter queues only materialize for backlogged lanes, so a 1000-node x
/// 5000-OST runtime costs bytes per lane, not a heap object. The unit tests
/// pin every lane to a scalar single-lane reference (tests/pfs/test_caches.cpp).
class DirtyBank {
 public:
  DirtyBank() = default;

  /// Sizes the bank to `lanes` lanes sharing one per-lane budget.
  void configure(std::size_t lanes, std::uint64_t budgetBytes);

  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t laneCount() const noexcept { return dirty_.size(); }
  [[nodiscard]] std::uint64_t dirtyBytes(std::size_t lane) const { return dirty_[lane]; }
  [[nodiscard]] std::uint64_t peakDirtyBytes(std::size_t lane) const { return peak_[lane]; }
  [[nodiscard]] std::uint64_t maxReservationBytes(std::size_t lane) const {
    return maxReservation_[lane];
  }
  [[nodiscard]] std::size_t waiterCount(std::size_t lane) const;

  [[nodiscard]] bool tryReserve(std::size_t lane, std::uint64_t bytes);
  /// Queues `rank` on the lane until `bytes` fit.
  void waitForSpace(std::size_t lane, std::uint64_t bytes, RankId rank);
  /// Returns `bytes` to the lane, then charges the reservations of the
  /// waiters that now fit and dequeues them, FIFO. Returns the admitted
  /// ranks in admission order; the span is valid until the next release.
  [[nodiscard]] std::span<const RankId> release(std::size_t lane, std::uint64_t bytes);

 private:
  struct Waiter {
    std::uint64_t bytes;
    RankId rank;
  };

  void noteReserve(std::size_t lane, std::uint64_t bytes) noexcept {
    if (bytes > maxReservation_[lane]) {
      maxReservation_[lane] = bytes;
    }
    if (dirty_[lane] > peak_[lane]) {
      peak_[lane] = dirty_[lane];
    }
  }

  std::uint64_t budget_ = 0;
  std::vector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> peak_;
  std::vector<std::uint64_t> maxReservation_;
  /// Waiter queues exist only for backlogged lanes.
  std::unordered_map<std::size_t, std::deque<Waiter>> waiters_;
  std::vector<RankId> admitted_;  ///< release's result, reused across calls
};

/// One prefetched (or in-flight) contiguous range of a file.
struct CacheChunk {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;        ///< exclusive
  std::uint64_t consumed = 0;   ///< bytes of [begin,end) already read back
  bool ready = false;           ///< RPC completed, data present
  std::vector<RankId> waiters;  ///< ranks blocked until the chunk is ready
};

/// Result of a coverage query for a wanted range.
struct Coverage {
  /// Sub-ranges with no chunk at all (must be fetched).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing;
  /// Chunks overlapping the range that are still in flight.
  std::vector<CacheChunk*> pending;
  [[nodiscard]] bool fullyReady() const noexcept {
    return missing.empty() && pending.empty();
  }
};

/// Per-client readahead store. `outstanding` counts prefetched bytes not
/// yet consumed; prefetch admission is bounded by the budget.
///
/// Besides the live budget accounting the cache keeps lifetime totals of
/// every prefetched byte's fate — consumed by a read, discarded with its
/// file, or still resident. The testkit INV-READA law holds the four to an
/// exact conservation equation (prefetched == consumed + discarded +
/// resident), so any drift in the high-water-mark consume math or the drop
/// refunds shows up as a violation instead of a silent budget leak.
class ReadAheadCache {
 public:
  explicit ReadAheadCache(std::uint64_t budgetBytes = 0) : budget_(budgetBytes) {}

  void setBudget(std::uint64_t bytes) noexcept { budget_ = bytes; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return outstanding_; }
  [[nodiscard]] std::uint64_t freeBudget() const noexcept {
    return outstanding_ >= budget_ ? 0 : budget_ - outstanding_;
  }

  /// Lifetime totals for the INV-READA conservation law and pfs.reada.*.
  [[nodiscard]] std::uint64_t prefetchedBytes() const noexcept { return prefetchedTotal_; }
  [[nodiscard]] std::uint64_t consumedBytes() const noexcept { return consumedTotal_; }
  [[nodiscard]] std::uint64_t discardedBytes() const noexcept { return discardedTotal_; }
  /// Bytes still held (ready or in flight) — `outstanding` by another name,
  /// exposed so the conservation law reads naturally at the call site.
  [[nodiscard]] std::uint64_t residentBytes() const noexcept { return outstanding_; }

  /// Coverage of [begin,end) for `file`.
  [[nodiscard]] Coverage query(FileId file, std::uint64_t begin, std::uint64_t end);

  /// Registers an in-flight prefetch chunk; consumes budget. The chunk
  /// must not overlap existing chunks (callers fetch only missing ranges).
  CacheChunk* insertPending(FileId file, std::uint64_t begin, std::uint64_t end);

  /// Marks a chunk ready. The owner wakes the chunk's waiters itself, in
  /// the same event.
  void markReady(CacheChunk* chunk);

  /// Consumes [begin,end): erases fully-consumed chunks, refunds budget.
  void consume(FileId file, std::uint64_t begin, std::uint64_t end);

  /// Drops all chunks of a file (close/unlink); refunds their unconsumed
  /// bytes. Returns the ranks that waited on dropped in-flight chunks, one
  /// entry per wait, so the owner can wake them (treating the data as
  /// unavailable but the wait as over).
  [[nodiscard]] std::vector<RankId> dropFile(FileId file);

  /// Looks up the chunk starting exactly at `begin`, or nullptr. RPC
  /// completions resolve their chunk through this instead of holding a
  /// pointer, so a drop between issue and completion is benign.
  [[nodiscard]] CacheChunk* find(FileId file, std::uint64_t begin);

  [[nodiscard]] std::size_t chunkCount(FileId file) const;

 private:
  using ChunkMap = std::map<std::uint64_t, CacheChunk>;  // key: begin
  std::unordered_map<FileId, ChunkMap> files_;
  std::uint64_t budget_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t prefetchedTotal_ = 0;
  std::uint64_t consumedTotal_ = 0;
  std::uint64_t discardedTotal_ = 0;
};

/// Pending write-back segments for every (client node, OST) lane, factored
/// out of the client model so the coalescing policy is unit-testable and the
/// flush path reuses one scratch buffer instead of allocating per flush.
/// Append is O(1) push_back on a flat per-lane vector; drain sorts the
/// selected segments by (file, object offset), merges contiguous same-file
/// runs, and cuts the merged extents into RPC-sized bulks.
class WritebackBank {
 public:
  struct Segment {
    FileId file = 0;
    std::uint64_t objectOffset = 0;
    std::uint64_t length = 0;
  };

  void configure(std::size_t lanes);

  [[nodiscard]] std::size_t laneCount() const noexcept { return pending_.size(); }
  [[nodiscard]] std::uint64_t pendingBytes(std::size_t lane) const {
    return bytes_[lane];
  }

  void append(std::size_t lane, FileId file, std::uint64_t objectOffset,
              std::uint64_t length);

  /// Removes the lane's pending segments — all of them, or only `onlyFile`'s
  /// when `fileOnly` is set — coalesces, cuts at `maxRpcBytes`, and invokes
  /// `emit(file, objectOffset, bytes)` once per write RPC, in (file, offset)
  /// order. Returns the total bytes drained.
  std::uint64_t drain(std::size_t lane, bool fileOnly, FileId onlyFile,
                      std::uint64_t maxRpcBytes,
                      const std::function<void(FileId, std::uint64_t,
                                               std::uint64_t)>& emit);

  /// Discards a file's pending segments without writing them (unlink).
  /// Returns the bytes dropped.
  std::uint64_t discardFile(std::size_t lane, FileId file);

 private:
  std::vector<std::vector<Segment>> pending_;
  std::vector<std::uint64_t> bytes_;
  std::vector<Segment> scratch_;  ///< drain working set, reused across flushes
};

/// DLM lock LRU with capacity and TTL semantics. Losing a lock (capacity
/// eviction, TTL expiry, or explicit erase) drops the pages it protected;
/// owners observe that through the eviction handler.
///
/// File ids are dense, so the recency list is intrusive: a FileId-indexed
/// slot vector holds each lock's timestamp and its prev/next links, and
/// `head_`/`tail_` name the most and least recent lock. Every operation is
/// O(1) with no hashing and no per-lock allocation. The vector grows only
/// on `insert`, to the largest id inserted: probing an id the LRU never
/// held is a miss that allocates nothing. tests/pfs/test_caches.cpp pins it
/// to a list+map reference on random op streams.
class LockLru {
 public:
  using EvictionHandler = std::function<void(FileId)>;
  /// capacity 0 selects "dynamic" sizing, modeled as kDynamicCapacity
  /// (the server's lock volume shrinks client caches under load; see the
  /// manual module's ldlm chapter).
  static constexpr std::size_t kDynamicCapacity = 2000;

  explicit LockLru(std::size_t capacity = 0, double maxAge = 3900.0);

  void configure(std::size_t capacity, double maxAge);

  /// Invoked with the file id whenever a lock leaves the cache.
  void setEvictionHandler(EvictionHandler handler) { onEvict_ = std::move(handler); }

  /// True if a valid (unexpired) lock for `file` is cached; refreshes its
  /// recency and timestamp on hit. On miss the caller pays the lock RPC
  /// and then calls `insert`.
  [[nodiscard]] bool touch(FileId file, double now);

  /// Non-mutating probe: a valid, unexpired lock is cached. No recency
  /// refresh, no hit/miss accounting, no expiry eviction — the readahead
  /// window machine uses this to ask "does this client know the file size"
  /// (statahead-primed locks make it true) without perturbing lock state.
  [[nodiscard]] bool contains(FileId file, double now) const;

  /// Caches a lock acquired at `now`, evicting LRU entries over capacity.
  void insert(FileId file, double now);

  /// Drops the lock (unlink / revoke).
  void erase(FileId file);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t effectiveCapacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Lock lifecycle balance: inserts() == evictions() + size() always (the
  /// invariant checker's DLM acquire/release law). Refreshing an already
  /// cached lock is not an insert.
  [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  /// One per FileId below slots_.size(); links are meaningful while cached.
  struct Slot {
    double acquiredAt = 0.0;
    FileId prev = kInvalidFile;  ///< toward the front (more recent)
    FileId next = kInvalidFile;  ///< toward the back (less recent)
    bool cached = false;
  };
  static_assert(sizeof(Slot) <= 24);

  [[nodiscard]] bool held(FileId file) const noexcept {
    return file < slots_.size() && slots_[file].cached;
  }
  void unlink(FileId file) noexcept;
  void linkFront(FileId file) noexcept;
  void moveToFront(FileId file) noexcept;
  void evict(FileId file);

  std::size_t capacity_;
  double maxAge_;
  EvictionHandler onEvict_;
  std::vector<Slot> slots_;
  FileId head_ = kInvalidFile;  ///< most recent
  FileId tail_ = kInvalidFile;  ///< least recent
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace stellar::pfs
