#include "pfs/client_cache.hpp"

#include <algorithm>
#include <cassert>

namespace stellar::pfs {

// ------------------------------------------------------------ DirtyBank --

void DirtyBank::configure(std::size_t lanes, std::uint64_t budgetBytes) {
  budget_ = budgetBytes;
  dirty_.assign(lanes, 0);
  peak_.assign(lanes, 0);
  maxReservation_.assign(lanes, 0);
  waiters_.clear();
}

std::size_t DirtyBank::waiterCount(std::size_t lane) const {
  const auto it = waiters_.find(lane);
  return it == waiters_.end() ? 0 : it->second.size();
}

bool DirtyBank::tryReserve(std::size_t lane, std::uint64_t bytes) {
  const auto waitIt = waiters_.find(lane);
  const bool hasWaiters = waitIt != waiters_.end() && !waitIt->second.empty();
  if (bytes > budget_) {
    // Oversized single write: admit only when nothing else is dirty so it
    // can make progress (mirrors Lustre forcing sync writeout).
    if (dirty_[lane] == 0 && !hasWaiters) {
      dirty_[lane] = bytes;
      noteReserve(lane, bytes);
      return true;
    }
    return false;
  }
  if (dirty_[lane] + bytes <= budget_ && !hasWaiters) {
    dirty_[lane] += bytes;
    noteReserve(lane, bytes);
    return true;
  }
  return false;
}

void DirtyBank::waitForSpace(std::size_t lane, std::uint64_t bytes, RankId rank) {
  waiters_[lane].push_back(Waiter{bytes, rank});
}

std::span<const RankId> DirtyBank::release(std::size_t lane, std::uint64_t bytes) {
  dirty_[lane] = bytes >= dirty_[lane] ? 0 : dirty_[lane] - bytes;
  admitted_.clear();
  const auto it = waiters_.find(lane);
  if (it == waiters_.end()) {
    return admitted_;
  }
  std::deque<Waiter>& queue = it->second;
  while (!queue.empty()) {
    const Waiter& head = queue.front();
    const bool oversized = head.bytes > budget_;
    if (oversized ? dirty_[lane] != 0 : dirty_[lane] + head.bytes > budget_) {
      return admitted_;
    }
    dirty_[lane] += head.bytes;
    noteReserve(lane, head.bytes);
    admitted_.push_back(head.rank);
    queue.pop_front();
  }
  waiters_.erase(it);
  return admitted_;
}

// ------------------------------------------------------------ Readahead --

Coverage ReadAheadCache::query(FileId file, std::uint64_t begin, std::uint64_t end) {
  Coverage cov;
  auto fileIt = files_.find(file);
  std::uint64_t cursor = begin;
  if (fileIt != files_.end()) {
    ChunkMap& chunks = fileIt->second;
    // First chunk whose begin > cursor, then step back to check overlap.
    auto it = chunks.upper_bound(cursor);
    if (it != chunks.begin()) {
      --it;
      if (it->second.end <= cursor) {
        ++it;
      }
    }
    for (; it != chunks.end() && it->second.begin < end; ++it) {
      CacheChunk& chunk = it->second;
      if (chunk.begin > cursor) {
        cov.missing.emplace_back(cursor, chunk.begin);
      }
      if (!chunk.ready) {
        cov.pending.push_back(&chunk);
      }
      cursor = std::max(cursor, chunk.end);
    }
  }
  if (cursor < end) {
    cov.missing.emplace_back(cursor, end);
  }
  return cov;
}

CacheChunk* ReadAheadCache::insertPending(FileId file, std::uint64_t begin,
                                          std::uint64_t end) {
  assert(end > begin);
  CacheChunk chunk;
  chunk.begin = begin;
  chunk.end = end;
  outstanding_ += end - begin;
  prefetchedTotal_ += end - begin;
  auto [it, inserted] = files_[file].emplace(begin, std::move(chunk));
  assert(inserted);
  (void)inserted;
  return &it->second;
}

void ReadAheadCache::markReady(CacheChunk* chunk) {
  chunk->ready = true;
}

void ReadAheadCache::consume(FileId file, std::uint64_t begin, std::uint64_t end) {
  auto fileIt = files_.find(file);
  if (fileIt == files_.end()) {
    return;
  }
  ChunkMap& chunks = fileIt->second;
  auto it = chunks.upper_bound(begin);
  if (it != chunks.begin()) {
    --it;
    if (it->second.end <= begin) {
      ++it;
    }
  }
  while (it != chunks.end() && it->second.begin < end) {
    CacheChunk& chunk = it->second;
    const std::uint64_t lo = std::max(begin, chunk.begin);
    const std::uint64_t hi = std::min(end, chunk.end);
    if (hi > lo) {
      const std::uint64_t newConsumed =
          std::max(chunk.consumed, hi - chunk.begin);  // streaming: high-water mark
      const std::uint64_t delta = newConsumed - chunk.consumed;
      chunk.consumed = newConsumed;
      outstanding_ = delta >= outstanding_ ? 0 : outstanding_ - delta;
      consumedTotal_ += delta;
    }
    if (chunk.ready && chunk.consumed >= chunk.end - chunk.begin) {
      it = chunks.erase(it);
    } else {
      ++it;
    }
  }
  if (chunks.empty()) {
    files_.erase(fileIt);
  }
}

std::vector<RankId> ReadAheadCache::dropFile(FileId file) {
  std::vector<RankId> orphans;
  auto fileIt = files_.find(file);
  if (fileIt == files_.end()) {
    return orphans;
  }
  for (auto& [begin, chunk] : fileIt->second) {
    (void)begin;
    const std::uint64_t span = chunk.end - chunk.begin;
    const std::uint64_t unconsumed = span - std::min(span, chunk.consumed);
    outstanding_ = unconsumed >= outstanding_ ? 0 : outstanding_ - unconsumed;
    discardedTotal_ += unconsumed;
    orphans.insert(orphans.end(), chunk.waiters.begin(), chunk.waiters.end());
  }
  files_.erase(fileIt);
  return orphans;
}

CacheChunk* ReadAheadCache::find(FileId file, std::uint64_t begin) {
  auto fileIt = files_.find(file);
  if (fileIt == files_.end()) {
    return nullptr;
  }
  auto it = fileIt->second.find(begin);
  return it == fileIt->second.end() ? nullptr : &it->second;
}

std::size_t ReadAheadCache::chunkCount(FileId file) const {
  const auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size();
}

// ------------------------------------------------------------ Writeback --

void WritebackBank::configure(std::size_t lanes) {
  pending_.assign(lanes, {});
  bytes_.assign(lanes, 0);
  scratch_.clear();
}

void WritebackBank::append(std::size_t lane, FileId file,
                           std::uint64_t objectOffset, std::uint64_t length) {
  pending_[lane].push_back(Segment{file, objectOffset, length});
  bytes_[lane] += length;
}

std::uint64_t WritebackBank::drain(
    std::size_t lane, bool fileOnly, FileId onlyFile, std::uint64_t maxRpcBytes,
    const std::function<void(FileId, std::uint64_t, std::uint64_t)>& emit) {
  std::vector<Segment>& queue = pending_[lane];
  scratch_.clear();
  if (fileOnly) {
    // Fsync of one file: pull its segments out, leave the rest queued.
    std::size_t keep = 0;
    for (Segment& seg : queue) {
      if (seg.file == onlyFile) {
        scratch_.push_back(seg);
      } else {
        queue[keep++] = seg;
      }
    }
    queue.resize(keep);
  } else {
    scratch_.swap(queue);
    queue.clear();
  }
  if (scratch_.empty()) {
    return 0;
  }

  // Elevator order per file, then merge contiguous runs so neighbouring
  // dirty segments share one bulk RPC.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Segment& a, const Segment& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              return a.objectOffset < b.objectOffset;
            });

  std::uint64_t drained = 0;
  std::size_t i = 0;
  while (i < scratch_.size()) {
    const FileId file = scratch_[i].file;
    const std::uint64_t runBegin = scratch_[i].objectOffset;
    std::uint64_t runEnd = runBegin + scratch_[i].length;
    ++i;
    while (i < scratch_.size() && scratch_[i].file == file &&
           scratch_[i].objectOffset == runEnd) {
      runEnd += scratch_[i].length;
      ++i;
    }
    std::uint64_t cursor = runBegin;
    while (cursor < runEnd) {
      const std::uint64_t len = std::min(maxRpcBytes, runEnd - cursor);
      emit(file, cursor, len);
      cursor += len;
      drained += len;
    }
  }
  bytes_[lane] -= std::min(bytes_[lane], drained);
  return drained;
}

std::uint64_t WritebackBank::discardFile(std::size_t lane, FileId file) {
  std::vector<Segment>& queue = pending_[lane];
  std::uint64_t dropped = 0;
  std::size_t keep = 0;
  for (Segment& seg : queue) {
    if (seg.file == file) {
      dropped += seg.length;
    } else {
      queue[keep++] = seg;
    }
  }
  queue.resize(keep);
  bytes_[lane] -= std::min(bytes_[lane], dropped);
  return dropped;
}

// ----------------------------------------------------------------- Lock --

LockLru::LockLru(std::size_t capacity, double maxAge) {
  configure(capacity, maxAge);
}

void LockLru::configure(std::size_t capacity, double maxAge) {
  capacity_ = capacity == 0 ? kDynamicCapacity : capacity;
  maxAge_ = maxAge;
  while (size_ > capacity_) {
    evict(tail_);
  }
}

void LockLru::unlink(FileId file) noexcept {
  const Slot& slot = slots_[file];
  if (slot.prev == kInvalidFile) {
    head_ = slot.next;
  } else {
    slots_[slot.prev].next = slot.next;
  }
  if (slot.next == kInvalidFile) {
    tail_ = slot.prev;
  } else {
    slots_[slot.next].prev = slot.prev;
  }
}

void LockLru::linkFront(FileId file) noexcept {
  Slot& slot = slots_[file];
  slot.prev = kInvalidFile;
  slot.next = head_;
  if (head_ == kInvalidFile) {
    tail_ = file;
  } else {
    slots_[head_].prev = file;
  }
  head_ = file;
}

void LockLru::moveToFront(FileId file) noexcept {
  if (head_ != file) {
    unlink(file);
    linkFront(file);
  }
}

void LockLru::evict(FileId file) {
  unlink(file);
  slots_[file].cached = false;
  --size_;
  ++evictions_;
  if (onEvict_) {
    onEvict_(file);
  }
}

bool LockLru::touch(FileId file, double now) {
  if (!held(file)) {
    ++misses_;
    return false;
  }
  if (now - slots_[file].acquiredAt > maxAge_) {
    // Expired: behaves as a miss and the stale entry (plus the pages it
    // protected) is dropped.
    evict(file);
    ++misses_;
    return false;
  }
  // Refresh recency; lock use extends residency.
  moveToFront(file);
  slots_[file].acquiredAt = now;
  ++hits_;
  return true;
}

bool LockLru::contains(FileId file, double now) const {
  return held(file) && now - slots_[file].acquiredAt <= maxAge_;
}

void LockLru::insert(FileId file, double now) {
  assert(file != kInvalidFile);
  if (file >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(file) + 1);
  }
  Slot& slot = slots_[file];
  slot.acquiredAt = now;
  if (slot.cached) {
    moveToFront(file);
    return;
  }
  slot.cached = true;
  linkFront(file);
  ++size_;
  ++inserts_;
  while (size_ > capacity_) {
    evict(tail_);
  }
}

void LockLru::erase(FileId file) {
  if (held(file)) {
    evict(file);
  }
}

}  // namespace stellar::pfs
