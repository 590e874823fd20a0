// Pending-event queue for the discrete-event engine.
//
// Events dispatch in the strict total order (timestamp, insertion
// sequence): same-timestamp events run FIFO, so a run is a pure function of
// its inputs. The queue sorts only trivially copyable keys. The engine keeps
// each pending event's callback in a slot store and the key names the slot,
// so a heap sift copies 24 bytes and never relocates a closure.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stellar::sim {

using SimTime = double;

/// One pending event: when it fires, its insertion sequence (the FIFO
/// tie-break) and the engine slot that holds its callback.
struct EventKey {
  SimTime at = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

/// Strict dispatch order: earlier timestamp first, insertion order breaking
/// ties. This is the engine's determinism contract.
[[nodiscard]] inline bool dispatchesBefore(const EventKey& a,
                                           const EventKey& b) noexcept {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  return a.seq < b.seq;
}

/// Binary min-heap of event keys in dispatch order; O(log n) push and pop.
class HeapScheduler {
 public:
  void push(const EventKey& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), DispatchesAfter{});
  }

  /// Removes and returns the next key in dispatch order; requires !empty().
  EventKey pop() {
    std::pop_heap(heap_.begin(), heap_.end(), DispatchesAfter{});
    const EventKey key = heap_.back();
    heap_.pop_back();
    return key;
  }

  /// Next key in dispatch order; requires !empty().
  [[nodiscard]] const EventKey& top() const noexcept { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// std::push_heap keeps the "largest" element at the front, so "larger"
  /// must mean "dispatches later". A function object rather than a function
  /// pointer, so the sift loops inline the comparison.
  struct DispatchesAfter {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      return dispatchesBefore(b, a);
    }
  };

  std::vector<EventKey> heap_;
};

}  // namespace stellar::sim
