// File striping math: maps a (offset, length) byte extent of a file to the
// per-OST object extents it touches, given the file's layout (stripe size,
// stripe count, starting OST). This is the exact RAID-0 mapping Lustre's
// LOV layer performs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace stellar::pfs {

struct FileLayout {
  std::uint32_t stripeCount = 1;   ///< resolved (never -1 here)
  std::uint64_t stripeSize = 1 << 20;
  std::uint32_t firstOst = 0;      ///< OST index of stripe 0
  std::uint32_t totalOsts = 1;     ///< OSTs in the system (for round-robin)

  /// The OST serving stripe index `stripe` of this file.
  [[nodiscard]] std::uint32_t ostForStripe(std::uint64_t stripe) const noexcept {
    return (firstOst + static_cast<std::uint32_t>(stripe % stripeCount)) % totalOsts;
  }

  /// Calls fn(ost) once for every OST this file stripes over, in ascending
  /// OST order. The stripe set [firstOst, firstOst + stripeCount) may wrap
  /// past the last OST; the wrapped OSTs come first.
  template <typename Fn>
  void forEachOst(Fn&& fn) const {
    const std::uint32_t end = firstOst + std::min(stripeCount, totalOsts);
    for (std::uint32_t ost = 0; ost + totalOsts < end; ++ost) {
      fn(ost);
    }
    for (std::uint32_t ost = firstOst; ost < std::min(end, totalOsts); ++ost) {
      fn(ost);
    }
  }
};

/// One contiguous piece of a file extent on a single OST object.
struct ObjectExtent {
  std::uint32_t ost = 0;
  /// Offset within the OST *object* (object-local coordinates).
  std::uint64_t objectOffset = 0;
  std::uint64_t length = 0;
  /// The file-space offset this piece starts at (for cache bookkeeping).
  std::uint64_t fileOffset = 0;
};

/// Splits the file extent [offset, offset+length) into per-OST object
/// extents, ordered by file offset. Adjacent same-stripe-column pieces are
/// NOT merged (each crossing of a stripe boundary yields a new piece),
/// matching how the OSC sees bulk I/O.
[[nodiscard]] std::vector<ObjectExtent> mapExtent(const FileLayout& layout,
                                                  std::uint64_t offset,
                                                  std::uint64_t length);

/// Object-local offset corresponding to a file offset (for contiguity
/// tracking on the server side).
[[nodiscard]] std::uint64_t objectOffsetFor(const FileLayout& layout,
                                            std::uint64_t fileOffset) noexcept;

}  // namespace stellar::pfs
