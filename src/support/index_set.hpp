#pragma once
// A set of small dense indices (committee member positions): a bitmap plus
// a population count. Committees of up to kInlineIndices members fit in the
// object itself, so tallying votes or deduplicating certificate signers
// allocates nothing; larger committees spill the bitmap to the heap once,
// at construction or reset().

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/status.hpp"

namespace xcp {

class IndexSet {
 public:
  static constexpr std::size_t kInlineIndices = 256;

  IndexSet() = default;
  /// An empty set over indices 0..capacity-1.
  explicit IndexSet(std::size_t capacity) { reset(capacity); }

  /// Empties the set and sizes it for indices 0..capacity-1.
  void reset(std::size_t capacity) {
    inline_.fill(0);
    spill_.clear();
    if (capacity > kInlineIndices) spill_.assign((capacity + 63) / 64, 0);
    capacity_ = capacity;
    count_ = 0;
  }

  /// Adds `i` (< capacity()); false if it was already present.
  bool add(std::size_t i) {
    XCP_REQUIRE(i < capacity_, "index beyond the set's capacity");
    std::uint64_t& word = words()[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  std::size_t size() const { return count_; }

 private:
  std::uint64_t* words() { return spill_.empty() ? inline_.data() : spill_.data(); }

  std::array<std::uint64_t, kInlineIndices / 64> inline_{};
  std::vector<std::uint64_t> spill_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
};

}  // namespace xcp
