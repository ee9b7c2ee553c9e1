#pragma once

/// \file flat_counter.hpp
/// Open-addressing occurrence counter for 64-bit keys.  Replaces
/// std::unordered_map<u64, u64> on hot counting paths (the memory
/// simulator's per-write endurance tracking): one flat array, linear
/// probing, no per-node allocation, and the running maximum is tracked
/// on insert so finishing a run never iterates the table.

#include <cstdint>
#include <vector>

#include "gmd/common/error.hpp"

namespace gmd {

/// Counts occurrences of u64 keys.  Keys must be below 2^63 (the
/// all-ones word marks an empty slot).
class FlatCounter {
 public:
  explicit FlatCounter(std::size_t initial_capacity = 1024) {
    std::size_t capacity = 16;
    while (capacity < initial_capacity) capacity <<= 1;
    entries_.resize(capacity);
  }

  /// Increments the count for `key`; returns the new count.
  std::uint64_t bump(std::uint64_t key) {
    GMD_ASSERT(key != kEmpty, "FlatCounter key out of range");
    if ((size_ + 1) * 10 > entries_.size() * 7) grow();
    Entry& entry = find_slot(key);
    if (entry.key == kEmpty) {
      entry.key = key;
      ++size_;
    }
    const std::uint64_t count = ++entry.count;
    if (count > max_count_) max_count_ = count;
    return count;
  }

  /// Number of distinct keys seen.
  std::uint64_t size() const { return size_; }
  /// Largest count over all keys (0 when empty).
  std::uint64_t max_count() const { return max_count_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Entry {
    std::uint64_t key = kEmpty;
    std::uint64_t count = 0;
  };

  static std::uint64_t mix(std::uint64_t x) {
    // SplitMix64 finalizer: full avalanche so sequential line indexes
    // spread across the table.
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Entry& find_slot(std::uint64_t key) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (entries_[i].key != kEmpty && entries_[i].key != key) {
      i = (i + 1) & mask;
    }
    return entries_[i];
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    for (const Entry& entry : old) {
      if (entry.key == kEmpty) continue;
      Entry& slot = find_slot(entry.key);
      slot = entry;
    }
  }

  std::vector<Entry> entries_;
  std::uint64_t size_ = 0;
  std::uint64_t max_count_ = 0;
};

}  // namespace gmd
