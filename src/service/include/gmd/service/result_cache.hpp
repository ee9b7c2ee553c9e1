#pragma once

/// \file result_cache.hpp
/// Bounded sharded LRU over simulation results.  Keys are FNV-1a 64 of
/// (trace content checksum, canonical DesignPoint bytes, sampling
/// geometry); values are the complete MetricsRow, shared so a cache hit
/// is an O(1) pointer copy and bit-identical to the fresh simulation
/// that populated it.  Fields that never change results (the deadline,
/// warm feeds) are excluded from the key — mirroring the sweep
/// checkpoint identity — and the sampling geometry is mixed in only
/// when sampling is actually on, so an exhaustive request hits the same
/// entry no matter what dormant sampling defaults rode along.

#include <cstdint>
#include <memory>

#include "gmd/common/lru_cache.hpp"
#include "gmd/dse/design_point.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::service {

/// Cache key for one (trace, point, sampling geometry) simulation.
std::uint64_t simulate_cache_key(std::uint64_t trace_checksum,
                                 const dse::DesignPoint& point,
                                 const dse::SimulateOptions& options);

class ResultCache {
 public:
  using Row = std::shared_ptr<const dse::MetricsRow>;
  using Stats = ShardedLruCache<std::uint64_t, Row>::Stats;

  explicit ResultCache(std::size_t capacity, std::size_t num_shards = 8)
      : cache_(capacity, num_shards) {}

  Row get(std::uint64_t key) {
    auto hit = cache_.get(key);
    return hit ? std::move(*hit) : nullptr;
  }

  void put(std::uint64_t key, Row row) { cache_.put(key, std::move(row)); }

  Stats stats() const { return cache_.stats(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t capacity() const { return cache_.capacity(); }
  void clear() { cache_.clear(); }

 private:
  ShardedLruCache<std::uint64_t, Row> cache_;
};

}  // namespace gmd::service
