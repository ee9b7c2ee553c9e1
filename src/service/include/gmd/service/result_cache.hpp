#pragma once

/// \file result_cache.hpp
/// Bounded sharded LRU over simulation results.  Keys are FNV-1a 64 of
/// (trace content checksum, canonical DesignPoint bytes, sampling
/// geometry); values are the complete MetricsRow, shared so a cache hit
/// is an O(1) pointer copy and bit-identical to the fresh simulation
/// that populated it.  Fields that never change results (the deadline,
/// the warm feed) are excluded from the key — mirroring the sweep
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

/// Results by simulate_cache_key; get() returns std::nullopt on a miss.
using ResultCache =
    ShardedLruCache<std::uint64_t, std::shared_ptr<const dse::MetricsRow>>;

}  // namespace gmd::service
