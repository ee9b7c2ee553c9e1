#pragma once

/// \file hybrid.hpp
/// Hybrid (DRAM + NVM) main memory: a static page-granular split in
/// front of two MemorySystems.  The paper's hybrid configurations
/// combine DRAM and NVM channels under one controller clock with a
/// "fraction of memory" split; here `dram_fraction` of pages (hashed,
/// so both technologies see every access pattern) land in DRAM and the
/// rest in NVM.  Routing never depends on the access history, so each
/// side is predecoded once and replayed on its own.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {

struct HybridConfig {
  MemoryConfig dram;          ///< DRAM side (dram.channels channels).
  MemoryConfig nvm;           ///< NVM side (nvm.channels channels).
  double dram_fraction = 0.5; ///< Fraction of pages routed to DRAM.
  std::uint32_t page_bytes = 4096;

  std::uint32_t total_channels() const {
    return dram.channels + nvm.channels;
  }
  void validate() const;
};

/// Builds the paper's hybrid preset: `channels` split evenly between a
/// DRAM side and an NVM side, both at `clock_mhz`, NVM tRCD as given.
HybridConfig make_hybrid_config(std::uint32_t channels,
                                std::uint32_t clock_mhz,
                                std::uint32_t cpu_freq_mhz,
                                std::uint32_t nvm_trcd,
                                double dram_fraction = 0.5);

/// The hybrid simulation entry points.  The two sides never interact,
/// so each replays its own pre-routed stream and the metrics merge.
class HybridMemory {
 public:
  HybridMemory() = delete;

  /// Routes and predecodes `trace` (see predecode_hybrid), then replays
  /// both sides.
  static MemoryMetrics simulate(const HybridConfig& config,
                                std::span<const cpusim::MemoryEvent> trace);

  /// Replays pre-routed, pre-decoded side traces (see predecode_hybrid)
  /// and merges their metrics (see merge_metrics).
  static MemoryMetrics simulate(const HybridConfig& config,
                                const PredecodedTrace& dram_trace,
                                const PredecodedTrace& nvm_trace);

  /// True when `address`'s page hashes to the DRAM side of the split.
  static bool static_routes_to_dram(const HybridConfig& config,
                                    std::uint64_t address);

  /// Merges per-side metrics: channel-level metrics average over all
  /// channels of both technologies, bank-level over all banks; counters
  /// are summed and latencies request-weighted.
  static MemoryMetrics merge_metrics(const MemoryMetrics& dram,
                                     const MemoryMetrics& nvm);
};

/// Routes and predecodes a trace for a hybrid config: returns the
/// {DRAM side, NVM side} request streams HybridMemory::simulate
/// replays.  Both sides can be shared by every hybrid point with the
/// same hybrid_trace_key(), whatever its clocks.
std::pair<PredecodedTrace, PredecodedTrace> predecode_hybrid(
    const HybridConfig& config, std::span<const cpusim::MemoryEvent> trace);

/// Streaming form: each call of `open` starts a fresh pass over the
/// trace's chunks (see PredecodedTrace::EventChunkSource).  It is called
/// twice: one pass counts each side's events, so both sides are
/// allocated once at their size instead of regrowing, and the second
/// routes and decodes.  Equivalent to the span overload on the
/// concatenation of the chunks.
std::pair<PredecodedTrace, PredecodedTrace> predecode_hybrid(
    const HybridConfig& config,
    const std::function<PredecodedTrace::EventChunkSource()>& open);

/// Sharing key for predecode_hybrid results: both sides' clock-free
/// decode keys plus the routing fields (dram_fraction, page_bytes).
std::string hybrid_trace_key(const HybridConfig& config);

}  // namespace gmd::memsim
