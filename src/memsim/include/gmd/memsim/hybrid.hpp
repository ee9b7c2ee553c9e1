#pragma once

/// \file hybrid.hpp
/// Hybrid (DRAM + NVM) main memory: a page-granular router in front of
/// two MemorySystems.  The paper's hybrid configurations combine DRAM
/// and NVM channels under one controller clock with a "fraction of
/// memory" split; here `dram_fraction` of pages (hashed, so both
/// technologies see every access pattern) land in DRAM and the rest in
/// NVM.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

  /// Hot-page promotion (the NGraph-style hybrid management the paper's
  /// related work describes): after this many accesses to an NVM-resident
  /// page, the page is copied into DRAM — the copy itself is simulated as
  /// page_bytes of NVM reads plus DRAM writes — and served from DRAM
  /// afterwards.  0 disables migration (the paper's static split).
  std::uint32_t migration_threshold = 0;

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

class HybridMemory {
 public:
  explicit HybridMemory(const HybridConfig& config);

  /// Routes one trace event to the owning technology by page.
  void enqueue_event(const cpusim::MemoryEvent& event);

  /// Drains both sides and merges their metrics: channel-level metrics
  /// average over all channels of both technologies, bank-level over
  /// all banks, latencies request-weighted.
  MemoryMetrics finish();

  static MemoryMetrics simulate(const HybridConfig& config,
                                std::span<const cpusim::MemoryEvent> trace);

  /// Fast path over pre-routed, pre-decoded side traces (see
  /// predecode_hybrid).  Only valid for static splits
  /// (migration_threshold == 0), where routing does not depend on the
  /// access history; identical results to the event path.
  static MemoryMetrics simulate(const HybridConfig& config,
                                const PredecodedTrace& dram_trace,
                                const PredecodedTrace& nvm_trace);

  /// True when `address` routes to the DRAM side (static hash or a
  /// promoted hot page).
  bool routes_to_dram(std::uint64_t address) const;

  /// True when `address` hashes to the DRAM side of a static split —
  /// the routing every access gets before any page is promoted.
  static bool static_routes_to_dram(const HybridConfig& config,
                                    std::uint64_t address);

  /// Merges per-side metrics the way finish() reports them: counters
  /// summed, latencies request-weighted, rate metrics channel- or
  /// bank-weighted.
  static MemoryMetrics merge_metrics(const MemoryMetrics& dram,
                                     const MemoryMetrics& nvm);

  /// Pages promoted so far (0 when migration is disabled).
  std::uint64_t pages_migrated() const { return pages_migrated_; }

 private:
  void migrate_page(std::uint64_t page, std::uint64_t tick);

  HybridConfig config_;
  MemorySystem dram_;
  MemorySystem nvm_;
  std::unordered_map<std::uint64_t, std::uint32_t> nvm_page_hits_;
  std::unordered_set<std::uint64_t> promoted_pages_;
  std::uint64_t pages_migrated_ = 0;
};

/// Routes and predecodes a trace for a static-split hybrid config
/// (migration_threshold == 0): returns the {DRAM side, NVM side}
/// request streams ready for HybridMemory::simulate's fast path.  Both
/// sides can be shared by every hybrid point with the same
/// hybrid_trace_key(), whatever its clocks.
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
