#include "gmd/memsim/hybrid.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"

namespace gmd::memsim {

void HybridConfig::validate() const {
  dram.validate();
  nvm.validate();
  GMD_REQUIRE(dram.device == DeviceType::kDram,
              "hybrid dram side must be DRAM");
  GMD_REQUIRE(nvm.device == DeviceType::kNvm, "hybrid nvm side must be NVM");
  GMD_REQUIRE(dram_fraction > 0.0 && dram_fraction < 1.0,
              "dram_fraction must be in (0, 1); use a plain MemorySystem "
              "for single-technology memory");
  GMD_REQUIRE(page_bytes >= 64, "page_bytes must be >= 64");
  GMD_REQUIRE(dram.cpu_freq_mhz == nvm.cpu_freq_mhz,
              "both sides must share the CPU clock");
}

HybridConfig make_hybrid_config(std::uint32_t channels,
                                std::uint32_t clock_mhz,
                                std::uint32_t cpu_freq_mhz,
                                std::uint32_t nvm_trcd,
                                double dram_fraction) {
  GMD_REQUIRE(channels >= 2 && channels % 2 == 0,
              "hybrid preset needs an even channel count >= 2");
  HybridConfig config;
  config.dram = make_dram_config(channels / 2, clock_mhz, cpu_freq_mhz);
  config.nvm = make_nvm_config(channels / 2, clock_mhz, cpu_freq_mhz,
                               nvm_trcd);
  config.dram.name = "hybrid.dram";
  config.nvm.name = "hybrid.nvm";
  config.dram_fraction = dram_fraction;
  return config;
}

HybridMemory::HybridMemory(const HybridConfig& config)
    : config_(config), dram_(config.dram), nvm_(config.nvm) {
  config_.validate();
}

bool HybridMemory::routes_to_dram(std::uint64_t address) const {
  const std::uint64_t page = address / config_.page_bytes;
  if (promoted_pages_.contains(page)) return true;
  return static_routes_to_dram(config_, address);
}

bool HybridMemory::static_routes_to_dram(const HybridConfig& config,
                                         std::uint64_t address) {
  // Stateless page hash: a SplitMix64 of the page number compared
  // against the fraction.  Hashing (vs. a low/high address split)
  // exposes both technologies to the same access-pattern mix.
  std::uint64_t page = address / config.page_bytes;
  const std::uint64_t h = splitmix64(page);
  const double unit =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return unit < config.dram_fraction;
}

void HybridMemory::migrate_page(std::uint64_t page, std::uint64_t tick) {
  // The copy is real memory traffic: read the page out of NVM, write it
  // into DRAM, word by word.
  const std::uint64_t base = page * config_.page_bytes;
  const std::uint32_t word =
      static_cast<std::uint32_t>(config_.nvm.access_bytes());
  for (std::uint64_t offset = 0; offset < config_.page_bytes;
       offset += word) {
    nvm_.enqueue_event({tick, base + offset, word, /*is_write=*/false});
    dram_.enqueue_event({tick, base + offset, word, /*is_write=*/true});
  }
  promoted_pages_.insert(page);
  nvm_page_hits_.erase(page);
  ++pages_migrated_;
}

void HybridMemory::enqueue_event(const cpusim::MemoryEvent& event) {
  if (routes_to_dram(event.address)) {
    dram_.enqueue_event(event);
    return;
  }
  if (config_.migration_threshold > 0) {
    const std::uint64_t page = event.address / config_.page_bytes;
    if (++nvm_page_hits_[page] >= config_.migration_threshold) {
      migrate_page(page, event.tick);
      dram_.enqueue_event(event);  // served from DRAM post-promotion
      return;
    }
  }
  nvm_.enqueue_event(event);
}

MemoryMetrics HybridMemory::finish() {
  return merge_metrics(dram_.finish(), nvm_.finish());
}

MemoryMetrics HybridMemory::merge_metrics(const MemoryMetrics& d,
                                          const MemoryMetrics& n) {
  MemoryMetrics m;
  m.channels = d.channels + n.channels;
  m.banks_total = d.banks_total + n.banks_total;
  m.total_reads = d.total_reads + n.total_reads;
  m.total_writes = d.total_writes + n.total_writes;
  m.row_hits = d.row_hits + n.row_hits;
  m.row_misses = d.row_misses + n.row_misses;
  m.execution_seconds = std::max(d.execution_seconds, n.execution_seconds);
  m.dynamic_energy_j = d.dynamic_energy_j + n.dynamic_energy_j;
  m.background_energy_j = d.background_energy_j + n.background_energy_j;

  // Request-weighted latencies.
  const auto dreq = static_cast<double>(d.total_reads + d.total_writes);
  const auto nreq = static_cast<double>(n.total_reads + n.total_writes);
  const double requests = dreq + nreq;
  if (requests > 0.0) {
    m.avg_latency_cycles =
        (d.avg_latency_cycles * dreq + n.avg_latency_cycles * nreq) /
        requests;
    m.avg_total_latency_cycles = (d.avg_total_latency_cycles * dreq +
                                  n.avg_total_latency_cycles * nreq) /
                                 requests;
  }

  m.avg_reads_per_channel = static_cast<double>(m.total_reads) /
                            static_cast<double>(m.channels);
  m.avg_writes_per_channel = static_cast<double>(m.total_writes) /
                             static_cast<double>(m.channels);

  // Channel/bank-count-weighted means of the rate metrics.
  m.avg_power_per_channel_w =
      (d.avg_power_per_channel_w * d.channels +
       n.avg_power_per_channel_w * n.channels) /
      static_cast<double>(m.channels);
  m.avg_bandwidth_per_bank_mbs =
      (d.avg_bandwidth_per_bank_mbs * d.banks_total +
       n.avg_bandwidth_per_bank_mbs * n.banks_total) /
      static_cast<double>(m.banks_total);

  m.max_line_writes = std::max(d.max_line_writes, n.max_line_writes);
  m.unique_lines_written = d.unique_lines_written + n.unique_lines_written;
  return m;
}

MemoryMetrics HybridMemory::simulate(
    const HybridConfig& config, std::span<const cpusim::MemoryEvent> trace) {
  HybridMemory memory(config);
  for (const auto& event : trace) memory.enqueue_event(event);
  return memory.finish();
}

MemoryMetrics HybridMemory::simulate(const HybridConfig& config,
                                     const PredecodedTrace& dram_trace,
                                     const PredecodedTrace& nvm_trace) {
  GMD_REQUIRE(config.migration_threshold == 0,
              "predecoded hybrid simulation requires a static split "
              "(migration routes pages dynamically)");
  config.validate();
  // With a static split the two sides never interact, so each side can
  // replay its pre-routed stream independently; the merge is the same
  // one finish() applies.
  return merge_metrics(MemorySystem::simulate(config.dram, dram_trace),
                       MemorySystem::simulate(config.nvm, nvm_trace));
}

std::pair<PredecodedTrace, PredecodedTrace> predecode_hybrid(
    const HybridConfig& config,
    const std::function<PredecodedTrace::EventChunkSource()>& open) {
  GMD_REQUIRE(config.migration_threshold == 0,
              "predecode_hybrid requires a static split");
  config.validate();
  std::size_t dram_events = 0;
  std::size_t events = 0;
  const PredecodedTrace::EventChunkSource count = open();
  for (auto chunk = count(); !chunk.empty(); chunk = count()) {
    for (const cpusim::MemoryEvent& event : chunk) {
      dram_events += HybridMemory::static_routes_to_dram(config, event.address);
    }
    events += chunk.size();
  }
  PredecodedTrace::Builder dram_side(config.dram);
  PredecodedTrace::Builder nvm_side(config.nvm);
  dram_side.reserve(dram_events);
  nvm_side.reserve(events - dram_events);
  const PredecodedTrace::EventChunkSource source = open();
  for (auto chunk = source(); !chunk.empty(); chunk = source()) {
    for (const cpusim::MemoryEvent& event : chunk) {
      if (HybridMemory::static_routes_to_dram(config, event.address)) {
        dram_side.append(event);
      } else {
        nvm_side.append(event);
      }
    }
  }
  return {std::move(dram_side).finish(), std::move(nvm_side).finish()};
}

std::pair<PredecodedTrace, PredecodedTrace> predecode_hybrid(
    const HybridConfig& config, std::span<const cpusim::MemoryEvent> trace) {
  return predecode_hybrid(config, [trace] {
    return PredecodedTrace::EventChunkSource(
        [chunk = trace]() mutable {
          return std::exchange(chunk, std::span<const cpusim::MemoryEvent>{});
        });
  });
}

std::string hybrid_trace_key(const HybridConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << PredecodedTrace::key(config.dram) << "||"
     << PredecodedTrace::key(config.nvm) << "||f" << config.dram_fraction
     << "|pb" << config.page_bytes;
  return os.str();
}

}  // namespace gmd::memsim
