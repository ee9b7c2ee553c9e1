#pragma once

/// \file config.hpp
/// Memory-system configuration: device technology, geometry, timing,
/// energy, and controller policy — the knobs NVMain exposes through its
/// config files and the knobs the paper sweeps (CPU frequency,
/// controller frequency, channels, tRAS, tRCD).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gmd {
class Deadline;  // common/deadline.hpp
}

namespace gmd::memsim {

enum class DeviceType { kDram, kNvm };

std::string to_string(DeviceType type);

/// Command scheduling policy within a channel's transaction queue.
enum class SchedulingPolicy {
  kFcfs,    ///< Strictly first-come-first-served.
  kFrFcfs,  ///< First-ready (row hit) first, then FCFS.
};

/// Row-buffer management.
enum class PagePolicy {
  kOpen,    ///< Leave the row open after an access (hope for row hits).
  kClosed,  ///< Precharge immediately after every access.
};

/// DRAM/NVM timing parameters, expressed in memory-controller clock
/// cycles — matching how NVMain config files specify them.
struct TimingParams {
  std::uint32_t tRCD = 9;    ///< Row activate to column command.
  std::uint32_t tRAS = 24;   ///< Activate to precharge (data restore); 0 for NVM.
  std::uint32_t tRP = 9;     ///< Precharge period.
  std::uint32_t tCAS = 9;    ///< Column access strobe (CL).
  std::uint32_t tBURST = 4;  ///< Data burst on the bus.
  std::uint32_t tWR = 10;    ///< Write recovery (cell write time for NVM).
  std::uint32_t tCCD = 4;    ///< Column-to-column delay.
  std::uint32_t tRRD = 4;    ///< Activate-to-activate, same rank.
  std::uint32_t tFAW = 16;   ///< Four-activate window, same rank; 0 disables.
  std::uint32_t tRFC = 0;    ///< Refresh cycle time; 0 disables refresh.
  std::uint32_t tREFI = 0;   ///< Refresh interval; 0 disables refresh.
};

/// Per-operation energies (nanojoules) and background power terms.
struct EnergyParams {
  double activate_nj = 2.0;
  double precharge_nj = 1.0;
  double read_nj = 4.0;
  double write_nj = 4.0;
  double refresh_nj = 30.0;
  /// Clock-proportional peripheral power per channel (mW per MHz of
  /// controller clock): dominant for NVM interfaces.
  double background_mw_per_mhz = 0.01;
  /// Constant per-channel background power (mW): refresh logic, DLLs —
  /// dominant for DRAM.
  double static_mw = 20.0;
};

/// Simulator implementation switches — not part of the modeled
/// hardware, so presets and config files never touch them.
struct MemSimOptions {
  /// Run the original O(queue_depth) vector-scan scheduler instead of
  /// the bitmask-window fast path.  Both produce identical metrics; the
  /// flag exists so the equivalence suite can prove it and so a
  /// regression can be bisected against the reference implementation.
  bool reference_mode = false;

  /// Cooperative deadline/cancellation token, polled by the channel
  /// service loops (drain and queue-full back-pressure).  When the
  /// token's wall budget expires or it is cancelled, the simulation
  /// unwinds with a typed gmd::Error (kTimeout / kCancelled) instead of
  /// running on — this is how the sweep runner bounds a stuck point.
  /// Non-owning; must outlive the simulation.  nullptr = never cancel.
  Deadline* deadline = nullptr;
};

/// One memory system (a single technology).  Hybrid systems combine two.
struct MemoryConfig {
  std::string name = "dram";
  DeviceType device = DeviceType::kDram;

  // Geometry.
  std::uint32_t channels = 2;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 8;       ///< Banks per rank.
  std::uint32_t rows = 32768;    ///< Rows per bank.
  std::uint32_t row_bytes = 2048;///< Row (page) size in bytes.
  std::uint32_t bus_bytes = 8;   ///< Data bus width in bytes.

  // Clocks.
  std::uint32_t clock_mhz = 400;     ///< Controller/memory clock.
  std::uint32_t cpu_freq_mhz = 2000; ///< CPU clock of the trace's ticks.

  TimingParams timing;
  EnergyParams energy;

  // Controller.
  SchedulingPolicy scheduling = SchedulingPolicy::kFrFcfs;
  PagePolicy page_policy = PagePolicy::kOpen;
  std::uint32_t queue_depth = 32;

  /// Read-priority scheduling: reads (the latency-critical class) are
  /// served before writes until the queued-write count reaches
  /// write_drain_watermark, which triggers a drain so writes cannot
  /// starve.  Applies on top of the scheduling policy's row-hit
  /// preference.  Off by default (the paper's NVMain configuration
  /// serves transactions in policy order regardless of type).
  bool prioritize_reads = false;
  std::uint32_t write_drain_watermark = 24;

  /// Epoch length in controller cycles for time-series statistics —
  /// NVMain's EPOCHS/PrintGraphs facility (§III of the paper names the
  /// PrintGraphs control parameter).  0 disables epoch collection.
  std::uint64_t epoch_cycles = 0;

  /// NVMain-style address mapping scheme, MSB to LSB, colon-separated:
  /// R = row, RK = rank, BK = bank, C = column, CH = channel.  Each
  /// field must appear exactly once.  The default interleaves channels
  /// at access granularity and keeps rows at the top (best sequential
  /// locality); "R:RK:CH:BK:C" would interleave banks finer than
  /// channels, etc.
  std::string address_mapping = "R:RK:BK:C:CH";

  /// Bytes transferred per access: bus width times burst length.
  std::uint64_t access_bytes() const {
    return static_cast<std::uint64_t>(bus_bytes) * timing.tBURST * 2;  // DDR
  }
  std::uint64_t bytes_per_bank() const {
    return static_cast<std::uint64_t>(rows) * row_bytes;
  }
  std::uint64_t capacity_bytes() const {
    return bytes_per_bank() * banks * ranks * channels;
  }

  /// Simulator implementation switches (see MemSimOptions).
  MemSimOptions sim;

  /// Throws gmd::Error when any field is inconsistent, and
  /// Error(kConfig) for a geometry no predecoded record can address:
  /// more than 256 channels, or more than 65,536 banks per channel.
  void validate() const;
};

/// Converts a CPU tick to a memory-controller cycle:
/// cycle = floor(tick * clock / cpu_freq), exact for every input (the
/// product is taken in 128 bits).  Stateless, so replay can stamp ticks
/// in any order.  TickStamp is its fast form for the hot paths.
inline std::uint64_t tick_to_memory_cycle(std::uint64_t tick,
                                          std::uint32_t clock_mhz,
                                          std::uint32_t cpu_freq_mhz) {
  return static_cast<std::uint64_t>(static_cast<__uint128_t>(tick) *
                                    clock_mhz / cpu_freq_mhz);
}

/// tick_to_memory_cycle() under `config`'s two clocks.
inline std::uint64_t tick_to_memory_cycle(const MemoryConfig& config,
                                          std::uint64_t tick) {
  return tick_to_memory_cycle(tick, config.clock_mhz, config.cpu_freq_mhz);
}

/// tick_to_memory_cycle() for one clock pair, with the division
/// precomputed: when clock < cpu_freq (every paper pair) a tick below
/// 2^64 / cpu_freq — about 2.8e15 at 6500 MHz — costs one 64x64-bit
/// multiply, the high half of tick * ceil(clock * 2^64 / cpu_freq).
/// That is the exact quotient: the scale overshoots clock / cpu_freq by
/// less than 2^-64, so the product overshoots tick * clock / cpu_freq by
/// less than tick / 2^64 < 1 / cpu_freq, the least distance from such a
/// quotient's fractional part up to the next integer.  Other ticks and
/// pairs take tick_to_memory_cycle() itself.  So the stamp equals
/// tick_to_memory_cycle() for every input, and it is stateless: ticks
/// may come in any order.
class TickStamp {
 public:
  explicit TickStamp(const MemoryConfig& config);

  std::uint64_t operator()(std::uint64_t tick) const {
    if (tick < limit_) [[likely]] {
      return static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(tick) * scale_) >> 64);
    }
    return tick_to_memory_cycle(tick, clock_, cpu_);
  }

 private:
  std::uint32_t clock_;
  std::uint32_t cpu_;
  std::uint64_t scale_ = 0;  ///< ceil(clock * 2^64 / cpu) when clock < cpu.
  std::uint64_t limit_ = 0;  ///< Ticks below this take the scaled multiply.
};

/// Paper presets ----------------------------------------------------------

/// DDR-style DRAM with the paper's timing (tRAS=24, tRCD=9).
MemoryConfig make_dram_config(std::uint32_t channels, std::uint32_t clock_mhz,
                              std::uint32_t cpu_freq_mhz);

/// NVM (PCM-like): tRAS=0 (no data restore), slow writes, clock-
/// proportional interface power.  `tRCD` follows the paper's
/// per-controller-frequency sets unless overridden.
MemoryConfig make_nvm_config(std::uint32_t channels, std::uint32_t clock_mhz,
                             std::uint32_t cpu_freq_mhz, std::uint32_t tRCD);

/// The paper's per-controller-frequency tRCD candidate sets
/// (400 MHz -> {20,30,40,50,60,80}, ..., 1600 MHz -> {80,...,320}).
const std::vector<std::uint32_t>& nvm_trcd_set(std::uint32_t clock_mhz);

/// The paper's swept axis values.
const std::vector<std::uint32_t>& paper_cpu_frequencies_mhz();   // {2000,3000,5000,6500}
const std::vector<std::uint32_t>& paper_controller_frequencies_mhz();  // {400,666,1250,1600}
const std::vector<std::uint32_t>& paper_channel_counts();        // {2,4}

}  // namespace gmd::memsim
