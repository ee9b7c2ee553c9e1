#include "gmd/memsim/config.hpp"

#include <bit>
#include <limits>

#include "gmd/common/error.hpp"

namespace gmd::memsim {

std::string to_string(DeviceType type) {
  return type == DeviceType::kDram ? "DRAM" : "NVM";
}

void MemoryConfig::validate() const {
  GMD_REQUIRE(channels >= 1, "need at least one channel");
  GMD_REQUIRE(ranks >= 1, "need at least one rank");
  GMD_REQUIRE(banks >= 1, "need at least one bank per rank");
  GMD_REQUIRE(rows >= 1, "need at least one row");
  GMD_REQUIRE(std::has_single_bit(row_bytes), "row_bytes must be a power of two");
  GMD_REQUIRE(std::has_single_bit(bus_bytes), "bus_bytes must be a power of two");
  GMD_REQUIRE(clock_mhz >= 1, "controller clock must be positive");
  GMD_REQUIRE(cpu_freq_mhz >= 1, "CPU clock must be positive");
  GMD_REQUIRE(timing.tBURST >= 1, "tBURST must be positive");
  GMD_REQUIRE(timing.tCAS >= 1, "tCAS must be positive");
  GMD_REQUIRE(queue_depth >= 1, "queue_depth must be positive");
  GMD_REQUIRE((timing.tRFC == 0) == (timing.tREFI == 0),
              "tRFC and tREFI must both be zero (no refresh) or both set");
  if (timing.tREFI != 0) {
    GMD_REQUIRE(timing.tREFI > timing.tRFC,
                "tREFI must exceed tRFC or the device only refreshes");
  }
}

TickStamp::TickStamp(const MemoryConfig& config)
    : clock_(config.clock_mhz), cpu_(config.cpu_freq_mhz) {
  if (clock_ < cpu_) {  // else the scale would not fit in 64 bits
    scale_ = static_cast<std::uint64_t>(
        ((static_cast<__uint128_t>(clock_) << 64) + cpu_ - 1) / cpu_);
    limit_ = std::numeric_limits<std::uint64_t>::max() / cpu_;
  }
}

MemoryConfig make_dram_config(std::uint32_t channels, std::uint32_t clock_mhz,
                              std::uint32_t cpu_freq_mhz) {
  MemoryConfig config;
  config.name = "dram";
  config.device = DeviceType::kDram;
  config.channels = channels;
  config.clock_mhz = clock_mhz;
  config.cpu_freq_mhz = cpu_freq_mhz;

  // Paper values: tRAS = 24, tRCD = 9 for DRAM.
  config.timing.tRCD = 9;
  config.timing.tRAS = 24;
  config.timing.tRP = 9;
  config.timing.tCAS = 9;
  config.timing.tBURST = 4;
  config.timing.tWR = 10;
  config.timing.tCCD = 4;
  // Refresh: ~7.8us interval, ~350ns cycle, expressed in controller
  // cycles for the configured clock.
  config.timing.tREFI =
      static_cast<std::uint32_t>(7800ULL * clock_mhz / 1000);  // 7.8us
  config.timing.tRFC =
      static_cast<std::uint32_t>(350ULL * clock_mhz / 1000);   // 350ns

  // DRAM energy: restore/precharge costs plus a sizeable constant
  // background floor (refresh logic, DLLs, peripheral), weak clock
  // scaling — so per-channel power sits near the floor and is roughly
  // flat across controller clocks, as the paper's DRAM column shows.
  config.energy.activate_nj = 0.5;
  config.energy.precharge_nj = 0.25;
  config.energy.read_nj = 0.5;
  config.energy.write_nj = 0.6;
  config.energy.refresh_nj = 5.0;
  config.energy.static_mw = 120.0;
  config.energy.background_mw_per_mhz = 0.01;
  return config;
}

MemoryConfig make_nvm_config(std::uint32_t channels, std::uint32_t clock_mhz,
                             std::uint32_t cpu_freq_mhz, std::uint32_t tRCD) {
  MemoryConfig config;
  config.name = "nvm";
  config.device = DeviceType::kNvm;
  config.channels = channels;
  config.clock_mhz = clock_mhz;
  config.cpu_freq_mhz = cpu_freq_mhz;

  // Paper: tRAS = 0 (no data restoration in NVM); tRCD swept per clock.
  config.timing.tRCD = tRCD;
  config.timing.tRAS = 0;
  config.timing.tRP = 4;   // array is non-destructive: cheap "close"
  config.timing.tCAS = 9;
  config.timing.tBURST = 4;
  // NVM cell writes are slow: write recovery dominates (PCM-style).
  config.timing.tWR = static_cast<std::uint32_t>(150ULL * clock_mhz / 1000);  // 150ns
  config.timing.tCCD = 4;
  config.timing.tRFC = 0;  // non-volatile: no refresh
  config.timing.tREFI = 0;

  // NVM energy: no refresh and a tiny static floor, but the interface
  // and sensing periphery scale with the controller clock — the paper's
  // NVM column rises from ~0.04 W at 400 MHz to ~0.15 W at 1600 MHz.
  config.energy.activate_nj = 0.3;
  config.energy.precharge_nj = 0.05;
  config.energy.read_nj = 0.6;
  config.energy.write_nj = 2.5;
  config.energy.refresh_nj = 0.0;
  config.energy.static_mw = 5.0;
  config.energy.background_mw_per_mhz = 0.09;
  return config;
}

const std::vector<std::uint32_t>& nvm_trcd_set(std::uint32_t clock_mhz) {
  static const std::vector<std::uint32_t> k400 = {20, 30, 40, 50, 60, 80};
  static const std::vector<std::uint32_t> k666 = {33, 50, 67, 83, 100, 133};
  static const std::vector<std::uint32_t> k1250 = {62, 94, 125, 156, 187, 250};
  static const std::vector<std::uint32_t> k1600 = {80, 120, 160, 200, 240, 320};
  switch (clock_mhz) {
    case 400:
      return k400;
    case 666:
      return k666;
    case 1250:
      return k1250;
    case 1600:
      return k1600;
    default:
      throw Error("no paper tRCD set for controller clock " +
                  std::to_string(clock_mhz) + " MHz");
  }
}

const std::vector<std::uint32_t>& paper_cpu_frequencies_mhz() {
  static const std::vector<std::uint32_t> k = {2000, 3000, 5000, 6500};
  return k;
}

const std::vector<std::uint32_t>& paper_controller_frequencies_mhz() {
  static const std::vector<std::uint32_t> k = {400, 666, 1250, 1600};
  return k;
}

const std::vector<std::uint32_t>& paper_channel_counts() {
  static const std::vector<std::uint32_t> k = {2, 4};
  return k;
}

}  // namespace gmd::memsim
