/// Clock-free predecoded streams: a stream stores CPU ticks and replay
/// stamps controller cycles, so one stream built under any clock pair
/// must replay every paper (controller, CPU) pair bit-identically to
/// simulating the events under that pair (EventPathGolden holds both to
/// the retired raw event path's bits).  The traces cover the corners of
/// the stamp: wide events split into several requests that share one
/// cycle, repeated ticks, ticks out of order across channels, and ticks
/// whose product with the controller clock no longer fits in 64 bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "event_path_golden.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/memsim/address.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

using golden::address_in_lane;
using golden::corner_trace;

/// Every field a replay reports, compared exactly.
void expect_identical(const MemoryMetrics& a, const MemoryMetrics& b,
                      const std::string& id) {
  EXPECT_EQ(a.metric_values(), b.metric_values()) << id;
  EXPECT_EQ(a.total_reads, b.total_reads) << id;
  EXPECT_EQ(a.total_writes, b.total_writes) << id;
  EXPECT_EQ(a.row_hits, b.row_hits) << id;
  EXPECT_EQ(a.row_misses, b.row_misses) << id;
  EXPECT_EQ(a.execution_seconds, b.execution_seconds) << id;
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j) << id;
  EXPECT_EQ(a.background_energy_j, b.background_energy_j) << id;
  EXPECT_EQ(a.max_line_writes, b.max_line_writes) << id;
  EXPECT_EQ(a.unique_lines_written, b.unique_lines_written) << id;
}

/// A single-technology config of `device` at one paper clock pair.
MemoryConfig single_config(DeviceType device, std::uint32_t channels,
                           std::uint32_t ctrl, std::uint32_t cpu) {
  return device == DeviceType::kDram
             ? make_dram_config(channels, ctrl, cpu)
             : make_nvm_config(channels, ctrl, cpu, nvm_trcd_set(ctrl)[1]);
}

std::string clock_id(std::uint32_t ctrl, std::uint32_t cpu) {
  return std::to_string(ctrl) + "/" + std::to_string(cpu) + " MHz";
}

TEST(ClockFreeReplay, StampMatchesTheExactQuotient) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint32_t> clocks = paper_controller_frequencies_mhz();
  clocks.insert(clocks.end(), {1, 7, 4096, 0xffffffffu});
  std::vector<std::uint32_t> cpus = paper_cpu_frequencies_mhz();
  cpus.insert(cpus.end(), {1, 2, 3, 3333, 4096, 0x80000001u, 0xffffffffu});
  std::uint64_t state = 42;
  for (const std::uint32_t ctrl : clocks) {
    for (const std::uint32_t cpu : cpus) {
      MemoryConfig config;
      config.clock_mhz = ctrl;
      config.cpu_freq_mhz = cpu;
      const TickStamp stamp(config);
      // Both sides of the 64-bit limit of tick * clock and of the
      // stamp's scaled multiply (ticks below max / cpu).
      std::vector<std::uint64_t> ticks = {0,
                                          1,
                                          4999,
                                          max / ctrl,
                                          max / ctrl + 1,
                                          max / cpu - 1,
                                          max / cpu,
                                          max / cpu + 1,
                                          max / 2,
                                          max};
      for (int i = 0; i < 200; ++i) {
        ticks.push_back(splitmix64(state) >> (i % 64));
      }
      for (const std::uint64_t tick : ticks) {
        const auto exact = static_cast<std::uint64_t>(
            static_cast<__uint128_t>(tick) * ctrl / cpu);
        ASSERT_EQ(tick_to_memory_cycle(tick, ctrl, cpu), exact)
            << "tick " << tick << " at " << clock_id(ctrl, cpu);
        ASSERT_EQ(stamp(tick), exact)
            << "tick " << tick << " at " << clock_id(ctrl, cpu);
      }
    }
  }
}

TEST(ClockFreeReplay, KeyIgnoresClocksAndKeepsGeometry) {
  for (const DeviceType device : {DeviceType::kDram, DeviceType::kNvm}) {
    const std::string two =
        PredecodedTrace::key(single_config(device, 2, 400, 2000));
    const std::string four =
        PredecodedTrace::key(single_config(device, 4, 400, 2000));
    EXPECT_NE(two, four);
    for (const std::uint32_t ctrl : paper_controller_frequencies_mhz()) {
      for (const std::uint32_t cpu : paper_cpu_frequencies_mhz()) {
        EXPECT_EQ(PredecodedTrace::key(single_config(device, 2, ctrl, cpu)),
                  two)
            << clock_id(ctrl, cpu);
        EXPECT_EQ(PredecodedTrace::key(single_config(device, 4, ctrl, cpu)),
                  four)
            << clock_id(ctrl, cpu);
        EXPECT_EQ(hybrid_trace_key(make_hybrid_config(4, ctrl, cpu, 80)),
                  hybrid_trace_key(make_hybrid_config(4, 400, 2000, 20)))
            << clock_id(ctrl, cpu);
      }
    }
  }
  EXPECT_NE(hybrid_trace_key(make_hybrid_config(2, 400, 2000, 20)),
            hybrid_trace_key(make_hybrid_config(4, 400, 2000, 20)));
}

TEST(ClockFreeReplay, OneStreamReplaysEveryPaperClockPair) {
  for (const DeviceType device : {DeviceType::kDram, DeviceType::kNvm}) {
    for (const std::uint32_t channels : paper_channel_counts()) {
      const MemoryConfig built = single_config(device, channels, 1250, 6500);
      const AddressDecoder decoder(built);
      const auto trace = corner_trace([&decoder](std::uint64_t address) {
        return decoder.decode(address).channel;
      });
      const PredecodedTrace stream = PredecodedTrace::build(built, trace);
      for (const std::uint32_t ctrl : paper_controller_frequencies_mhz()) {
        for (const std::uint32_t cpu : paper_cpu_frequencies_mhz()) {
          const MemoryConfig config =
              single_config(device, channels, ctrl, cpu);
          expect_identical(MemorySystem::simulate(config, stream),
                           MemorySystem::simulate(config, trace),
                           to_string(device) + " x" + std::to_string(channels) +
                               " at " + clock_id(ctrl, cpu));
        }
      }
    }
  }
}

TEST(ClockFreeReplay, OneHybridSidePairReplaysEveryPaperClockPair) {
  for (const std::uint32_t channels : paper_channel_counts()) {
    const HybridConfig built = make_hybrid_config(channels, 1250, 6500, 100);
    const AddressDecoder dram(built.dram);
    const AddressDecoder nvm(built.nvm);
    const auto trace = corner_trace([&](std::uint64_t address) {
      return HybridMemory::static_routes_to_dram(built, address)
                 ? dram.decode(address).channel
                 : 64 + nvm.decode(address).channel;
    });
    const auto [dram_side, nvm_side] = predecode_hybrid(built, trace);
    ASSERT_GT(dram_side.size(), 0u);
    ASSERT_GT(nvm_side.size(), 0u);
    for (const std::uint32_t ctrl : paper_controller_frequencies_mhz()) {
      for (const std::uint32_t cpu : paper_cpu_frequencies_mhz()) {
        const HybridConfig config =
            make_hybrid_config(channels, ctrl, cpu, nvm_trcd_set(ctrl)[2]);
        expect_identical(HybridMemory::simulate(config, dram_side, nvm_side),
                         HybridMemory::simulate(config, trace),
                         "hybrid x" + std::to_string(channels) + " at " +
                             clock_id(ctrl, cpu));
      }
    }
  }
}

TEST(ClockFreeReplay, BackwardTickOnOneChannelIsRejectedLikeTheRawPath) {
  // Two events on one channel whose tick goes backwards.  The raw path
  // refuses them; the predecoded replay stamps the same cycles, so it
  // must refuse them too instead of reporting metrics.
  const MemoryConfig config = make_dram_config(2, 666, 3000);
  const AddressDecoder decoder(config);
  ASSERT_EQ(decoder.decode(0).channel, decoder.decode(128).channel);
  const std::vector<MemoryEvent> trace = {{3000, 0, 64, false},
                                          {30, 128, 64, false}};
  EXPECT_THROW(MemorySystem::simulate(config, trace), Error);
  EXPECT_THROW(
      MemorySystem::simulate(config, PredecodedTrace::build(config, trace)),
      Error);

  const HybridConfig hybrid = make_hybrid_config(2, 666, 3000, 40);
  const std::uint64_t nvm = address_in_lane(
      [&](std::uint64_t address) {
        return HybridMemory::static_routes_to_dram(hybrid, address) ? 0u : 1u;
      },
      1, 0);
  const std::vector<MemoryEvent> nvm_trace = {{3000, nvm, 64, false},
                                              {30, nvm, 64, false}};
  EXPECT_THROW(HybridMemory::simulate(hybrid, nvm_trace), Error);
  const auto [dram_side, nvm_side] = predecode_hybrid(hybrid, nvm_trace);
  EXPECT_THROW(HybridMemory::simulate(hybrid, dram_side, nvm_side), Error);
}

}  // namespace
}  // namespace gmd::memsim
