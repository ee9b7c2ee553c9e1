#include "gmd/memsim/hybrid.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gmd/common/error.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

std::vector<MemoryEvent> stream_trace(std::size_t n) {
  std::vector<MemoryEvent> trace;
  for (std::size_t i = 0; i < n; ++i) {
    trace.push_back({i * 20, 0x100000 + i * 64, 64, i % 4 == 3});
  }
  return trace;
}

TEST(HybridConfig, PresetSplitsChannelsEvenly) {
  const HybridConfig config = make_hybrid_config(4, 666, 3000, 50);
  EXPECT_EQ(config.dram.channels, 2u);
  EXPECT_EQ(config.nvm.channels, 2u);
  EXPECT_EQ(config.total_channels(), 4u);
  EXPECT_NO_THROW(config.validate());
}

TEST(HybridConfig, RejectsOddChannelsAndBadFraction) {
  EXPECT_THROW(make_hybrid_config(3, 400, 2000, 20), Error);
  HybridConfig config = make_hybrid_config(2, 400, 2000, 20);
  config.dram_fraction = 0.0;
  EXPECT_THROW(config.validate(), Error);
  config.dram_fraction = 1.0;
  EXPECT_THROW(config.validate(), Error);
}

TEST(HybridConfig, RejectsSwappedTechnologies) {
  HybridConfig config = make_hybrid_config(2, 400, 2000, 20);
  std::swap(config.dram, config.nvm);
  EXPECT_THROW(config.validate(), Error);
}

TEST(HybridMemory, RoutingIsDeterministicAndPageGranular) {
  const HybridConfig config = make_hybrid_config(2, 400, 2000, 20);
  const auto routes_to_dram = [&config](std::uint64_t address) {
    return HybridMemory::static_routes_to_dram(config, address);
  };
  for (std::uint64_t page = 0; page < 64; ++page) {
    const std::uint64_t base = page * config.page_bytes;
    const bool first = routes_to_dram(base);
    // All addresses in one page route the same way.
    EXPECT_EQ(routes_to_dram(base + 64), first);
    EXPECT_EQ(routes_to_dram(base + config.page_bytes - 1), first);
  }
}

TEST(HybridMemory, FractionControlsDramShare) {
  HybridConfig low = make_hybrid_config(2, 400, 2000, 20);
  low.dram_fraction = 0.2;
  HybridConfig high = make_hybrid_config(2, 400, 2000, 20);
  high.dram_fraction = 0.8;
  int low_hits = 0, high_hits = 0;
  for (std::uint64_t page = 0; page < 2000; ++page) {
    const std::uint64_t addr = page * 4096;
    low_hits += HybridMemory::static_routes_to_dram(low, addr) ? 1 : 0;
    high_hits += HybridMemory::static_routes_to_dram(high, addr) ? 1 : 0;
  }
  EXPECT_NEAR(low_hits / 2000.0, 0.2, 0.05);
  EXPECT_NEAR(high_hits / 2000.0, 0.8, 0.05);
}

TEST(HybridMemory, AllRequestsAccounted) {
  const HybridConfig config = make_hybrid_config(2, 400, 2000, 20);
  const auto trace = stream_trace(1000);
  const MemoryMetrics m = HybridMemory::simulate(config, trace);
  EXPECT_EQ(m.total_reads + m.total_writes, 1000u);
  EXPECT_EQ(m.channels, 2u);
}

TEST(HybridMemory, PowerBetweenPureDramAndPureNvm) {
  const auto trace = stream_trace(4000);
  const MemoryMetrics dram =
      MemorySystem::simulate(make_dram_config(2, 400, 2000), trace);
  const MemoryMetrics nvm =
      MemorySystem::simulate(make_nvm_config(2, 400, 2000, 20), trace);
  const MemoryMetrics hybrid =
      HybridMemory::simulate(make_hybrid_config(2, 400, 2000, 20), trace);
  EXPECT_LT(hybrid.avg_power_per_channel_w, dram.avg_power_per_channel_w);
  EXPECT_GT(hybrid.avg_power_per_channel_w, nvm.avg_power_per_channel_w);
}

TEST(HybridMemory, LatencyIsRequestWeighted) {
  const auto trace = stream_trace(2000);
  const MemoryMetrics m =
      HybridMemory::simulate(make_hybrid_config(2, 666, 3000, 67), trace);
  EXPECT_GT(m.avg_latency_cycles, 0.0);
  EXPECT_GE(m.avg_total_latency_cycles, m.avg_latency_cycles);
}

TEST(HybridMemory, EnduranceMergesBothSides) {
  const HybridConfig config = make_hybrid_config(2, 400, 2000, 20);
  // Write the same line repeatedly plus one distinct line.
  std::vector<MemoryEvent> trace;
  for (int i = 0; i < 7; ++i) {
    trace.push_back({static_cast<std::uint64_t>(i * 100), 0x2000, 8, true});
  }
  trace.push_back({1000, 0x900000, 8, true});
  const MemoryMetrics m = HybridMemory::simulate(config, trace);
  EXPECT_EQ(m.max_line_writes, 7u);
  EXPECT_EQ(m.unique_lines_written, 2u);
}

TEST(HybridMemory, DeterministicAcrossRuns) {
  const auto trace = stream_trace(500);
  const HybridConfig config = make_hybrid_config(4, 1250, 5000, 125);
  const MemoryMetrics a = HybridMemory::simulate(config, trace);
  const MemoryMetrics b = HybridMemory::simulate(config, trace);
  EXPECT_EQ(a.metric_values(), b.metric_values());
}

}  // namespace
}  // namespace gmd::memsim
