#include "gmd/memsim/memory_system.hpp"

#include <gtest/gtest.h>

#include <vector>


namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

MemoryConfig small_config() {
  MemoryConfig config = make_dram_config(2, 400, 2000);
  config.rows = 512;  // keep the address map small for tests
  return config;
}

/// A synthetic streaming trace: `n` 64-byte accesses, stride apart,
/// every fourth one a write, spaced `gap` CPU ticks.
std::vector<MemoryEvent> stream_trace(std::size_t n, std::uint64_t stride = 64,
                                      std::uint64_t gap = 20) {
  std::vector<MemoryEvent> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace.push_back({i * gap, 0x100000 + i * stride, 64, i % 4 == 3});
  }
  return trace;
}

TEST(MemorySystem, TickScalingFollowsClockRatio) {
  MemoryConfig config = small_config();
  config.cpu_freq_mhz = 2000;
  config.clock_mhz = 400;
  EXPECT_EQ(tick_to_memory_cycle(config, 0), 0u);
  EXPECT_EQ(tick_to_memory_cycle(config, 2000), 400u);
  EXPECT_EQ(tick_to_memory_cycle(config, 5), 1u);
}

TEST(MemorySystem, CountsReadsAndWrites) {
  const auto trace = stream_trace(100);
  const MemoryMetrics m = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(m.total_reads, 75u);
  EXPECT_EQ(m.total_writes, 25u);
  EXPECT_DOUBLE_EQ(m.avg_reads_per_channel, 37.5);
  EXPECT_DOUBLE_EQ(m.avg_writes_per_channel, 12.5);
}

TEST(MemorySystem, ReadsPerChannelHalveWithDoubleChannels) {
  const auto trace = stream_trace(400);
  const MemoryMetrics two =
      MemorySystem::simulate(make_dram_config(2, 400, 2000), trace);
  const MemoryMetrics four =
      MemorySystem::simulate(make_dram_config(4, 400, 2000), trace);
  EXPECT_DOUBLE_EQ(two.avg_reads_per_channel,
                   2.0 * four.avg_reads_per_channel);
  EXPECT_DOUBLE_EQ(two.avg_writes_per_channel,
                   2.0 * four.avg_writes_per_channel);
}

TEST(MemorySystem, BandwidthPerBankHalvesWithDoubleChannels) {
  const auto trace = stream_trace(4000, 64, 10);
  const MemoryMetrics two =
      MemorySystem::simulate(make_dram_config(2, 1250, 5000), trace);
  const MemoryMetrics four =
      MemorySystem::simulate(make_dram_config(4, 1250, 5000), trace);
  // Same bytes over ~the same time, spread over twice the banks.
  EXPECT_NEAR(four.avg_bandwidth_per_bank_mbs,
              two.avg_bandwidth_per_bank_mbs / 2.0,
              two.avg_bandwidth_per_bank_mbs * 0.1);
}

TEST(MemorySystem, BandwidthGrowsWithCpuFrequency) {
  // Sparse arrivals (one access per 200 CPU ticks) keep the memory
  // system under capacity, so wall time — and hence bandwidth — tracks
  // the CPU clock rather than the service rate.
  const auto trace = stream_trace(4000, 64, 200);
  const MemoryMetrics slow =
      MemorySystem::simulate(make_dram_config(2, 1250, 2000), trace);
  const MemoryMetrics fast =
      MemorySystem::simulate(make_dram_config(2, 1250, 6500), trace);
  EXPECT_GT(fast.avg_bandwidth_per_bank_mbs,
            slow.avg_bandwidth_per_bank_mbs * 2.0);
}

TEST(MemorySystem, WideAccessSplitsIntoWords) {
  const std::vector<MemoryEvent> trace = {{0, 0x1000, 256, false}};  // 4 words
  const MemoryMetrics m = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(m.total_reads, 4u);
}

TEST(MemorySystem, UnalignedAccessTouchesBothWords) {
  // Straddles 0x1000/0x1040.
  const std::vector<MemoryEvent> trace = {{0, 0x103C, 8, false}};
  const MemoryMetrics m = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(m.total_reads, 2u);
}

TEST(MemorySystem, NvmWritesSlowerThanDram) {
  // Write-heavy trace to one bank: NVM's write recovery must show up in
  // total latency.
  std::vector<MemoryEvent> trace;
  for (std::size_t i = 0; i < 200; ++i) {
    trace.push_back({i * 4, 0x1000 + (i % 4) * 128 * 512, 64, true});
  }
  const MemoryMetrics dram =
      MemorySystem::simulate(make_dram_config(2, 400, 2000), trace);
  const MemoryMetrics nvm = MemorySystem::simulate(
      make_nvm_config(2, 400, 2000, /*tRCD=*/20), trace);
  EXPECT_GT(nvm.avg_total_latency_cycles, 2.0 * dram.avg_total_latency_cycles);
}

TEST(MemorySystem, DramPowerExceedsNvmAtLowClock) {
  const auto trace = stream_trace(2000);
  const MemoryMetrics dram =
      MemorySystem::simulate(make_dram_config(2, 400, 2000), trace);
  const MemoryMetrics nvm =
      MemorySystem::simulate(make_nvm_config(2, 400, 2000, 20), trace);
  EXPECT_GT(dram.avg_power_per_channel_w, nvm.avg_power_per_channel_w);
}

TEST(MemorySystem, NvmPowerGrowsWithControllerClock) {
  const auto trace = stream_trace(2000);
  const MemoryMetrics slow =
      MemorySystem::simulate(make_nvm_config(2, 400, 2000, 20), trace);
  const MemoryMetrics fast =
      MemorySystem::simulate(make_nvm_config(2, 1600, 2000, 80), trace);
  EXPECT_GT(fast.avg_power_per_channel_w,
            1.5 * slow.avg_power_per_channel_w);
}

TEST(MemorySystem, EnduranceTracksHottestLine) {
  std::vector<MemoryEvent> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back({static_cast<std::uint64_t>(i * 100), 0x4000, 8, true});
  }
  trace.push_back({2000, 0x8000, 8, true});
  const MemoryMetrics m = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(m.max_line_writes, 10u);
  EXPECT_EQ(m.unique_lines_written, 2u);
}

TEST(MemorySystem, RowHitRateHighForSequentialTrace) {
  const auto trace = stream_trace(2000, 64, 50);
  const MemoryMetrics m =
      MemorySystem::simulate(make_dram_config(2, 400, 2000), trace);
  EXPECT_GT(m.row_hit_rate(), 0.8);
}

TEST(MemorySystem, EmptyTraceYieldsZeroMetrics) {
  const MemoryMetrics m = MemorySystem::simulate(
      small_config(), std::span<const cpusim::MemoryEvent>{});
  EXPECT_EQ(m.total_reads, 0u);
  EXPECT_EQ(m.execution_seconds, 0.0);
  EXPECT_EQ(m.avg_power_per_channel_w, 0.0);
  EXPECT_EQ(m.avg_bandwidth_per_bank_mbs, 0.0);
}

TEST(MemorySystem, MetricValuesMatchNames) {
  const auto trace = stream_trace(100);
  const MemoryMetrics m = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(MemoryMetrics::metric_names().size(), m.metric_values().size());
  EXPECT_DOUBLE_EQ(m.metric_values()[0], m.avg_power_per_channel_w);
  EXPECT_DOUBLE_EQ(m.metric_values()[4], m.avg_reads_per_channel);
}

TEST(MemorySystem, DescribeMentionsChannels) {
  const MemoryMetrics m =
      MemorySystem::simulate(small_config(), stream_trace(10));
  EXPECT_NE(m.describe().find("channels"), std::string::npos);
}

TEST(MemorySystem, DeterministicAcrossRuns) {
  const auto trace = stream_trace(500);
  const MemoryMetrics a = MemorySystem::simulate(small_config(), trace);
  const MemoryMetrics b = MemorySystem::simulate(small_config(), trace);
  EXPECT_EQ(a.metric_values(), b.metric_values());
}

}  // namespace
}  // namespace gmd::memsim
