#include <gtest/gtest.h>

#include "gmd/memsim/channel.hpp"
#include "gmd/memsim/memory_system.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

/// Mixed trace: bursts of slow writes interleaved with reads.
std::vector<MemoryEvent> mixed_trace(std::size_t n = 1500) {
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tick += 8;
    // Every third access is a write burst member to distinct rows.
    const bool write = i % 3 == 0;
    const std::uint64_t address =
        write ? 0x400000 + (i % 29) * 16384 : 0x100000 + i * 64;
    trace.push_back({tick, address, 64, write});
  }
  return trace;
}

MemoryConfig nvm_with(bool prioritize) {
  MemoryConfig config = make_nvm_config(2, 666, 3000, 67);
  config.prioritize_reads = prioritize;
  return config;
}

/// Request-weighted average total latency on a single channel.  The
/// stats do not split latency by request type, but reads outnumber
/// writes 2:1 in the mixed trace, so the aggregate moves with them.
double mixed_latency(const MemoryConfig& config,
                     const std::vector<MemoryEvent>& trace) {
  MemoryConfig single = config;
  single.channels = 1;
  return MemorySystem::simulate(single, trace).avg_total_latency_cycles;
}

TEST(ReadPriority, ImprovesLatencyOnReadHeavyMix) {
  const auto trace = mixed_trace();
  const double without = mixed_latency(nvm_with(false), trace);
  const double with = mixed_latency(nvm_with(true), trace);
  // Reads are 2/3 of requests; letting them jump slow NVM writes must
  // reduce the request-weighted total latency.
  EXPECT_LT(with, without);
}

TEST(ReadPriority, AllRequestsStillComplete) {
  const auto trace = mixed_trace(600);
  const auto m = MemorySystem::simulate(nvm_with(true), trace);
  EXPECT_EQ(m.total_reads + m.total_writes, trace.size());
  EXPECT_EQ(m.total_writes, 200u);
}

TEST(ReadPriority, WritesDrainAtWatermark) {
  // All-write trace: with prioritization on, writes must still be
  // served (no reads to prefer, and the watermark forces drains).
  std::vector<MemoryEvent> writes;
  for (std::size_t i = 0; i < 300; ++i) {
    writes.push_back({i * 5, 0x100000 + i * 64, 64, true});
  }
  MemoryConfig config = nvm_with(true);
  config.write_drain_watermark = 4;
  const auto m = MemorySystem::simulate(config, writes);
  EXPECT_EQ(m.total_writes, 300u);
}

TEST(ReadPriority, OffByDefaultMatchesLegacyBehavior) {
  const MemoryConfig config = make_dram_config(2, 666, 3000);
  EXPECT_FALSE(config.prioritize_reads);
  const auto trace = mixed_trace(400);
  const auto a = MemorySystem::simulate(config, trace);
  MemoryConfig copy = config;
  const auto b = MemorySystem::simulate(copy, trace);
  EXPECT_EQ(a.metric_values(), b.metric_values());
}

}  // namespace
}  // namespace gmd::memsim
