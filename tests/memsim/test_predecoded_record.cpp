/// The 16 B predecoded record: its size, the geometries whose channel
/// or flat-bank index does not fit it (refused when the stream is
/// constructed), and the endurance totals a stream counts once at
/// build, which must equal what the raw event path counts per write.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

/// Repeated writes to one line, 256 B writes that split across five
/// lines (unaligned, so the first and last words straddle), reads that
/// must not count, and wide writes that overlap the hot line.
std::vector<MemoryEvent> endurance_trace() {
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (int i = 0; i < 12; ++i) trace.push_back({tick += 5, 0x12340, 64, true});
  for (std::uint64_t i = 0; i < 40; ++i) {
    trace.push_back({tick += 3, 0x200020 + i * 0x1000, 256, true});
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    trace.push_back({tick += 2, 0x300000 + i * 64, 64, false});
  }
  for (int i = 0; i < 3; ++i) trace.push_back({tick += 7, 0x12320, 256, true});
  return trace;
}

void expect_config_error(const std::function<void()>& build) {
  try {
    build();
    ADD_FAILURE() << "expected Error(kConfig)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig) << e.what();
  }
}

TEST(PredecodedRecord, IsSixteenBytes) {
  EXPECT_EQ(sizeof(PredecodedTrace::Record), 16u);
}

TEST(PredecodedRecord, RefusesMoreChannelsThanTheFieldHolds) {
  const auto trace = endurance_trace();
  MemoryConfig config = make_dram_config(256, 400, 2000);
  EXPECT_EQ(PredecodedTrace::build(config, trace).size(),
            PredecodedTrace::build(make_dram_config(2, 400, 2000), trace)
                .size());
  config.channels = 257;
  // Refused at construction: even an empty stream is never built.
  expect_config_error([&] {
    PredecodedTrace::build(config, std::span<const MemoryEvent>{});
  });
  expect_config_error([&] { PredecodedTrace::build(config, trace); });
  // The raw path has no such field and still simulates it.
  EXPECT_GT(MemorySystem::simulate(config, trace).total_writes, 0u);

  HybridConfig hybrid = make_hybrid_config(4, 400, 2000, 20);
  hybrid.nvm.channels = 257;
  expect_config_error([&] { predecode_hybrid(hybrid, trace); });
}

TEST(PredecodedRecord, RefusesMoreBanksPerChannelThanTheFieldHolds) {
  const std::vector<MemoryEvent> trace = {{10, 0x1000, 64, false}};
  MemoryConfig config = make_dram_config(1, 400, 2000);
  config.ranks = 2;
  config.banks = 32768;  // 65,536 flat banks: the last index fits
  EXPECT_EQ(PredecodedTrace::build(config, trace).size(), 1u);
  config.banks = 32769;
  expect_config_error([&] { PredecodedTrace::build(config, trace); });
}

TEST(PredecodedRecord, FlatBanksPastOneByteReplayLikeRawEvents) {
  // 4 ranks x 128 banks: flat indexes up to 511 take both bytes of the
  // field, and the replay must still land each request on its bank.
  MemoryConfig config = make_nvm_config(2, 400, 2000, 20);
  config.ranks = 4;
  config.banks = 128;
  config.rows = 1024;
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    tick += 1 + i % 5;
    trace.push_back({tick, (i * 0x9E3779B97F4A7C15ULL) % (1ULL << 30) & ~63ULL,
                     i % 7 == 0 ? 256u : 64u, i % 3 == 0});
  }
  const MemoryMetrics raw = MemorySystem::simulate(config, trace);
  const MemoryMetrics replayed =
      MemorySystem::simulate(config, PredecodedTrace::build(config, trace));
  EXPECT_EQ(raw.metric_values(), replayed.metric_values());
  EXPECT_EQ(raw.row_hits, replayed.row_hits);
  EXPECT_EQ(raw.row_misses, replayed.row_misses);
  EXPECT_EQ(raw.execution_seconds, replayed.execution_seconds);
  EXPECT_EQ(raw.dynamic_energy_j, replayed.dynamic_energy_j);
}

TEST(PredecodedRecord, EnduranceCountedAtBuildMatchesRawEvents) {
  const auto trace = endurance_trace();
  for (const MemoryConfig& config : {make_dram_config(2, 400, 2000),
                                     make_nvm_config(2, 400, 2000, 20)}) {
    ASSERT_EQ(config.access_bytes(), 64u);
    const PredecodedTrace stream = PredecodedTrace::build(config, trace);
    // The hot line takes 12 narrow writes and one word of each of the 3
    // overlapping wide ones; the wide writes touch 40 x 5 fresh lines
    // plus 4 around the hot one.
    EXPECT_EQ(stream.max_line_writes, 15u) << config.name;
    EXPECT_EQ(stream.unique_lines_written, 205u) << config.name;
    const MemoryMetrics raw = MemorySystem::simulate(config, trace);
    EXPECT_EQ(raw.max_line_writes, stream.max_line_writes) << config.name;
    EXPECT_EQ(raw.unique_lines_written, stream.unique_lines_written)
        << config.name;
    const MemoryMetrics replayed = MemorySystem::simulate(config, stream);
    EXPECT_EQ(replayed.max_line_writes, raw.max_line_writes) << config.name;
    EXPECT_EQ(replayed.unique_lines_written, raw.unique_lines_written)
        << config.name;
  }
}

TEST(PredecodedRecord, HybridSidesCountTheirOwnEndurance) {
  const auto trace = endurance_trace();
  const HybridConfig config = make_hybrid_config(4, 400, 2000, 20);
  std::vector<MemoryEvent> dram_events;
  std::vector<MemoryEvent> nvm_events;
  for (const MemoryEvent& event : trace) {
    (HybridMemory::static_routes_to_dram(config, event.address) ? dram_events
                                                                 : nvm_events)
        .push_back(event);
  }
  const auto [dram, nvm] = predecode_hybrid(config, trace);
  const MemoryMetrics raw_dram = MemorySystem::simulate(config.dram,
                                                        dram_events);
  const MemoryMetrics raw_nvm = MemorySystem::simulate(config.nvm, nvm_events);
  // Both sides take writes, so both counts are exercised.
  EXPECT_GT(raw_dram.unique_lines_written, 0u);
  EXPECT_GT(raw_nvm.unique_lines_written, 0u);
  EXPECT_EQ(dram.max_line_writes, raw_dram.max_line_writes);
  EXPECT_EQ(dram.unique_lines_written, raw_dram.unique_lines_written);
  EXPECT_EQ(nvm.max_line_writes, raw_nvm.max_line_writes);
  EXPECT_EQ(nvm.unique_lines_written, raw_nvm.unique_lines_written);

  const MemoryMetrics merged = HybridMemory::simulate(config, dram, nvm);
  const MemoryMetrics raw = HybridMemory::simulate(config, trace);
  EXPECT_EQ(merged.max_line_writes, raw.max_line_writes);
  EXPECT_EQ(merged.unique_lines_written, raw.unique_lines_written);
  EXPECT_EQ(raw.unique_lines_written, 205u);
}

}  // namespace
}  // namespace gmd::memsim
