/// The 16 B predecoded record: its size, the geometries whose channel
/// or flat-bank index does not fit it (refused by config validation,
/// before any stream is built), and the endurance totals a stream
/// counts once at build, which must equal the retired raw event path's
/// frozen counts (event_path_golden.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "event_path_golden.hpp"
#include "gmd/common/error.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

using golden::endurance_trace;

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
  // Every entry refuses it up front: the config itself is invalid.
  expect_config_error([&] { config.validate(); });
  expect_config_error([&] { MemorySystem::simulate(config, trace); });

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
  const MemoryConfig config = golden::many_banks_config();
  const auto trace = golden::many_banks_trace();
  golden::expect_frozen(
      MemorySystem::simulate(config, PredecodedTrace::build(config, trace)),
      golden::kManyBanks);
}

TEST(PredecodedRecord, EnduranceCountedAtBuildMatchesRawEvents) {
  const auto trace = endurance_trace();
  const MemoryConfig configs[] = {make_dram_config(2, 400, 2000),
                                  make_nvm_config(2, 400, 2000, 20)};
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const MemoryConfig& config = configs[i];
    ASSERT_EQ(config.access_bytes(), 64u);
    const PredecodedTrace stream = PredecodedTrace::build(config, trace);
    // The hot line takes 12 narrow writes and one word of each of the 3
    // overlapping wide ones; the wide writes touch 40 x 5 fresh lines
    // plus 4 around the hot one.
    EXPECT_EQ(stream.max_line_writes, 15u) << config.name;
    EXPECT_EQ(stream.unique_lines_written, 205u) << config.name;
    const golden::Frozen& raw = golden::kEndurance[i];
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
  const HybridConfig config = make_hybrid_config(4, 400, 2000, 20);
  const auto [dram, nvm] = predecode_hybrid(config, endurance_trace());
  // The raw path's counts for each side's routed events.
  const golden::Frozen& raw_dram = golden::kEnduranceHybridDramSide;
  const golden::Frozen& raw_nvm = golden::kEnduranceHybridNvmSide;
  // Both sides take writes, so both counts are exercised.
  EXPECT_GT(raw_dram.unique_lines_written, 0u);
  EXPECT_GT(raw_nvm.unique_lines_written, 0u);
  EXPECT_EQ(dram.max_line_writes, raw_dram.max_line_writes);
  EXPECT_EQ(dram.unique_lines_written, raw_dram.unique_lines_written);
  EXPECT_EQ(nvm.max_line_writes, raw_nvm.max_line_writes);
  EXPECT_EQ(nvm.unique_lines_written, raw_nvm.unique_lines_written);

  const MemoryMetrics merged = HybridMemory::simulate(config, dram, nvm);
  const golden::Frozen& raw = golden::kEnduranceHybrid;
  EXPECT_EQ(merged.max_line_writes, raw.max_line_writes);
  EXPECT_EQ(merged.unique_lines_written, raw.unique_lines_written);
  EXPECT_EQ(raw.unique_lines_written, 205u);
}

}  // namespace
}  // namespace gmd::memsim
