/// Every simulation entry point held to the frozen outputs of the raw
/// event path (see event_path_golden.hpp): single-technology and
/// hybrid runs, every paper clock pair of one geometry, a wide bank
/// geometry, endurance, refresh with epoch series, sampled windows,
/// and the scheduler policy matrix.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "event_path_golden.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/memsim/address.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/sampled.hpp"

namespace gmd::memsim::golden {
namespace {

MemoryConfig single_config(DeviceType device, std::uint32_t channels,
                           std::uint32_t ctrl, std::uint32_t cpu) {
  return device == DeviceType::kDram
             ? make_dram_config(channels, ctrl, cpu)
             : make_nvm_config(channels, ctrl, cpu, nvm_trcd_set(ctrl)[1]);
}

TEST(EventPathGolden, MixedTrace) {
  const auto trace = mixed_trace();
  std::size_t i = 0;
  for (const DeviceType device : {DeviceType::kDram, DeviceType::kNvm}) {
    for (const std::uint32_t channels : {2u, 4u}) {
      const MemoryConfig config =
          device == DeviceType::kDram
              ? make_dram_config(channels, 666, 3000)
              : make_nvm_config(channels, 666, 3000, 40);
      expect_frozen(MemorySystem::simulate(config, trace), kMixed[i++]);
    }
  }
}

TEST(EventPathGolden, CornerTraceAtEveryPaperClockPair) {
  // One digest per geometry folds the 16 clock pairs' digests in paper
  // order; the readable values are the last pair's (1600/6500 MHz).
  std::size_t i = 0;
  for (const DeviceType device : {DeviceType::kDram, DeviceType::kNvm}) {
    for (const std::uint32_t channels : paper_channel_counts()) {
      const AddressDecoder decoder(single_config(device, channels, 400, 2000));
      const auto trace = corner_trace([&decoder](std::uint64_t address) {
        return decoder.decode(address).channel;
      });
      Fnv1a folded;
      MemoryMetrics last;
      for (const std::uint32_t ctrl : paper_controller_frequencies_mhz()) {
        for (const std::uint32_t cpu : paper_cpu_frequencies_mhz()) {
          last = MemorySystem::simulate(
              single_config(device, channels, ctrl, cpu), trace);
          folded.mix(metrics_digest(last));
        }
      }
      expect_frozen(last, folded.state, kCorner[i++]);
    }
  }
  i = 0;
  for (const std::uint32_t channels : paper_channel_counts()) {
    const HybridConfig built = make_hybrid_config(channels, 400, 2000, 20);
    const AddressDecoder dram(built.dram);
    const AddressDecoder nvm(built.nvm);
    const auto trace = corner_trace([&](std::uint64_t address) {
      return HybridMemory::static_routes_to_dram(built, address)
                 ? dram.decode(address).channel
                 : 64 + nvm.decode(address).channel;
    });
    Fnv1a folded;
    MemoryMetrics last;
    for (const std::uint32_t ctrl : paper_controller_frequencies_mhz()) {
      for (const std::uint32_t cpu : paper_cpu_frequencies_mhz()) {
        last = HybridMemory::simulate(
            make_hybrid_config(channels, ctrl, cpu, nvm_trcd_set(ctrl)[2]),
            trace);
        folded.mix(metrics_digest(last));
      }
    }
    expect_frozen(last, folded.state, kCornerHybrid[i++]);
  }
}

TEST(EventPathGolden, Hybrids) {
  const auto trace = mixed_trace();
  expect_frozen(
      HybridMemory::simulate(make_hybrid_config(4, 666, 3000, 40), trace),
      kHybridHalf);
  expect_frozen(HybridMemory::simulate(
                    make_hybrid_config(4, 666, 3000, 40, 0.25), trace),
                kHybridQuarter);
}

TEST(EventPathGolden, ManyBanksGeometry) {
  expect_frozen(
      MemorySystem::simulate(many_banks_config(), many_banks_trace()),
      kManyBanks);
}

TEST(EventPathGolden, Endurance) {
  const auto trace = endurance_trace();
  expect_frozen(MemorySystem::simulate(make_dram_config(2, 400, 2000), trace),
                kEndurance[0]);
  expect_frozen(
      MemorySystem::simulate(make_nvm_config(2, 400, 2000, 20), trace),
      kEndurance[1]);

  const HybridConfig config = make_hybrid_config(4, 400, 2000, 20);
  std::vector<MemoryEvent> dram_events;
  std::vector<MemoryEvent> nvm_events;
  for (const MemoryEvent& event : trace) {
    (HybridMemory::static_routes_to_dram(config, event.address) ? dram_events
                                                                 : nvm_events)
        .push_back(event);
  }
  expect_frozen(MemorySystem::simulate(config.dram, dram_events),
                kEnduranceHybridDramSide);
  expect_frozen(MemorySystem::simulate(config.nvm, nvm_events),
                kEnduranceHybridNvmSide);
  expect_frozen(HybridMemory::simulate(config, trace), kEnduranceHybrid);
}

TEST(EventPathGolden, RefreshAndEpochs) {
  MemoryConfig config = make_dram_config(2, 666, 3000);
  config.timing.tRFC = 160;
  config.timing.tREFI = 2000;
  config.epoch_cycles = 5000;
  const MemoryMetrics m = MemorySystem::simulate(config, mixed_trace());
  ASSERT_GT(m.epochs.size(), 1u);
  expect_frozen(m, kRefreshEpochs);
}

/// A sampled run's digest: the estimate, every interval and the counts.
std::uint64_t sampled_digest(const SampledMetrics& s) {
  Fnv1a h;
  h.mix(metrics_digest(s.estimate));
  for (const MetricInterval& ci : s.ci) {
    h.mix_double(ci.lo);
    h.mix_double(ci.hi);
  }
  h.mix(s.chunks_total);
  h.mix(s.chunks_sampled);
  h.mix(s.events_simulated);
  h.mix(s.events_measured);
  h.mix(s.exhaustive ? 1 : 0);
  return h.state;
}

TEST(EventPathGolden, Sampled) {
  const auto trace = mixed_trace(24000);
  const MemoryConfig config = make_dram_config(2, 666, 3000);
  SampledSimOptions options;
  options.fraction = 0.1;
  options.seed = 7;
  SpanChunkedTrace chunks(trace, 500);
  const SampledMetrics tenth = simulate_sampled(config, chunks, options);
  ASSERT_FALSE(tenth.exhaustive);
  ASSERT_EQ(tenth.chunks_sampled, 12u);
  expect_frozen(tenth.estimate, sampled_digest(tenth), kSampledTenth);

  // Every chunk sampled: one exhaustive run, endurance included.
  options.fraction = 1.0;
  const SampledMetrics all = simulate_sampled(config, chunks, options);
  ASSERT_TRUE(all.exhaustive);
  expect_frozen(all.estimate, sampled_digest(all), kSampledAll);
}

TEST(EventPathGolden, PolicyMatrix) {
  const auto trace = mixed_trace();
  std::size_t i = 0;
  for (const bool nvm : {false, true}) {
    for (const SchedulingPolicy scheduling :
         {SchedulingPolicy::kFcfs, SchedulingPolicy::kFrFcfs}) {
      for (const PagePolicy page : {PagePolicy::kOpen, PagePolicy::kClosed}) {
        for (const bool prio : {false, true}) {
          for (const std::uint32_t depth : {4u, 32u}) {
            const PolicyCell cell{nvm, scheduling, page, prio, depth};
            const Frozen& frozen = kPolicyMatrix[i++];
            ASSERT_EQ(cell.name(), frozen.name);
            expect_frozen(MemorySystem::simulate(cell.config(), trace),
                          frozen);
          }
        }
      }
    }
  }
  EXPECT_EQ(i, std::size(kPolicyMatrix));
}

}  // namespace
}  // namespace gmd::memsim::golden
