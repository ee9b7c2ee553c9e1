/// Golden-equivalence suite: the bitmask-window fast scheduler must be
/// bit-identical to the original scan-and-erase reference scheduler
/// (MemSimOptions::reference_mode) on every policy combination, and a
/// shared predecoded-trace replay must reproduce the retired raw event
/// path's frozen bits (event_path_golden.hpp).  Any divergence here
/// means the fast path changed simulated behaviour, not just speed.
/// The replay's cooperative deadline polling is checked here too: a
/// live token must not perturb a single bit.

#include <gtest/gtest.h>

#include <tuple>

#include "event_path_golden.hpp"
#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"

namespace gmd::memsim {
namespace {

using cpusim::MemoryEvent;

using golden::mixed_trace;

/// Full-surface comparison: every scalar metric, every counter, and the
/// whole epoch series.  EXPECT_EQ on doubles is deliberate — the fast
/// path must make the *same* floating-point computations, not merely
/// close ones.
void expect_identical(const MemoryMetrics& a, const MemoryMetrics& b) {
  EXPECT_EQ(a.metric_values(), b.metric_values());
  EXPECT_EQ(a.total_reads, b.total_reads);
  EXPECT_EQ(a.total_writes, b.total_writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.execution_seconds, b.execution_seconds);
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_EQ(a.background_energy_j, b.background_energy_j);
  EXPECT_EQ(a.max_line_writes, b.max_line_writes);
  EXPECT_EQ(a.unique_lines_written, b.unique_lines_written);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].reads, b.epochs[e].reads) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].writes, b.epochs[e].writes) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].avg_total_latency_cycles,
              b.epochs[e].avg_total_latency_cycles)
        << "epoch " << e;
    EXPECT_EQ(a.epochs[e].bandwidth_mbs, b.epochs[e].bandwidth_mbs)
        << "epoch " << e;
  }
}

MemoryMetrics run_reference(MemoryConfig config,
                            std::span<const MemoryEvent> trace) {
  config.sim.reference_mode = true;
  return MemorySystem::simulate(config, trace);
}

// Axes: (is_nvm, scheduling, page_policy, prioritize_reads, queue_depth).
using EquivTuple = std::tuple<bool, SchedulingPolicy, PagePolicy, bool,
                              std::uint32_t>;

golden::PolicyCell cell_of(const EquivTuple& param) {
  const auto [is_nvm, scheduling, page, prio, depth] = param;
  return {is_nvm, scheduling, page, prio, depth};
}

class FastVsReference : public testing::TestWithParam<EquivTuple> {
 protected:
  MemoryConfig make_config() const { return cell_of(GetParam()).config(); }
};

TEST_P(FastVsReference, IdenticalMetrics) {
  const MemoryConfig config = make_config();
  const auto trace = mixed_trace();
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST_P(FastVsReference, IdenticalMetricsPredecoded) {
  // A shared stream replays to the retired event path's frozen bits.
  const golden::PolicyCell cell = cell_of(GetParam());
  const MemoryConfig config = cell.config();
  const auto predecoded = PredecodedTrace::build(config, mixed_trace());
  golden::expect_frozen(MemorySystem::simulate(config, predecoded),
                        golden::frozen_for(cell));
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, FastVsReference,
    testing::Combine(testing::Bool(),  // DRAM / NVM
                     testing::Values(SchedulingPolicy::kFcfs,
                                     SchedulingPolicy::kFrFcfs),
                     testing::Values(PagePolicy::kOpen, PagePolicy::kClosed),
                     testing::Bool(),            // prioritize_reads
                     testing::Values(4u, 32u)),  // tight vs default queue
    [](const testing::TestParamInfo<EquivTuple>& info) {
      return cell_of(info.param).name();
    });

TEST(FastVsReferenceExtra, RefreshEnabled) {
  // The presets ship with refresh off; force a short tREFI so the
  // cached-refresh-window fast path sees many windows.
  MemoryConfig config = make_dram_config(2, 666, 3000);
  config.timing.tRFC = 160;
  config.timing.tREFI = 2000;
  const auto trace = mixed_trace();
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST(FastVsReferenceExtra, EpochSeries) {
  MemoryConfig config = make_dram_config(2, 666, 3000);
  config.epoch_cycles = 5000;
  const auto trace = mixed_trace();
  const MemoryMetrics fast = MemorySystem::simulate(config, trace);
  ASSERT_GT(fast.epochs.size(), 1u);
  expect_identical(fast, run_reference(config, trace));
}

TEST(FastVsReferenceExtra, WriteDrainWatermark) {
  // Read priority with a low watermark forces many drain transitions,
  // the case where the fast path's arrival-horizon cache must retreat.
  MemoryConfig config = make_nvm_config(2, 666, 3000, 40);
  config.prioritize_reads = true;
  config.write_drain_watermark = 4;
  const auto trace = mixed_trace();
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST(FastVsReferenceExtra, SingleEntryQueue) {
  // queue_depth 1 degenerates to serial service; back-pressure on
  // every enqueue.
  MemoryConfig config = make_dram_config(1, 400, 2000);
  config.queue_depth = 1;
  const auto trace = mixed_trace(500);
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST(FastVsReferenceExtra, DeepQueueFallsBackToReference) {
  // Depths beyond the 64-slot window run the reference scheduler even
  // without the flag; results must still match the flagged run.
  MemoryConfig config = make_dram_config(2, 666, 3000);
  config.queue_depth = 64;
  const auto trace = mixed_trace();
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST(FastVsReferenceExtra, AlternateAddressMapping) {
  // Bank-finer-than-channel interleave spreads a stream across banks,
  // changing which bank masks stay populated.
  MemoryConfig config = make_dram_config(2, 666, 3000);
  config.address_mapping = "R:RK:CH:BK:C";
  const auto trace = mixed_trace();
  expect_identical(MemorySystem::simulate(config, trace),
                   run_reference(config, trace));
}

TEST(HybridEquivalence, FastVsReference) {
  HybridConfig config = make_hybrid_config(4, 666, 3000, 40);
  const auto trace = mixed_trace();
  const MemoryMetrics fast = HybridMemory::simulate(config, trace);
  HybridConfig ref = config;
  ref.dram.sim.reference_mode = true;
  ref.nvm.sim.reference_mode = true;
  expect_identical(fast, HybridMemory::simulate(ref, trace));
}

TEST(HybridEquivalence, PredecodedVsEventPath) {
  // Shared side streams replay to the retired event path's frozen bits.
  const HybridConfig config = make_hybrid_config(4, 666, 3000, 40);
  const auto [dram_side, nvm_side] = predecode_hybrid(config, mixed_trace());
  golden::expect_frozen(HybridMemory::simulate(config, dram_side, nvm_side),
                        golden::kHybridHalf);
}

TEST(HybridEquivalence, UnevenSplitPredecoded) {
  HybridConfig config = make_hybrid_config(4, 666, 3000, 40, 0.25);
  const auto [dram_side, nvm_side] = predecode_hybrid(config, mixed_trace());
  golden::expect_frozen(HybridMemory::simulate(config, dram_side, nvm_side),
                        golden::kHybridQuarter);
}

// Deadlines in the predecoded replay ---------------------------------

TEST(ReplayDeadline, CancellationFiresPromptly) {
  MemoryConfig config = make_dram_config(4, 666, 3000);
  const auto predecoded = PredecodedTrace::build(config, mixed_trace(4000));
  Deadline deadline;  // budget-less: only cancel() fires
  deadline.cancel();
  config.sim.deadline = &deadline;
  try {
    MemorySystem::simulate(config, predecoded);
    FAIL() << "cancelled simulation must not complete";
  } catch (const gmd::Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kCancelled);
  }
}

TEST(ReplayDeadline, ExpiredBudgetFires) {
  MemoryConfig config = make_dram_config(4, 666, 3000);
  // Deep queue: back-pressure polls are rare, so the expiry must still
  // be caught before the replay completes (at the latest by drain).
  config.queue_depth = 48;
  const auto predecoded = PredecodedTrace::build(config, mixed_trace(20000));
  Deadline deadline(std::chrono::nanoseconds(0));  // already expired
  config.sim.deadline = &deadline;
  try {
    MemorySystem::simulate(config, predecoded);
    FAIL() << "expired simulation must not complete";
  } catch (const gmd::Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kTimeout);
  }
}

TEST(ReplayDeadline, UncancelledTokenDoesNotPerturbResults) {
  MemoryConfig config = make_dram_config(4, 666, 3000);
  const auto predecoded = PredecodedTrace::build(config, mixed_trace());
  const MemoryMetrics baseline = MemorySystem::simulate(config, predecoded);
  Deadline deadline;
  config.sim.deadline = &deadline;
  expect_identical(MemorySystem::simulate(config, predecoded), baseline);
}

}  // namespace
}  // namespace gmd::memsim
