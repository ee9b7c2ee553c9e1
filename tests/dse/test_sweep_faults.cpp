/// Fault-tolerant sweep execution: failure policies, deadlines,
/// validation, and checkpoint/resume.  All faults are injected through
/// SweepOptions::fault_hook so every path is deterministic.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

std::vector<cpusim::MemoryEvent> small_trace() {
  graph::UniformRandomParams params;
  params.num_vertices = 64;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

std::vector<DesignPoint> small_space() {
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm};
  axes.cpu_freqs_mhz = {2000, 3000};
  axes.ctrl_freqs_mhz = {400};
  axes.channel_counts = {2};
  axes.trcds = {20};
  return enumerate_grid(axes);
}

TEST(SweepFaults, FailFastRethrowsInjectedFault) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;  // failure_policy defaults to kFailFast
  options.num_threads = 2;
  options.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 1) throw Error(ErrorCode::kSimulation, "injected fault");
  };
  EXPECT_THROW(run_sweep(points, trace, options), Error);
}

TEST(SweepFaults, SkipPolicyIsolatesTheFailedPoint) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;
  options.num_threads = 2;
  options.failure_policy = FailurePolicy::kSkip;
  options.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 1) throw Error(ErrorCode::kSimulation, "injected fault");
  };
  const auto rows = run_sweep(points, trace, options);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(rows[i].outcome, PointOutcome::kFailed);
      EXPECT_EQ(rows[i].error_code, ErrorCode::kSimulation);
      EXPECT_NE(rows[i].error.find("injected fault"), std::string::npos);
      EXPECT_EQ(rows[i].attempts, 1u);
    } else {
      EXPECT_TRUE(rows[i].ok()) << rows[i].point.id();
      EXPECT_GT(rows[i].metrics.total_reads, 0u);
    }
  }
  const SweepHealth health = summarize_health(rows);
  EXPECT_EQ(health.ok, rows.size() - 1);
  EXPECT_EQ(health.failed, 1u);
  EXPECT_FALSE(health.all_ok());
  EXPECT_NE(health.summary().find("1 failed"), std::string::npos);
  EXPECT_NE(health.summary().find("simulation=1"), std::string::npos);
}

TEST(SweepFaults, FullSpaceSkipCompletesAllButTheFaultedPoint) {
  // Acceptance scenario: 416 paper points, injected fault at index 200
  // under skip-and-report -> 415 ok rows and exactly one typed failure.
  const auto trace = small_trace();
  const auto points = paper_design_space();
  ASSERT_EQ(points.size(), 416u);
  SweepOptions options;
  options.failure_policy = FailurePolicy::kSkip;
  options.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 200) throw Error(ErrorCode::kSimulation, "injected fault");
  };
  const auto rows = run_sweep(points, trace, options);
  const SweepHealth health = summarize_health(rows);
  EXPECT_EQ(health.total, 416u);
  EXPECT_EQ(health.ok, 415u);
  EXPECT_EQ(health.failed, 1u);
  EXPECT_EQ(rows[200].outcome, PointOutcome::kFailed);
  EXPECT_EQ(rows[200].error_code, ErrorCode::kSimulation);
}

TEST(SweepFaults, RetryPolicyRecoversFromTransientFaults) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;
  options.num_threads = 1;
  options.failure_policy = FailurePolicy::kRetry;
  options.max_attempts = 3;
  options.fault_hook = [](std::size_t i, std::uint32_t attempt) {
    if (i == 0 && attempt < 3) throw Error("transient");
  };
  const auto rows = run_sweep(points, trace, options);
  EXPECT_TRUE(rows[0].ok());
  EXPECT_EQ(rows[0].attempts, 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].attempts, 1u);
  }
  EXPECT_EQ(summarize_health(rows).retries, 2u);
}

TEST(SweepFaults, RetryGivesUpAfterMaxAttempts) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;
  options.num_threads = 1;
  options.failure_policy = FailurePolicy::kRetry;
  options.max_attempts = 2;
  options.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 0) throw Error("persistent");
  };
  const auto rows = run_sweep(points, trace, options);
  EXPECT_EQ(rows[0].outcome, PointOutcome::kFailed);
  EXPECT_EQ(rows[0].attempts, 2u);
}

TEST(SweepFaults, ConfigErrorsAreNeverRetried) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;
  options.num_threads = 1;
  options.failure_policy = FailurePolicy::kRetry;
  options.max_attempts = 5;
  std::atomic<int> calls{0};
  options.fault_hook = [&calls](std::size_t i, std::uint32_t) {
    if (i == 0) {
      ++calls;
      throw Error(ErrorCode::kConfig, "deterministic misconfiguration");
    }
  };
  const auto rows = run_sweep(points, trace, options);
  EXPECT_EQ(rows[0].outcome, PointOutcome::kFailed);
  EXPECT_EQ(rows[0].error_code, ErrorCode::kConfig);
  EXPECT_EQ(rows[0].attempts, 1u);
  EXPECT_EQ(calls.load(), 1);
}

TEST(SweepFaults, ValidationRejectsBadPointsBeforeSimulation) {
  const auto trace = small_trace();
  std::vector<DesignPoint> points = small_space();
  DesignPoint bad;
  bad.channels = 0;
  points.push_back(bad);

  // Fail-fast: the sweep aborts with a config error before simulating.
  try {
    run_sweep(points, trace);
    FAIL() << "invalid point must abort a fail-fast sweep";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }

  // Skip: the bad point is recorded (zero attempts) and the rest run.
  SweepOptions skip;
  skip.failure_policy = FailurePolicy::kSkip;
  const auto rows = run_sweep(points, trace, skip);
  const SweepRow& bad_row = rows.back();
  EXPECT_EQ(bad_row.outcome, PointOutcome::kFailed);
  EXPECT_EQ(bad_row.error_code, ErrorCode::kConfig);
  EXPECT_EQ(bad_row.attempts, 0u);
  EXPECT_NE(bad_row.error.find("invalid design point"), std::string::npos);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].ok());
  }
}

TEST(SweepFaults, ValidateRejectsOddHybridChannels) {
  DesignPoint odd;
  odd.kind = MemoryKind::kHybrid;
  odd.channels = 3;
  odd.trcd = 20;
  try {
    validate(odd);
    FAIL() << "odd hybrid channel count must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find(odd.id()), std::string::npos);
  }
}

TEST(SweepFaults, DeadlineCancelsStuckPointMidDrain) {
  const auto trace = small_trace();
  const auto points = small_space();
  SweepOptions options;
  options.num_threads = 1;
  options.failure_policy = FailurePolicy::kSkip;
  // Budget generous enough that healthy points always finish (also
  // under sanitizers); the stalled point sleeps well past it.
  options.point_wall_budget = std::chrono::milliseconds(250);
  options.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  const auto rows = run_sweep(points, trace, options);
  EXPECT_EQ(rows[0].outcome, PointOutcome::kTimedOut);
  EXPECT_EQ(rows[0].error_code, ErrorCode::kTimeout);
  EXPECT_EQ(rows[0].attempts, 1u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].ok()) << rows[i].point.id();
  }
  EXPECT_EQ(summarize_health(rows).timed_out, 1u);
}

TEST(SweepFaults, CancelledSweepSkipsEveryPoint) {
  const auto trace = small_trace();
  const auto points = small_space();
  Deadline cancel;
  cancel.cancel();
  SweepOptions options;
  options.failure_policy = FailurePolicy::kSkip;
  options.cancel = &cancel;
  const auto rows = run_sweep(points, trace, options);
  for (const SweepRow& row : rows) {
    EXPECT_EQ(row.outcome, PointOutcome::kSkipped);
    EXPECT_EQ(row.error_code, ErrorCode::kCancelled);
  }
  EXPECT_EQ(summarize_health(rows).skipped, rows.size());
}

TEST(SweepFaults, CheckpointResumeIsBitIdenticalAndSimulatesOnlyTheRest) {
  const auto trace = small_trace();
  const auto points = small_space();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sweep_resume_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());

  // Reference: clean uninterrupted sweep, default options.
  const auto reference = run_sweep(points, trace);

  // First run: journal everything, but point 2 fails (as if the process
  // had been killed while it was in flight).
  SweepOptions first;
  first.num_threads = 2;
  first.failure_policy = FailurePolicy::kSkip;
  first.checkpoint_path = journal_path;
  first.fault_hook = [](std::size_t i, std::uint32_t) {
    if (i == 2) throw Error("killed here");
  };
  const auto partial = run_sweep(points, trace, first);
  EXPECT_FALSE(partial[2].ok());

  // Resume: only the missing point may be simulated again.
  SweepOptions second;
  second.num_threads = 2;
  second.checkpoint_path = journal_path;
  second.resume = true;
  std::atomic<int> simulated{0};
  std::atomic<int> simulated_index{-1};
  second.fault_hook = [&](std::size_t i, std::uint32_t) {
    ++simulated;
    simulated_index = static_cast<int>(i);
  };
  const auto resumed = run_sweep(points, trace, second);
  EXPECT_EQ(simulated.load(), 1);
  EXPECT_EQ(simulated_index.load(), 2);

  // Resumed rows are bit-identical to the uninterrupted sweep.
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_TRUE(resumed[i].ok());
    EXPECT_EQ(resumed[i].point, reference[i].point);
    EXPECT_EQ(resumed[i].metrics.metric_values(),
              reference[i].metrics.metric_values())
        << reference[i].point.id();
    EXPECT_EQ(resumed[i].metrics.total_reads, reference[i].metrics.total_reads);
    EXPECT_EQ(resumed[i].metrics.epochs.size(),
              reference[i].metrics.epochs.size());
  }
  std::remove(journal_path.c_str());
}

TEST(SweepFaults, ResumeIgnoresJournalFromDifferentTrace) {
  const auto trace = small_trace();
  const auto points = small_space();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sweep_mismatch_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());

  SweepOptions write;
  write.checkpoint_path = journal_path;
  run_sweep(points, trace, write);

  // The same journal against a modified trace must not be reused —
  // every point re-simulates, and the mismatch is warned with the
  // typed code (stale rows would be silently wrong, but aborting the
  // sweep would be worse than re-simulating).
  auto other_trace = trace;
  other_trace.push_back({other_trace.back().tick + 1, 0xDEAD40, 8, true});
  SweepOptions resume;
  resume.checkpoint_path = journal_path;
  resume.resume = true;
  std::atomic<int> simulated{0};
  resume.fault_hook = [&](std::size_t, std::uint32_t) { ++simulated; };

  std::vector<std::string> warnings;
  log::set_sink([&warnings](log::Level level, std::string_view msg) {
    if (level == log::Level::kWarn) warnings.emplace_back(msg);
  });
  const auto rows = run_sweep(points, other_trace, resume);
  log::set_sink(nullptr);

  EXPECT_TRUE(summarize_health(rows).all_ok());
  EXPECT_EQ(simulated.load(), static_cast<int>(points.size()));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("unusable journal"), std::string::npos);
  EXPECT_NE(warnings[0].find(to_string(ErrorCode::kConfig)),
            std::string::npos);
  std::remove(journal_path.c_str());
}

TEST(SweepFaults, ResumeIgnoresJournalFromDifferentPointList) {
  const auto trace = small_trace();
  const auto points = small_space();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sweep_points_mismatch_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());

  SweepOptions write;
  write.checkpoint_path = journal_path;
  run_sweep(points, trace, write);

  auto other_points = points;
  other_points.pop_back();
  SweepOptions resume;
  resume.checkpoint_path = journal_path;
  resume.resume = true;
  std::atomic<int> simulated{0};
  resume.fault_hook = [&](std::size_t, std::uint32_t) { ++simulated; };
  const auto rows = run_sweep(other_points, trace, resume);
  EXPECT_TRUE(summarize_health(rows).all_ok());
  EXPECT_EQ(simulated.load(), static_cast<int>(other_points.size()));
  std::remove(journal_path.c_str());
}

TEST(SweepFaults, ResumeWithMissingJournalStartsFresh) {
  const auto trace = small_trace();
  const auto points = small_space();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sweep_fresh_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());
  SweepOptions options;
  options.checkpoint_path = journal_path;
  options.resume = true;
  const auto rows = run_sweep(points, trace, options);
  EXPECT_TRUE(summarize_health(rows).all_ok());
  // The journal now holds every row.
  SweepJournal journal(journal_path, make_journal_key(points, trace));
  EXPECT_EQ(journal.load().size(), points.size());
  std::remove(journal_path.c_str());
}

TEST(SweepFaults, FaultPoliciesDoNotPerturbMetrics) {
  // A clean sweep must produce identical metrics under every policy —
  // the fault layer is pure bookkeeping until something actually fails.
  const auto trace = small_trace();
  const auto points = small_space();
  const auto reference = run_sweep(points, trace);
  for (const FailurePolicy policy :
       {FailurePolicy::kSkip, FailurePolicy::kRetry}) {
    SweepOptions options;
    options.failure_policy = policy;
    const auto rows = run_sweep(points, trace, options);
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].metrics.metric_values(),
                reference[i].metrics.metric_values())
          << to_string(policy) << " " << reference[i].point.id();
    }
  }
}

}  // namespace
}  // namespace gmd::dse
