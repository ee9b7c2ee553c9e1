#include "gmd/dse/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "gmd/common/error.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::dse {
namespace {

std::vector<cpusim::MemoryEvent> small_trace(std::uint64_t vertices = 128) {
  graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

TEST(Sweep, RowOrderMatchesPointOrder) {
  const auto trace = small_trace();
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  axes.cpu_freqs_mhz = {2000, 5000};
  axes.ctrl_freqs_mhz = {400};
  axes.channel_counts = {2};
  axes.trcds = {20};
  const auto points = enumerate_grid(axes);
  const auto rows = run_sweep(points, trace);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].point, points[i]);
  }
}

TEST(Sweep, AllRowsCarryRealMetrics) {
  const auto trace = small_trace();
  const auto points = reduced_design_space();
  SweepOptions options;
  options.num_threads = 2;
  const auto rows = run_sweep(points, trace, options);
  for (const auto& row : rows) {
    EXPECT_GT(row.metrics.total_reads + row.metrics.total_writes, 0u)
        << row.point.id();
    EXPECT_GT(row.metrics.avg_power_per_channel_w, 0.0) << row.point.id();
    EXPECT_GT(row.metrics.avg_latency_cycles, 0.0) << row.point.id();
  }
}

TEST(Sweep, ParallelMatchesSerial) {
  const auto trace = small_trace();
  GridAxes axes;
  axes.kinds = {MemoryKind::kNvm};
  axes.cpu_freqs_mhz = {2000, 3000};
  axes.ctrl_freqs_mhz = {400, 666};
  axes.channel_counts = {2, 4};
  const auto points = enumerate_grid(axes);
  SweepOptions serial;
  serial.num_threads = 1;
  SweepOptions parallel;
  parallel.num_threads = 4;
  const auto a = run_sweep(points, trace, serial);
  const auto b = run_sweep(points, trace, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.metric_values(), b[i].metrics.metric_values());
  }
}

TEST(Sweep, SimulatePointDispatchesAllKinds) {
  const auto trace = small_trace();
  for (const MemoryKind kind :
       {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid}) {
    DesignPoint p;
    p.kind = kind;
    p.trcd = kind == MemoryKind::kDram ? 9 : 20;
    const auto metrics = simulate_point(p, trace);
    EXPECT_EQ(metrics.channels, p.channels) << to_string(kind);
    EXPECT_GT(metrics.total_reads, 0u) << to_string(kind);
  }
}

TEST(Sweep, ReadsWritesIndependentOfMemoryKind) {
  // The workload determines reads/writes; the technology must not.
  const auto trace = small_trace();
  DesignPoint dram, nvm, hybrid;
  nvm.kind = MemoryKind::kNvm;
  nvm.trcd = 20;
  hybrid.kind = MemoryKind::kHybrid;
  hybrid.trcd = 20;
  const auto md = simulate_point(dram, trace);
  const auto mn = simulate_point(nvm, trace);
  const auto mh = simulate_point(hybrid, trace);
  EXPECT_EQ(md.total_reads, mn.total_reads);
  EXPECT_EQ(mn.total_reads, mh.total_reads);
  EXPECT_EQ(md.total_writes, mh.total_writes);
}

// --- group tasks --------------------------------------------------------
// A sweep runs one pool task per trace group: the task builds the
// group's predecoded stream, replays its members in point order and
// drops the stream.  These tests pin that the schedule changes no row.

/// Every field a sweep row's metrics carry, compared exactly.
void expect_same_metrics(const memsim::MemoryMetrics& a,
                         const memsim::MemoryMetrics& b,
                         const std::string& id) {
  EXPECT_EQ(a.metric_values(), b.metric_values()) << id;
  EXPECT_EQ(a.total_reads, b.total_reads) << id;
  EXPECT_EQ(a.total_writes, b.total_writes) << id;
  EXPECT_EQ(a.channels, b.channels) << id;
  EXPECT_EQ(a.banks_total, b.banks_total) << id;
  EXPECT_EQ(a.execution_seconds, b.execution_seconds) << id;
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j) << id;
  EXPECT_EQ(a.background_energy_j, b.background_energy_j) << id;
  EXPECT_EQ(a.row_hits, b.row_hits) << id;
  EXPECT_EQ(a.row_misses, b.row_misses) << id;
  EXPECT_EQ(a.max_line_writes, b.max_line_writes) << id;
  EXPECT_EQ(a.unique_lines_written, b.unique_lines_written) << id;
  ASSERT_EQ(a.epochs.size(), b.epochs.size()) << id;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].epoch, b.epochs[e].epoch) << id;
    EXPECT_EQ(a.epochs[e].reads, b.epochs[e].reads) << id;
    EXPECT_EQ(a.epochs[e].writes, b.epochs[e].writes) << id;
    EXPECT_EQ(a.epochs[e].avg_total_latency_cycles,
              b.epochs[e].avg_total_latency_cycles)
        << id;
    EXPECT_EQ(a.epochs[e].bandwidth_mbs, b.epochs[e].bandwidth_mbs) << id;
  }
}

/// The trace-sharing key a sweep groups `point` under.
std::string group_key(const DesignPoint& point) {
  return point.kind == MemoryKind::kHybrid
             ? memsim::hybrid_trace_key(point.hybrid_config())
             : memsim::PredecodedTrace::key(point.single_config());
}

/// Point indices per trace group, each in point order.
std::vector<std::vector<std::size_t>> trace_groups(
    const std::vector<DesignPoint>& points) {
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < points.size(); ++i) {
    by_key[group_key(points[i])].push_back(i);
  }
  std::vector<std::vector<std::size_t>> groups;
  for (auto& [key, members] : by_key) groups.push_back(std::move(members));
  return groups;
}

/// One point simulated alone: the reference every sweep row must match.
std::vector<memsim::MemoryMetrics> simulate_each(
    const std::vector<DesignPoint>& points,
    const std::vector<cpusim::MemoryEvent>& trace) {
  std::vector<memsim::MemoryMetrics> out;
  out.reserve(points.size());
  for (const DesignPoint& point : points) {
    out.push_back(simulate_point(point, trace));
  }
  return out;
}

TEST(SweepGroupLifetime, PaperGridMatchesSimulatePointAtEveryThreadCount) {
  const auto trace = small_trace(64);
  const auto points = paper_design_space();
  const auto reference = simulate_each(points, trace);
  for (const std::size_t threads : {1u, 3u, 4u}) {
    SweepOptions options;
    options.num_threads = threads;
    const auto rows = run_sweep(points, trace, options);
    ASSERT_EQ(rows.size(), points.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(rows[i].ok()) << rows[i].error;
      EXPECT_EQ(rows[i].point, points[i]);
      EXPECT_EQ(rows[i].attempts, 1u);
      expect_same_metrics(rows[i].metrics, reference[i],
                          points[i].id() + " at " + std::to_string(threads) +
                              " threads");
    }
  }
}

TEST(SweepGroupLifetime, ResumeWithEveryGroupPartiallySettled) {
  const auto trace = small_trace(64);
  const auto points = paper_design_space();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sweep_group_resume_" +
      std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());

  // Every other member of every group reaches the journal; the rest
  // fail.  Every group then keeps members on both sides of the journal,
  // so every group task must rebuild its stream for its unsettled
  // members only.
  std::vector<char> journaled(points.size(), 0);
  for (const auto& members : trace_groups(points)) {
    ASSERT_GE(members.size(), 2u) << points[members.front()].id();
    for (std::size_t k = 0; k < members.size(); k += 2) {
      journaled[members[k]] = 1;
    }
  }
  SweepOptions first;
  first.num_threads = 3;
  first.failure_policy = FailurePolicy::kSkip;
  first.checkpoint_path = journal_path;
  first.fault_hook = [&](std::size_t i, std::uint32_t) {
    if (!journaled[i]) throw Error("not journaled");
  };
  run_sweep(points, trace, first);

  SweepOptions second;
  second.num_threads = 3;
  second.checkpoint_path = journal_path;
  second.resume = true;
  std::mutex mutex;
  std::vector<std::size_t> simulated(points.size(), 0);
  second.fault_hook = [&](std::size_t i, std::uint32_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++simulated[i];
  };
  const auto rows = run_sweep(points, trace, second);
  const auto reference = simulate_each(points, trace);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(simulated[i], journaled[i] ? 0u : 1u) << points[i].id();
    ASSERT_TRUE(rows[i].ok()) << rows[i].error;
    EXPECT_EQ(rows[i].point, points[i]);
    expect_same_metrics(rows[i].metrics, reference[i], points[i].id());
  }
  std::remove(journal_path.c_str());
}

TEST(SweepGroupLifetime, FaultedMemberLeavesItsGroupBitIdentical) {
  const auto trace = small_trace(64);
  const auto points = paper_design_space();
  const auto reference = simulate_each(points, trace);
  // A member in the middle of the largest single-technology group and
  // of the largest hybrid group.
  std::vector<std::size_t> faulted;
  for (const MemoryKind kind : {MemoryKind::kNvm, MemoryKind::kHybrid}) {
    std::vector<std::size_t> largest;
    for (const auto& members : trace_groups(points)) {
      const bool hybrid = points[members.front()].kind == MemoryKind::kHybrid;
      if (hybrid == (kind == MemoryKind::kHybrid) &&
          members.size() > largest.size()) {
        largest = members;
      }
    }
    ASSERT_GE(largest.size(), 3u) << to_string(kind);
    faulted.push_back(largest[largest.size() / 2]);
  }
  const auto is_faulted = [&](std::size_t i) {
    return std::find(faulted.begin(), faulted.end(), i) != faulted.end();
  };

  for (const FailurePolicy policy :
       {FailurePolicy::kSkip, FailurePolicy::kRetry}) {
    SweepOptions options;
    options.num_threads = 3;
    options.failure_policy = policy;
    options.fault_hook = [&](std::size_t i, std::uint32_t attempt) {
      if (is_faulted(i) && attempt == 1) throw Error("transient");
    };
    const auto rows = run_sweep(points, trace, options);
    ASSERT_EQ(rows.size(), points.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string id = points[i].id() + " under " + to_string(policy);
      if (is_faulted(i) && policy == FailurePolicy::kSkip) {
        EXPECT_EQ(rows[i].outcome, PointOutcome::kFailed) << id;
        EXPECT_EQ(rows[i].attempts, 1u) << id;
        continue;
      }
      ASSERT_TRUE(rows[i].ok()) << id << ": " << rows[i].error;
      EXPECT_EQ(rows[i].attempts, is_faulted(i) ? 2u : 1u) << id;
      expect_same_metrics(rows[i].metrics, reference[i], id);
    }
  }
}

/// Sweeps `points` at `threads` threads, checks every row against
/// `reference`, and returns each pool task's point indices as
/// SweepOptions::task_hook reported them: one entry per stream build.
std::vector<std::vector<std::size_t>> sweep_tasks(
    const std::vector<DesignPoint>& points,
    const std::vector<cpusim::MemoryEvent>& trace,
    const std::vector<memsim::MemoryMetrics>& reference, std::size_t threads) {
  std::mutex mutex;
  std::vector<std::vector<std::size_t>> tasks;
  SweepOptions options;
  options.num_threads = threads;
  options.task_hook = [&](std::span<const std::size_t> members) {
    const std::lock_guard<std::mutex> lock(mutex);
    tasks.emplace_back(members.begin(), members.end());
  };
  const auto rows = run_sweep(points, trace, options);
  EXPECT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].ok()) << rows[i].error;
    expect_same_metrics(rows[i].metrics, reference[i],
                        points[i].id() + " at " + std::to_string(threads) +
                            " threads");
  }
  // Every task replays at least one point, every point exactly once,
  // and a task's points share one feed.
  std::vector<std::size_t> seen(points.size(), 0);
  for (const auto& members : tasks) {
    EXPECT_FALSE(members.empty()) << threads << " threads";
    for (const std::size_t i : members) {
      ++seen[i];
      EXPECT_EQ(feed_key(points[i]), feed_key(points[members.front()]))
          << points[i].id();
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << points[i].id();
  }
  return tasks;
}

TEST(SweepGroupLifetime, SmallHybridGroupBuildsNoMoreStreamsThanPoints) {
  const auto trace = small_trace(64);
  GridAxes axes;
  axes.kinds = {MemoryKind::kHybrid};
  axes.cpu_freqs_mhz = {2000, 3000, 5000};
  axes.ctrl_freqs_mhz = {400};
  axes.channel_counts = {2};
  axes.trcds = {20};
  const auto points = enumerate_grid(axes);
  ASSERT_EQ(points.size(), 3u);
  const auto reference = simulate_each(points, trace);
  // One thread never splits; more threads than points give each point
  // its own build and never an empty one.
  EXPECT_EQ(sweep_tasks(points, trace, reference, 1).size(), 1u);
  EXPECT_EQ(sweep_tasks(points, trace, reference, 2).size(), 2u);
  EXPECT_EQ(sweep_tasks(points, trace, reference, 8).size(), 3u);
}

TEST(SweepGroupLifetime, PaperGridBuildsTwoStreamsPerFeedAtFourThreads) {
  const auto trace = small_trace(64);
  const auto points = paper_design_space();
  const auto reference = simulate_each(points, trace);
  EXPECT_EQ(sweep_tasks(points, trace, reference, 1).size(), 4u);
  const auto tasks = sweep_tasks(points, trace, reference, 4);
  ASSERT_EQ(tasks.size(), 8u);
  std::map<std::string, std::size_t> builds;
  for (const auto& members : tasks) ++builds[feed_key(points[members[0]])];
  ASSERT_EQ(builds.size(), 4u);
  for (const auto& [key, count] : builds) EXPECT_EQ(count, 2u) << key;
}

TEST(SweepGroupLifetime, PredecodeErrorThrowsUnderEveryPolicy) {
  // A zero-size access cannot be split into requests: predecoding the
  // trace fails for every group.  That is a fault of the trace, not of
  // any point, so no policy may turn it into per-point rows.
  auto trace = small_trace(64);
  trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2),
               cpusim::MemoryEvent{trace[trace.size() / 2].tick, 0x40, 0,
                                   false});
  GridAxes single_axes;
  single_axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm};
  single_axes.cpu_freqs_mhz = {2000};
  single_axes.ctrl_freqs_mhz = {400};
  single_axes.channel_counts = {2};
  single_axes.trcds = {20, 30};
  GridAxes hybrid_axes = single_axes;
  hybrid_axes.kinds = {MemoryKind::kHybrid};
  for (const auto& axes : {single_axes, hybrid_axes}) {
    const auto points = enumerate_grid(axes);
    for (const DesignPoint& point : points) {
      ASSERT_NO_THROW(validate(point)) << point.id();
    }
    for (const FailurePolicy policy :
         {FailurePolicy::kFailFast, FailurePolicy::kSkip,
          FailurePolicy::kRetry}) {
      for (const std::size_t threads : {1u, 2u}) {
        SweepOptions options;
        options.num_threads = threads;
        options.failure_policy = policy;
        EXPECT_THROW(run_sweep(points, trace, options), Error)
            << to_string(axes.kinds.front()) << " under "
            << to_string(policy) << " at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace gmd::dse
