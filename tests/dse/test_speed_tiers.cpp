/// Sweep-level speed tiers: the shared predecoded-trace replay must be
/// bit-identical to the raw event path of simulate_point, and chunk-sampled sweeps must
/// carry per-row confidence intervals through rows, CSV tables, and the
/// resume journal — with the sampling geometry part of the journal
/// identity.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::dse {
namespace {

std::vector<cpusim::MemoryEvent> bfs_trace(std::uint32_t vertices = 128) {
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

/// Deterministic mixed-phase trace, large enough that a 25% sample of
/// 1000-event chunks clears SampledSimOptions::min_sampled_chunks
/// instead of falling back to an exhaustive run.
std::vector<cpusim::MemoryEvent> phased_trace(std::size_t n = 60000) {
  std::vector<cpusim::MemoryEvent> trace;
  trace.reserve(n);
  std::uint64_t tick = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = state >> 33;
    tick += 2 + (r % 9);
    const std::size_t phase = (i / 512) % 3;
    std::uint64_t address;
    if (phase == 0) {
      address = 0x100000 + i * 64;  // streaming
    } else if (phase == 1) {
      address = 0x400000 + (r % 97) * 8192;  // scattered rows
    } else {
      address = 0x800000 + (r % 29) * 64;  // hot cluster
    }
    trace.push_back({tick, address, 64, r % 4 == 0});
  }
  return trace;
}

void expect_rows_identical(const SweepRow& a, const SweepRow& b) {
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.metrics.metric_values(), b.metrics.metric_values());
  EXPECT_EQ(a.metrics.total_reads, b.metrics.total_reads);
  EXPECT_EQ(a.metrics.total_writes, b.metrics.total_writes);
  EXPECT_EQ(a.metrics.execution_seconds, b.metrics.execution_seconds);
  EXPECT_EQ(a.metrics.dynamic_energy_j, b.metrics.dynamic_energy_j);
  EXPECT_EQ(a.metrics.background_energy_j, b.metrics.background_energy_j);
  EXPECT_EQ(a.metrics.max_line_writes, b.metrics.max_line_writes);
  EXPECT_EQ(a.metrics.unique_lines_written, b.metrics.unique_lines_written);
}

// Shared predecode -----------------------------------------------------

TEST(SweepSharedPredecode, OffStillIdentical) {
  // The sweep replays shared predecoded streams; simulate_point runs
  // the raw event path per point.  Both must give the same bits.
  const auto trace = bfs_trace(96);
  const auto points = reduced_design_space();
  SweepOptions shared;
  shared.num_threads = 2;
  const auto rows = run_sweep(points, trace, shared);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SweepRow raw;
    raw.point = points[i];
    raw.metrics = simulate_point(points[i], trace);
    expect_rows_identical(rows[i], raw);
  }
}

// Chunk-sampled sweeps -------------------------------------------------

std::vector<DesignPoint> sampling_points() {
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  axes.cpu_freqs_mhz = {2000};
  axes.ctrl_freqs_mhz = {666};
  axes.channel_counts = {2};
  axes.trcds = {20};
  return enumerate_grid(axes);
}

TEST(SampledSweep, RowsCarryIntervalsHybridsStayExhaustive) {
  const auto trace = phased_trace();
  const auto points = sampling_points();
  SweepOptions exhaustive;
  exhaustive.num_threads = 2;
  const auto exact = run_sweep(points, trace, exhaustive);

  SweepOptions options;
  options.num_threads = 2;
  options.sample_fraction = 0.25;
  options.sampling_chunk_events = 1000;
  const auto rows = run_sweep(points, trace, options);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    ASSERT_TRUE(row.ok()) << row.error;
    ASSERT_TRUE(row.sampled());
    ASSERT_EQ(row.metric_ci.size(),
              memsim::MemoryMetrics::metric_names().size());
    const auto estimate = row.metrics.metric_values();
    for (std::size_t m = 0; m < row.metric_ci.size(); ++m) {
      EXPECT_LE(row.metric_ci[m].lo, estimate[m]);
      EXPECT_GE(row.metric_ci[m].hi, estimate[m]);
    }
    if (row.point.kind == MemoryKind::kHybrid) {
      // Hybrids run exhaustively: exact metrics, point intervals.
      expect_rows_identical(row, exact[i]);
      for (std::size_t m = 0; m < row.metric_ci.size(); ++m) {
        EXPECT_EQ(row.metric_ci[m].lo, row.metric_ci[m].hi);
      }
    } else {
      // Sampled estimates should land near the exhaustive metrics.
      const auto truth = exact[i].metrics.metric_values();
      for (std::size_t m = 0; m < truth.size(); ++m) {
        EXPECT_NEAR(estimate[m], truth[m], 0.35 * truth[m] + 1e-12)
            << row.point.id() << " metric " << m;
      }
    }
  }
}

TEST(SampledSweep, TableRoundTripsIntervals) {
  const auto trace = phased_trace();
  const auto points = sampling_points();
  SweepOptions options;
  options.num_threads = 2;
  options.sample_fraction = 0.25;
  options.sampling_chunk_events = 1000;
  const auto rows = run_sweep(points, trace, options);

  const CsvTable table = sweep_to_table(rows);
  EXPECT_TRUE(table.has_column("total_latency_cycles_ci_lo"));
  EXPECT_TRUE(table.has_column("total_latency_cycles_ci_hi"));
  const auto back = table_to_sweep(table);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(back[i].metric_ci.size(), rows[i].metric_ci.size());
    for (std::size_t m = 0; m < rows[i].metric_ci.size(); ++m) {
      EXPECT_DOUBLE_EQ(back[i].metric_ci[m].lo, rows[i].metric_ci[m].lo);
      EXPECT_DOUBLE_EQ(back[i].metric_ci[m].hi, rows[i].metric_ci[m].hi);
    }
  }

  // An exhaustive sweep's table has no CI columns at all.
  SweepOptions exhaustive;
  exhaustive.num_threads = 2;
  const CsvTable plain = sweep_to_table(run_sweep(points, trace, exhaustive));
  EXPECT_FALSE(plain.has_column("total_latency_cycles_ci_lo"));
}

TEST(SampledSweep, StoreFeedSamplesNativeChunks) {
  const auto events = phased_trace();
  const std::string store_path =
      testing::TempDir() + "/gmd_sampled_store_" +
      std::to_string(::getpid()) + ".gmdt";
  std::filesystem::remove(store_path);
  tracestore::TraceStoreWriterOptions wopts;
  wopts.events_per_chunk = 1000;
  tracestore::write_trace_store(store_path, events, wopts);
  const tracestore::TraceStoreReader store(store_path);

  const auto points = sampling_points();
  SweepOptions options;
  options.num_threads = 2;
  options.sample_fraction = 0.25;
  // sampling_chunk_events is ignored for store feeds (native chunking);
  // a span feed with the same window size must agree exactly.
  options.sampling_chunk_events = 1000;
  const auto from_store = run_sweep(points, store, options);
  const auto from_span = run_sweep(points, events, options);
  ASSERT_EQ(from_store.size(), from_span.size());
  for (std::size_t i = 0; i < from_store.size(); ++i) {
    ASSERT_TRUE(from_store[i].ok()) << from_store[i].error;
    expect_rows_identical(from_store[i], from_span[i]);
    ASSERT_EQ(from_store[i].metric_ci.size(), from_span[i].metric_ci.size());
    for (std::size_t m = 0; m < from_store[i].metric_ci.size(); ++m) {
      EXPECT_EQ(from_store[i].metric_ci[m].lo, from_span[i].metric_ci[m].lo);
      EXPECT_EQ(from_store[i].metric_ci[m].hi, from_span[i].metric_ci[m].hi);
    }
  }
  std::filesystem::remove(store_path);
}

TEST(SampledSweep, JournalRestoresIntervalsAndKeysOnSamplingParams) {
  const auto trace = phased_trace();
  const auto points = sampling_points();
  const std::string journal_path =
      testing::TempDir() + "/gmd_sampled_journal_" +
      std::to_string(::getpid()) + ".txt";
  std::filesystem::remove(journal_path);

  SweepOptions options;
  options.num_threads = 2;
  options.sample_fraction = 0.25;
  options.sampling_chunk_events = 1000;
  options.checkpoint_path = journal_path;
  const auto first = run_sweep(points, trace, options);

  // Resume under identical sampling parameters: every point restores
  // from the journal (the fault hook proves no simulation ran), and the
  // restored intervals are bit-identical.
  auto simulated = std::make_shared<std::atomic<std::size_t>>(0);
  options.resume = true;
  options.fault_hook = [simulated](std::size_t, std::uint32_t) {
    simulated->fetch_add(1);
  };
  const auto resumed = run_sweep(points, trace, options);
  EXPECT_EQ(simulated->load(), 0u);
  ASSERT_EQ(resumed.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_rows_identical(resumed[i], first[i]);
    ASSERT_EQ(resumed[i].metric_ci.size(), first[i].metric_ci.size());
    for (std::size_t m = 0; m < first[i].metric_ci.size(); ++m) {
      EXPECT_EQ(resumed[i].metric_ci[m].lo, first[i].metric_ci[m].lo);
      EXPECT_EQ(resumed[i].metric_ci[m].hi, first[i].metric_ci[m].hi);
    }
  }

  // A different sampling seed is a different journal identity: the old
  // journal must be refused (with a warning) and every point
  // re-simulated rather than silently reusing estimates from another
  // sampling geometry.
  options.sample_seed = 99;
  const auto resampled = run_sweep(points, trace, options);
  EXPECT_EQ(simulated->load(), points.size());
  for (const SweepRow& row : resampled) {
    EXPECT_TRUE(row.ok()) << row.error;
  }
  std::filesystem::remove(journal_path);
}

TEST(SampledSweep, RejectsBadOptions) {
  const auto trace = bfs_trace(96);
  const auto points = sampling_points();
  SweepOptions options;
  options.sample_fraction = 0.0;
  EXPECT_THROW(run_sweep(points, trace, options), gmd::Error);
  options.sample_fraction = 1.5;
  EXPECT_THROW(run_sweep(points, trace, options), gmd::Error);
  options.sample_fraction = 0.5;
  options.sampling_chunk_events = 0;
  EXPECT_THROW(run_sweep(points, trace, options), gmd::Error);
}

}  // namespace
}  // namespace gmd::dse
