/// simulate_point(store, point, options) is run_sweep's per-point body
/// factored out; these tests pin the contract the query service depends
/// on: for the same (store, point, sampling geometry) the single-point
/// API returns metrics bit-identical to the SweepRow a fresh run_sweep
/// over the same store produces — across technologies, warm feeds, and
/// sampled geometries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "gmd/common/deadline.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/predecoded_trace.hpp"
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

void expect_metrics_identical(const memsim::MemoryMetrics& a,
                              const memsim::MemoryMetrics& b) {
  EXPECT_EQ(a.metric_values(), b.metric_values());
  EXPECT_EQ(a.total_reads, b.total_reads);
  EXPECT_EQ(a.total_writes, b.total_writes);
  EXPECT_EQ(a.execution_seconds, b.execution_seconds);
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_EQ(a.background_energy_j, b.background_energy_j);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.max_line_writes, b.max_line_writes);
  EXPECT_EQ(a.unique_lines_written, b.unique_lines_written);
}

class SimulatePointStore : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_path_ = new std::string(testing::TempDir() +
                                  "/gmd_simulate_point_store_" +
                                  std::to_string(::getpid()) + ".gmdt");
    std::filesystem::remove(*store_path_);
    tracestore::TraceStoreWriterOptions wopts;
    wopts.events_per_chunk = 1000;
    tracestore::write_trace_store(*store_path_, bfs_trace(), wopts);
    store_ = new tracestore::TraceStoreReader(*store_path_);
  }

  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
    std::filesystem::remove(*store_path_);
    delete store_path_;
    store_path_ = nullptr;
  }

  static std::string* store_path_;
  static tracestore::TraceStoreReader* store_;
};

std::string* SimulatePointStore::store_path_ = nullptr;
tracestore::TraceStoreReader* SimulatePointStore::store_ = nullptr;

// The headline contract: every point of a mixed-technology space
// answers bit-identically to the corresponding fresh run_sweep row.
TEST_F(SimulatePointStore, BitIdenticalToSweepRows) {
  const std::vector<DesignPoint> points = reduced_design_space();
  const std::vector<SweepRow> rows = run_sweep(points, *store_);
  ASSERT_EQ(rows.size(), points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].id());
    const MetricsRow row = simulate_point(*store_, points[i]);
    ASSERT_TRUE(rows[i].ok());
    expect_metrics_identical(row.metrics, rows[i].metrics);
    EXPECT_FALSE(row.sampled());
  }
}

// A warm feed (the service's shared handle) must not change a single
// bit versus the cold store path.
TEST_F(SimulatePointStore, WarmPredecodedFeedIsIdentical) {
  DesignPoint point;
  point.kind = MemoryKind::kNvm;
  point.cpu_freq_mhz = 3333;
  point.ctrl_freq_mhz = 666;
  point.channels = 4;
  point.trcd = 50;

  const MetricsRow cold = simulate_point(*store_, point);

  const auto events = store_->read_all();
  const Feed predecoded = build_feed(point, events);
  SimulateOptions warm;
  warm.feed = &predecoded;
  expect_metrics_identical(simulate_point(*store_, point, warm).metrics,
                           cold.metrics);

  // A feed is clock-free: one built under other clocks replays the
  // point identically.
  DesignPoint other_clocks = point;
  other_clocks.cpu_freq_mhz = 6500;
  other_clocks.ctrl_freq_mhz = 1600;
  const Feed shared = build_feed(other_clocks, events);
  SimulateOptions reused;
  reused.feed = &shared;
  expect_metrics_identical(simulate_point(*store_, point, reused).metrics,
                           cold.metrics);
}

// Hybrid points replay predecoded sides (optionally warm).
TEST_F(SimulatePointStore, HybridMatchesSweep) {
  DesignPoint point;
  point.kind = MemoryKind::kHybrid;
  point.cpu_freq_mhz = 2000;
  point.ctrl_freq_mhz = 400;
  point.channels = 2;
  point.trcd = 50;

  const std::vector<DesignPoint> points{point};
  const std::vector<SweepRow> rows = run_sweep(points, *store_);
  ASSERT_TRUE(rows[0].ok());

  const MetricsRow cold = simulate_point(*store_, point);
  expect_metrics_identical(cold.metrics, rows[0].metrics);

  const auto events = store_->read_all();
  const Feed sides = build_feed(point, events);
  SimulateOptions warm;
  warm.feed = &sides;
  expect_metrics_identical(simulate_point(*store_, point, warm).metrics,
                           rows[0].metrics);
  expect_metrics_identical(simulate_point(point, events), rows[0].metrics);
}

// Sampled geometry must reproduce the sampled sweep's estimates and
// intervals exactly (same chunk subset, same estimators).
TEST_F(SimulatePointStore, SampledMatchesSampledSweep) {
  DesignPoint point;
  point.kind = MemoryKind::kDram;
  point.cpu_freq_mhz = 2000;
  point.ctrl_freq_mhz = 400;
  point.channels = 2;

  SweepOptions sweep_options;
  sweep_options.sample_fraction = 0.5;
  sweep_options.sample_seed = 7;
  const std::vector<DesignPoint> points{point};
  const std::vector<SweepRow> rows = run_sweep(points, *store_, sweep_options);
  ASSERT_TRUE(rows[0].ok());
  ASSERT_TRUE(rows[0].sampled());

  SimulateOptions options;
  options.sample_fraction = 0.5;
  options.sample_seed = 7;
  const MetricsRow row = simulate_point(*store_, point, options);
  ASSERT_TRUE(row.sampled());
  expect_metrics_identical(row.metrics, rows[0].metrics);
  ASSERT_EQ(row.metric_ci.size(), rows[0].metric_ci.size());
  for (std::size_t m = 0; m < row.metric_ci.size(); ++m) {
    EXPECT_EQ(row.metric_ci[m].lo, rows[0].metric_ci[m].lo);
    EXPECT_EQ(row.metric_ci[m].hi, rows[0].metric_ci[m].hi);
  }
}

TEST_F(SimulatePointStore, ValidatesPointAndOptions) {
  DesignPoint bad;
  bad.channels = 0;
  EXPECT_THROW(simulate_point(*store_, bad), Error);

  DesignPoint ok;
  SimulateOptions bad_fraction;
  bad_fraction.sample_fraction = 0.0;
  EXPECT_THROW(simulate_point(*store_, ok, bad_fraction), Error);
}

// A warm feed built for another feed key is refused, never replayed:
// its streams were decoded (or routed) for a different geometry.
TEST_F(SimulatePointStore, RefusesAFeedForAnotherGeometry) {
  DesignPoint dram;
  dram.kind = MemoryKind::kDram;
  dram.channels = 2;
  DesignPoint dram4 = dram;
  dram4.channels = 4;
  DesignPoint hybrid;
  hybrid.kind = MemoryKind::kHybrid;
  hybrid.channels = 2;
  DesignPoint rerouted = hybrid;
  rerouted.dram_fraction = 0.25;  // the default routes half to DRAM

  const Feed two_channels = build_feed(dram, *store_);
  const Feed hybrid_sides = build_feed(hybrid, *store_);
  const auto refused = [&](const DesignPoint& point, const Feed& feed) {
    SCOPED_TRACE(point.id() + " on feed " + feed.key);
    SimulateOptions options;
    options.feed = &feed;
    try {
      (void)simulate_point(*store_, point, options);
      ADD_FAILURE() << "expected the feed to be refused";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
    }
  };
  refused(dram4, two_channels);    // 2-channel feed, 4-channel point
  refused(hybrid, two_channels);   // single-technology feed, hybrid point
  refused(dram, hybrid_sides);     // hybrid feed, DRAM point
  refused(rerouted, hybrid_sides);  // same sides' geometry, other routing

  // The matching feed still replays.
  SimulateOptions options;
  options.feed = &hybrid_sides;
  expect_metrics_identical(simulate_point(*store_, hybrid, options).metrics,
                           simulate_point(*store_, hybrid).metrics);
}

TEST_F(SimulatePointStore, HonorsCancellation) {
  Deadline cancel;
  cancel.cancel();
  SimulateOptions options;
  options.deadline = &cancel;
  DesignPoint point;
  try {
    (void)simulate_point(*store_, point, options);
    FAIL() << "expected cancellation";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

// The in-memory overload rides the same core: equal events, equal bits.
TEST_F(SimulatePointStore, SpanOverloadMatchesStore) {
  DesignPoint point;
  point.kind = MemoryKind::kNvm;
  point.trcd = 125;
  const auto events = store_->read_all();
  const memsim::MemoryMetrics from_span = simulate_point(point, events);
  expect_metrics_identical(from_span, simulate_point(*store_, point).metrics);
}

}  // namespace
}  // namespace gmd::dse
