/// Golden-equivalence tests: a sweep fed from a GMDT store must produce
/// rows bit-identical to the same sweep fed from the NVMain text path —
/// the container changes the storage, never the physics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::dse {
namespace {

using cpusim::MemoryEvent;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_metrics_bit_identical(const memsim::MemoryMetrics& a,
                                  const memsim::MemoryMetrics& b) {
  EXPECT_EQ(bits(a.avg_power_per_channel_w), bits(b.avg_power_per_channel_w));
  EXPECT_EQ(bits(a.avg_bandwidth_per_bank_mbs),
            bits(b.avg_bandwidth_per_bank_mbs));
  EXPECT_EQ(bits(a.avg_latency_cycles), bits(b.avg_latency_cycles));
  EXPECT_EQ(bits(a.avg_total_latency_cycles),
            bits(b.avg_total_latency_cycles));
  EXPECT_EQ(bits(a.avg_reads_per_channel), bits(b.avg_reads_per_channel));
  EXPECT_EQ(bits(a.avg_writes_per_channel), bits(b.avg_writes_per_channel));
  EXPECT_EQ(bits(a.execution_seconds), bits(b.execution_seconds));
  EXPECT_EQ(bits(a.dynamic_energy_j), bits(b.dynamic_energy_j));
  EXPECT_EQ(bits(a.background_energy_j), bits(b.background_energy_j));
  EXPECT_EQ(a.total_reads, b.total_reads);
  EXPECT_EQ(a.total_writes, b.total_writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.max_line_writes, b.max_line_writes);
  EXPECT_EQ(a.unique_lines_written, b.unique_lines_written);
}

class GmdtSweepEquivalence : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/gmd_equiv_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);

    // A real workload trace (unaligned addresses, mixed sizes), written
    // through the gem5 text path exactly as the pipeline does.
    const auto raw_events = generate_workload_trace({.graph_vertices = 192});
    ASSERT_FALSE(raw_events.empty());
    gem5_path_ = dir_ + "/trace.gem5.txt";
    std::ofstream out(gem5_path_);
    trace::Gem5TraceWriter writer(out);
    for (const auto& event : raw_events) writer.on_event(event);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string gem5_path_;
};

TEST_F(GmdtSweepEquivalence, ConvertersProduceIdenticalEventStreams) {
  const std::string nvmain_path = dir_ + "/trace.nvmain.txt";
  const std::string store_path = dir_ + "/trace.gmdt";
  const auto text_stats = trace::convert_gem5_to_nvmain(gem5_path_, nvmain_path);
  const auto store_stats = trace::convert_gem5_to_gmdt(gem5_path_, store_path);
  EXPECT_EQ(text_stats.events_out, store_stats.events_out);
  EXPECT_EQ(text_stats.lines_skipped, store_stats.lines_skipped);

  std::ifstream in(nvmain_path);
  const auto text_events = trace::read_nvmain_trace(in);
  const auto store_events = tracestore::TraceStoreReader(store_path).read_all();
  ASSERT_EQ(text_events.size(), store_events.size());
  for (std::size_t i = 0; i < text_events.size(); ++i) {
    ASSERT_EQ(text_events[i].tick, store_events[i].tick) << i;
    ASSERT_EQ(text_events[i].address, store_events[i].address) << i;
    ASSERT_EQ(text_events[i].size, store_events[i].size) << i;
    ASSERT_EQ(text_events[i].is_write, store_events[i].is_write) << i;
  }
}

TEST_F(GmdtSweepEquivalence, StoreFedSweepIsBitIdenticalToTextFed) {
  const std::string nvmain_path = dir_ + "/sweep.nvmain.txt";
  const std::string store_path = dir_ + "/sweep.gmdt";
  trace::convert_gem5_to_nvmain(gem5_path_, nvmain_path);
  trace::ConvertOptions options;
  options.gmdt_chunk_events = 1 << 12;  // force multiple chunks
  trace::convert_gem5_to_gmdt(gem5_path_, store_path, options);

  // One point per technology, including a hybrid (which exercises the
  // raw-materialization path of the store feed).
  std::vector<DesignPoint> points(3);
  points[0].kind = MemoryKind::kDram;
  points[0].trcd = 9;
  points[1].kind = MemoryKind::kNvm;
  points[1].trcd = 50;
  points[2].kind = MemoryKind::kHybrid;
  points[2].trcd = 50;

  std::ifstream in(nvmain_path);
  const auto text_events = trace::read_nvmain_trace(in);
  const auto text_rows = run_sweep(points, text_events);

  const tracestore::TraceStoreReader store(store_path);
  ASSERT_GT(store.num_chunks(), 1u);
  const auto store_rows = run_sweep(points, store);

  ASSERT_EQ(text_rows.size(), store_rows.size());
  for (std::size_t i = 0; i < text_rows.size(); ++i) {
    ASSERT_TRUE(store_rows[i].ok()) << store_rows[i].error;
    expect_metrics_bit_identical(text_rows[i].metrics, store_rows[i].metrics);
  }
}

TEST_F(GmdtSweepEquivalence, StoreFedSweepMatchesRawEventPath) {
  // The store-fed sweep predecodes off the mapping; simulate_point over
  // the decoded events runs the raw event path.
  const std::string store_path = dir_ + "/rawpath.gmdt";
  trace::convert_gem5_to_gmdt(gem5_path_, store_path);
  const tracestore::TraceStoreReader store(store_path);
  const auto events = store.read_all();

  std::vector<DesignPoint> points(1);
  points[0].kind = MemoryKind::kNvm;
  points[0].trcd = 50;

  const auto store_rows = run_sweep(points, store);
  ASSERT_EQ(store_rows.size(), 1u);
  ASSERT_TRUE(store_rows[0].ok()) << store_rows[0].error;
  expect_metrics_bit_identical(simulate_point(points[0], events),
                               store_rows[0].metrics);
}

TEST_F(GmdtSweepEquivalence, WorkflowGmdtFormatMatchesTextFormat) {
  // The reduced space (96 points, hybrids included) fed once from the
  // NVMain text and once from the GMDT store, both converted from the
  // same gem5 trace.
  const std::string nvmain_path = dir_ + "/wf.nvmain.txt";
  const std::string store_path = dir_ + "/wf.gmdt";
  trace::convert_gem5_to_nvmain(gem5_path_, nvmain_path);
  trace::convert_gem5_to_gmdt(gem5_path_, store_path);
  const std::vector<DesignPoint> points = reduced_design_space();

  std::ifstream in(nvmain_path);
  const auto text_rows = run_sweep(points, trace::read_nvmain_trace(in));
  const auto store_rows =
      run_sweep(points, tracestore::TraceStoreReader(store_path));
  ASSERT_EQ(text_rows.size(), store_rows.size());
  for (std::size_t i = 0; i < text_rows.size(); ++i) {
    expect_metrics_bit_identical(text_rows[i].metrics,
                                 store_rows[i].metrics);
  }
}

}  // namespace
}  // namespace gmd::dse
