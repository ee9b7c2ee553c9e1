#include "gmd/dse/workflow.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "gmd/dse/config_space.hpp"
#include "gmd/graph/bfs.hpp"

namespace gmd::dse {
namespace {

WorkflowConfig small_config() {
  WorkflowConfig config;
  config.graph_vertices = 128;
  config.edge_factor = 8;
  // A small grid keeps the integration test fast.
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  axes.cpu_freqs_mhz = {2000, 6500};
  axes.ctrl_freqs_mhz = {400, 1600};
  axes.channel_counts = {2, 4};
  axes.trcds = {20, 80};
  config.design_points = enumerate_grid(axes);
  return config;
}

TEST(Workflow, EndToEndProducesAllStages) {
  const WorkflowResult result = run_workflow(small_config());
  EXPECT_GT(result.graph.num_vertices(), 0u);
  EXPECT_FALSE(result.trace.empty());
  EXPECT_EQ(result.sweep.size(), small_config().design_points.size());
  EXPECT_FALSE(result.surrogates.scores().empty());
  EXPECT_EQ(result.recommendations.size(), target_metric_names().size());
}

TEST(Workflow, ChecksumMatchesDirectBfs) {
  WorkflowConfig config = small_config();
  graph::CsrGraph g;
  std::uint64_t checksum = 0;
  const auto trace = generate_workload_trace(config, &g, &checksum);
  EXPECT_FALSE(trace.empty());
  // The workload's visited count must be a real BFS visited count.
  EXPECT_GT(checksum, 0u);
  EXPECT_LE(checksum, g.num_vertices());
}

TEST(Workflow, DeterministicForFixedSeed) {
  const WorkflowConfig config = small_config();
  const auto a = generate_workload_trace(config);
  const auto b = generate_workload_trace(config);
  EXPECT_EQ(a, b);
  WorkflowConfig other = config;
  other.seed = 99;
  const auto c = generate_workload_trace(other);
  EXPECT_NE(a, c);
}

TEST(Workflow, TraceRoundTripThroughFilesPreservesSweepInputs) {
  WorkflowConfig config = small_config();
  const auto tmp = std::filesystem::temp_directory_path() /
                   ("gmd_wf_trace_" + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp);
  config.trace_dir = tmp.string();
  const WorkflowResult via_files = run_workflow(config);

  WorkflowConfig in_memory = small_config();
  const WorkflowResult direct = run_workflow(in_memory);

  // NVMain format drops sizes (fixed 64B words) but keeps tick,
  // address, and kind; reads/writes totals must agree.
  ASSERT_EQ(via_files.sweep.size(), direct.sweep.size());
  EXPECT_EQ(via_files.sweep[0].metrics.total_writes,
            direct.sweep[0].metrics.total_writes);
  EXPECT_TRUE(std::filesystem::exists(tmp / "gem5_trace.txt"));
  EXPECT_TRUE(std::filesystem::exists(tmp / "nvmain_trace.txt"));
  std::filesystem::remove_all(tmp);
}

TEST(Workflow, AlternativeWorkloadsRun) {
  for (const std::string workload : {"pagerank", "cc", "sssp"}) {
    WorkflowConfig config = small_config();
    config.workload = workload;
    config.graph_vertices = 64;
    const auto trace = generate_workload_trace(config);
    EXPECT_FALSE(trace.empty()) << workload;
  }
}

TEST(Workflow, ReportContainsAllSections) {
  const WorkflowResult result = run_workflow(small_config());
  const std::string report = result.report();
  EXPECT_NE(report.find("workflow report"), std::string::npos);
  EXPECT_NE(report.find("TABLE I"), std::string::npos);
  EXPECT_NE(report.find("recommendations"), std::string::npos);
}

}  // namespace
}  // namespace gmd::dse
