// The workflow's workload step: a WorkloadSpec names one deterministic
// trace.  The stages after it are pipeline::run_pipeline's, tested in
// tests/pipeline.

#include <gtest/gtest.h>

#include <string>

#include "gmd/dse/workload.hpp"

namespace gmd::dse {
namespace {

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.graph_vertices = 128;
  spec.edge_factor = 8;
  return spec;
}

TEST(Workflow, ChecksumMatchesDirectBfs) {
  const WorkloadSpec spec = small_spec();
  graph::CsrGraph g;
  std::uint64_t checksum = 0;
  const auto trace = generate_workload_trace(spec, &g, &checksum);
  EXPECT_FALSE(trace.empty());
  // The workload's visited count must be a real BFS visited count.
  EXPECT_GT(checksum, 0u);
  EXPECT_LE(checksum, g.num_vertices());
}

TEST(Workflow, DeterministicForFixedSeed) {
  const WorkloadSpec spec = small_spec();
  const auto a = generate_workload_trace(spec);
  const auto b = generate_workload_trace(spec);
  EXPECT_EQ(a, b);
  WorkloadSpec other = spec;
  other.seed = 99;
  const auto c = generate_workload_trace(other);
  EXPECT_NE(a, c);
}

TEST(Workflow, AlternativeWorkloadsRun) {
  for (const std::string workload : {"pagerank", "cc", "sssp"}) {
    WorkloadSpec spec = small_spec();
    spec.workload = workload;
    spec.graph_vertices = 64;
    const auto trace = generate_workload_trace(spec);
    EXPECT_FALSE(trace.empty()) << workload;
  }
}

}  // namespace
}  // namespace gmd::dse
