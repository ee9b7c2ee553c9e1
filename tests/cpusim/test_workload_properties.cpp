/// Property-style invariants of the workload trace generator, swept
/// across kernels and graph seeds: traces must be deterministic,
/// tick-monotone, and confined to the simulated address space.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gmd/cpusim/workloads.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::cpusim {
namespace {

// The kernel name is a std::string so gtest prints its text, not the
// per-process address of a literal, into the registered test name.
using ParamTuple = std::tuple<std::string, std::uint64_t>;

class WorkloadTraceProperty : public testing::TestWithParam<ParamTuple> {
 protected:
  static graph::CsrGraph make_graph(std::uint64_t seed) {
    graph::UniformRandomParams params;
    params.num_vertices = 128;
    params.edge_factor = 8;
    params.seed = seed;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    graph::remove_self_loops_and_duplicates(list);
    return graph::CsrGraph::from_edge_list(list);
  }

  std::vector<MemoryEvent> run_trace(const graph::CsrGraph& g) const {
    const auto [workload, seed] = GetParam();
    (void)seed;
    VectorSink sink;
    AtomicCpu cpu(CpuModel{}, &sink);
    make_workload(workload, g, 0)->run(cpu);
    return sink.take();
  }
};

TEST_P(WorkloadTraceProperty, TicksAreStrictlyMonotone) {
  const auto g = make_graph(std::get<1>(GetParam()));
  const auto trace = run_trace(g);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].tick, trace[i - 1].tick) << "event " << i;
  }
}

TEST_P(WorkloadTraceProperty, AddressesWithinSimulatedSpace) {
  const auto g = make_graph(std::get<1>(GetParam()));
  const auto trace = run_trace(g);
  // The bump allocator starts at 0x1000'0000; a 128-vertex workload
  // fits comfortably below 0x1100'0000.
  for (const auto& event : trace) {
    EXPECT_GE(event.address, 0x1000'0000u);
    EXPECT_LT(event.address + event.size, 0x1100'0000u);
    EXPECT_GT(event.size, 0u);
    EXPECT_LE(event.size, 8u);  // element-sized accesses, no cache
  }
}

TEST_P(WorkloadTraceProperty, DeterministicPerGraph) {
  const auto g = make_graph(std::get<1>(GetParam()));
  EXPECT_EQ(run_trace(g), run_trace(g));
}

TEST_P(WorkloadTraceProperty, StatsMatchTrace) {
  const auto g = make_graph(std::get<1>(GetParam()));
  const auto [workload, seed] = GetParam();
  (void)seed;
  VectorSink sink;
  AtomicCpu cpu(CpuModel{}, &sink);
  make_workload(workload, g, 0)->run(cpu);
  EXPECT_EQ(cpu.stats().memory_events, sink.events().size());
  EXPECT_EQ(cpu.stats().loads + cpu.stats().stores, sink.events().size());
  EXPECT_GE(cpu.stats().ticks, sink.events().size());  // each costs >= 1
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSeeds, WorkloadTraceProperty,
    testing::Combine(testing::Values("bfs", "dobfs", "pagerank", "cc",
                                     "sssp", "triangles"),
                     testing::Values(1ull, 7ull, 42ull)),
    [](const testing::TestParamInfo<ParamTuple>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gmd::cpusim
