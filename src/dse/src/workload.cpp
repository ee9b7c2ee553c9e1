#include "gmd/dse/workload.hpp"

#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {

std::vector<cpusim::MemoryEvent> generate_workload_trace(
    const WorkloadSpec& spec, graph::CsrGraph* graph_out,
    std::uint64_t* checksum_out, Deadline* deadline) {
  // Edge factor 0 would "succeed" on an edgeless graph whose trace is a
  // few source-vertex reads: a misconfiguration, not a workload.
  GMD_REQUIRE_AS(ErrorCode::kConfig, spec.edge_factor >= 1,
                 "workload edge factor must be >= 1");
  // GTGraph "random" model graph, symmetrized for Graph500 semantics.
  graph::UniformRandomParams params;
  params.num_vertices = spec.graph_vertices;
  params.edge_factor = spec.edge_factor;
  params.seed = spec.seed;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  graph::remove_self_loops_and_duplicates(list);
  graph::CsrGraph graph = graph::CsrGraph::from_edge_list(list);

  // Random source vertex, as in the paper.
  Rng rng(spec.seed ^ 0xB5297A4D3F84C2E1ULL);
  const auto source = static_cast<graph::VertexId>(
      rng.next_below(graph.num_vertices()));

  cpusim::VectorSink sink;
  cpusim::CpuModel cpu_model;
  cpusim::AtomicCpu cpu(cpu_model, &sink);
  cpu.set_deadline(deadline);
  const auto workload = cpusim::make_workload(spec.workload, graph, source);
  const cpusim::WorkloadResult result = workload->run(cpu);

  if (checksum_out) *checksum_out = result.kernel_output;
  if (graph_out) *graph_out = std::move(graph);
  return sink.take();
}

}  // namespace gmd::dse
