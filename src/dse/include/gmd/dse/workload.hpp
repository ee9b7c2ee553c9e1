#pragma once

/// \file workload.hpp
/// The workload-execution step of Figure 1 (the gem5 stand-in): which
/// graph kernel runs on which graph, and the memory trace it produces.
/// pipeline::run_pipeline's cpusim stage, the multi-workload study, the
/// examples and the benches all name their trace with a WorkloadSpec.

#include <cstdint>
#include <string>
#include <vector>

#include "gmd/common/deadline.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/graph/csr.hpp"

namespace gmd::dse {

/// Which trace.  The defaults are the paper's workload (§III-C: GTGraph
/// random graph, 1024 vertices, edge factor 16, Graph500 BFS from a
/// random source).
struct WorkloadSpec {
  std::uint32_t graph_vertices = 1024;
  unsigned edge_factor = 16;
  std::string workload = "bfs";  ///< bfs | dobfs | pagerank | cc | sssp | triangles.
  std::uint64_t seed = 1;
};

/// Builds the spec's graph and returns the memory trace of its kernel.
/// Deterministic for a fixed spec.  When `deadline` is non-null the CPU
/// model polls it on every memory access, so a hung or oversized
/// workload unwinds with Error(kTimeout/kCancelled) instead of running
/// unbounded.
std::vector<cpusim::MemoryEvent> generate_workload_trace(
    const WorkloadSpec& spec, graph::CsrGraph* graph_out = nullptr,
    std::uint64_t* checksum_out = nullptr, Deadline* deadline = nullptr);

}  // namespace gmd::dse
