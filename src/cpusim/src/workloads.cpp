#include "gmd/cpusim/workloads.hpp"

#include <limits>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"

namespace gmd::cpusim {

namespace {

using graph::VertexId;

/// Shared setup: the CSR arrays in simulated memory.  The graph is
/// assumed resident before the kernel's region of interest begins, so
/// the copy-in itself is silent (Graph500 times only the search).
struct SimCsr {
  SimArray<std::uint64_t> offsets;
  SimArray<VertexId> neighbors;

  SimCsr(AddressSpace& space, AtomicCpu& cpu, const graph::CsrGraph& g)
      : offsets(space.allocate<std::uint64_t>(cpu, g.num_vertices() + 1,
                                              "csr.offsets")),
        neighbors(
            space.allocate<VertexId>(cpu, g.num_edges(), "csr.neighbors")) {
    offsets.assign_silent(
        {g.offsets().begin(), g.offsets().end()});
    neighbors.assign_silent(
        {g.neighbors().begin(), g.neighbors().end()});
  }
};

WorkloadResult finish(AtomicCpu& cpu, const AddressSpace& space,
                      std::uint64_t kernel_output) {
  cpu.flush_cache();
  WorkloadResult result;
  result.cpu = cpu.stats();
  result.sim_bytes = space.bytes_allocated();
  result.kernel_output = kernel_output;
  return result;
}

}  // namespace

BfsWorkload::BfsWorkload(const graph::CsrGraph& graph, VertexId source)
    : graph_(graph), source_(source) {
  GMD_REQUIRE(source < graph.num_vertices(),
              "BFS source " << source << " out of range");
}

WorkloadResult BfsWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();

  constexpr VertexId kNone = std::numeric_limits<VertexId>::max();
  auto parent = space.allocate<VertexId>(cpu, n, "bfs.parent");
  auto frontier = space.allocate<VertexId>(cpu, n, "bfs.frontier");
  auto next = space.allocate<VertexId>(cpu, n, "bfs.next");
  parent.fill_silent(kNone);

  // Region of interest: the Graph500 timed kernel.
  parent.store(source_, source_);
  frontier.store(0, source_);
  std::size_t frontier_size = 1;
  std::uint64_t visited = 1;

  while (frontier_size > 0) {
    std::size_t next_size = 0;
    for (std::size_t i = 0; i < frontier_size; ++i) {
      const VertexId u = frontier.load(i);
      const std::uint64_t begin = csr.offsets.load(u);
      const std::uint64_t end = csr.offsets.load(u + 1);
      for (std::uint64_t e = begin; e < end; ++e) {
        const VertexId v = csr.neighbors.load(e);
        cpu.compute();  // visited check
        if (parent.load(v) == kNone) {
          parent.store(v, u);
          next.store(next_size++, v);
          ++visited;
        }
      }
    }
    // Swap frontiers: the kernel reads `next` as the new frontier.
    for (std::size_t i = 0; i < next_size; ++i) {
      frontier.store(i, next.load(i));
    }
    frontier_size = next_size;
    cpu.compute();  // loop bookkeeping
  }
  return finish(cpu, space, visited);
}

DirectionOptimizingBfsWorkload::DirectionOptimizingBfsWorkload(
    const graph::CsrGraph& graph, VertexId source, double alpha)
    : graph_(graph), source_(source), alpha_(alpha) {
  GMD_REQUIRE(source < graph.num_vertices(),
              "BFS source " << source << " out of range");
  GMD_REQUIRE(alpha > 0.0, "alpha must be positive");
}

WorkloadResult DirectionOptimizingBfsWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();

  constexpr VertexId kNone = std::numeric_limits<VertexId>::max();
  auto parent = space.allocate<VertexId>(cpu, n, "dobfs.parent");
  auto in_frontier = space.allocate<std::uint8_t>(cpu, n, "dobfs.frontier");
  auto in_next = space.allocate<std::uint8_t>(cpu, n, "dobfs.next");
  auto frontier = space.allocate<VertexId>(cpu, n, "dobfs.queue");
  parent.fill_silent(kNone);
  in_frontier.fill_silent(0);

  parent.store(source_, source_);
  in_frontier.store(source_, 1);
  frontier.store(0, source_);
  std::size_t frontier_size = 1;
  std::uint64_t frontier_edges = graph_.degree(source_);
  std::uint64_t visited = 1;
  const auto total_edges = static_cast<double>(graph_.num_edges());

  while (frontier_size > 0) {
    const bool bottom_up =
        static_cast<double>(frontier_edges) > total_edges / alpha_;
    std::size_t next_size = 0;
    std::uint64_t next_edges = 0;
    for (VertexId v = 0; v < n; ++v) in_next.store(v, 0);

    if (bottom_up) {
      // Bottom-up: every unvisited vertex scans its neighbors for a
      // frontier member — sequential sweeps over parent[] plus short
      // adjacency probes.
      for (VertexId v = 0; v < n; ++v) {
        if (parent.load(v) != kNone) continue;
        const std::uint64_t begin = csr.offsets.load(v);
        const std::uint64_t end = csr.offsets.load(v + 1);
        for (std::uint64_t e = begin; e < end; ++e) {
          const VertexId u = csr.neighbors.load(e);
          cpu.compute();
          if (in_frontier.load(u) != 0) {
            parent.store(v, u);
            in_next.store(v, 1);
            frontier.store(next_size++, v);
            next_edges += end - begin;
            ++visited;
            break;
          }
        }
      }
    } else {
      for (std::size_t i = 0; i < frontier_size; ++i) {
        const VertexId u = frontier.load(i);
        const std::uint64_t begin = csr.offsets.load(u);
        const std::uint64_t end = csr.offsets.load(u + 1);
        for (std::uint64_t e = begin; e < end; ++e) {
          const VertexId v = csr.neighbors.load(e);
          cpu.compute();
          if (parent.load(v) == kNone) {
            parent.store(v, u);
            in_next.store(v, 1);
            frontier.store(frontier_size + next_size, v);
            ++next_size;
            next_edges += graph_.degree(v);
            ++visited;
          }
        }
      }
      // Compact the next frontier to the queue head.
      for (std::size_t i = 0; i < next_size; ++i) {
        frontier.store(i, frontier.load(frontier_size + i));
      }
    }

    // Swap frontier bitmaps.
    for (VertexId v = 0; v < n; ++v) {
      in_frontier.store(v, in_next.load(v));
    }
    frontier_size = next_size;
    frontier_edges = next_edges;
    cpu.compute();
  }
  return finish(cpu, space, visited);
}

PageRankWorkload::PageRankWorkload(const graph::CsrGraph& graph,
                                   unsigned iterations)
    : graph_(graph), iterations_(iterations) {
  GMD_REQUIRE(iterations >= 1, "PageRank needs >= 1 iteration");
}

WorkloadResult PageRankWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();
  if (n == 0) return finish(cpu, space, 0);

  auto rank = space.allocate<double>(cpu, n, "pr.rank");
  auto next = space.allocate<double>(cpu, n, "pr.next");
  rank.fill_silent(1.0 / static_cast<double>(n));

  constexpr double kDamping = 0.85;
  for (unsigned iter = 0; iter < iterations_; ++iter) {
    for (VertexId v = 0; v < n; ++v) next.store(v, 0.0);
    for (VertexId u = 0; u < n; ++u) {
      const std::uint64_t begin = csr.offsets.load(u);
      const std::uint64_t end = csr.offsets.load(u + 1);
      if (begin == end) continue;
      const double share =
          rank.load(u) / static_cast<double>(end - begin);
      cpu.compute();  // division
      for (std::uint64_t e = begin; e < end; ++e) {
        const VertexId v = csr.neighbors.load(e);
        next.store(v, next.load(v) + share);
        cpu.compute();  // add
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      next.store(v, (1.0 - kDamping) / static_cast<double>(n) +
                        kDamping * next.load(v));
      cpu.compute();
    }
    // Swap by copying (the simulated kernel owns both arrays).
    for (VertexId v = 0; v < n; ++v) rank.store(v, next.load(v));
  }
  // Checksum: scaled sum to a stable integer.
  double sum = 0.0;
  for (VertexId v = 0; v < n; ++v) sum += rank.peek(v);
  return finish(cpu, space, static_cast<std::uint64_t>(sum * 1e6));
}

ConnectedComponentsWorkload::ConnectedComponentsWorkload(
    const graph::CsrGraph& graph)
    : graph_(graph) {}

WorkloadResult ConnectedComponentsWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();
  if (n == 0) return finish(cpu, space, 0);

  auto comp = space.allocate<VertexId>(cpu, n, "cc.component");
  for (VertexId v = 0; v < n; ++v) comp.store(v, v);

  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < n; ++u) {
      const std::uint64_t begin = csr.offsets.load(u);
      const std::uint64_t end = csr.offsets.load(u + 1);
      const VertexId cu = comp.load(u);
      for (std::uint64_t e = begin; e < end; ++e) {
        const VertexId v = csr.neighbors.load(e);
        const VertexId cv = comp.load(v);
        cpu.compute();  // compare
        if (cv < cu) {
          comp.store(u, cv);
          changed = true;
        } else if (cu < cv) {
          comp.store(v, cu);
          changed = true;
        }
      }
    }
  }
  std::uint64_t roots = 0;
  for (VertexId v = 0; v < n; ++v)
    if (comp.peek(v) == v) ++roots;
  return finish(cpu, space, roots);
}

SsspWorkload::SsspWorkload(const graph::CsrGraph& graph, VertexId source,
                           unsigned max_rounds)
    : graph_(graph), source_(source), max_rounds_(max_rounds) {
  GMD_REQUIRE(source < graph.num_vertices(),
              "SSSP source " << source << " out of range");
  GMD_REQUIRE(max_rounds >= 1, "SSSP needs >= 1 round");
}

WorkloadResult SsspWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();

  // Unweighted graphs relax with weight 1; weighted CSRs bring their
  // weights into simulated memory too.
  const bool weighted = graph_.is_weighted();
  auto weights = space.allocate<double>(
      cpu, weighted ? graph_.num_edges() : 1, "sssp.weights");
  if (weighted)
    weights.assign_silent({graph_.weights().begin(), graph_.weights().end()});

  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto dist = space.allocate<double>(cpu, n, "sssp.dist");
  dist.fill_silent(kInf);
  dist.store(source_, 0.0);

  bool changed = true;
  unsigned round = 0;
  while (changed && round < max_rounds_) {
    changed = false;
    ++round;
    for (VertexId u = 0; u < n; ++u) {
      const double du = dist.load(u);
      if (du == kInf) continue;
      const std::uint64_t begin = csr.offsets.load(u);
      const std::uint64_t end = csr.offsets.load(u + 1);
      for (std::uint64_t e = begin; e < end; ++e) {
        const VertexId v = csr.neighbors.load(e);
        const double w = weighted ? weights.load(e) : 1.0;
        cpu.compute();  // add + compare
        if (du + w < dist.load(v)) {
          dist.store(v, du + w);
          changed = true;
        }
      }
    }
  }
  std::uint64_t reached = 0;
  for (VertexId v = 0; v < n; ++v)
    if (dist.peek(v) != kInf) ++reached;
  return finish(cpu, space, reached);
}

TriangleCountWorkload::TriangleCountWorkload(const graph::CsrGraph& graph)
    : graph_(graph) {}

WorkloadResult TriangleCountWorkload::run(AtomicCpu& cpu) const {
  AddressSpace space;
  SimCsr csr(space, cpu, graph_);
  const VertexId n = graph_.num_vertices();

  std::uint64_t triangles = 0;
  for (VertexId u = 0; u < n; ++u) {
    const std::uint64_t u_begin = csr.offsets.load(u);
    const std::uint64_t u_end = csr.offsets.load(u + 1);
    for (std::uint64_t ue = u_begin; ue < u_end; ++ue) {
      const VertexId v = csr.neighbors.load(ue);
      cpu.compute();
      if (v <= u) continue;  // count each triangle once (u < v < w)
      const std::uint64_t v_begin = csr.offsets.load(v);
      const std::uint64_t v_end = csr.offsets.load(v + 1);
      // Sorted intersection of the two adjacency lists above v.
      std::uint64_t i = u_begin;
      std::uint64_t j = v_begin;
      VertexId a = i < u_end ? csr.neighbors.load(i) : 0;
      VertexId b = j < v_end ? csr.neighbors.load(j) : 0;
      while (i < u_end && j < v_end) {
        cpu.compute();
        if (a <= v) {
          ++i;
          if (i < u_end) a = csr.neighbors.load(i);
          continue;
        }
        if (b <= v) {
          ++j;
          if (j < v_end) b = csr.neighbors.load(j);
          continue;
        }
        if (a == b) {
          ++triangles;
          ++i;
          ++j;
          if (i < u_end) a = csr.neighbors.load(i);
          if (j < v_end) b = csr.neighbors.load(j);
        } else if (a < b) {
          ++i;
          if (i < u_end) a = csr.neighbors.load(i);
        } else {
          ++j;
          if (j < v_end) b = csr.neighbors.load(j);
        }
      }
    }
  }
  return finish(cpu, space, triangles);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const graph::CsrGraph& graph,
                                        VertexId source) {
  const std::string key = to_lower(name);
  if (key == "bfs") return std::make_unique<BfsWorkload>(graph, source);
  if (key == "dobfs")
    return std::make_unique<DirectionOptimizingBfsWorkload>(graph, source);
  if (key == "pagerank")
    return std::make_unique<PageRankWorkload>(graph);
  if (key == "cc")
    return std::make_unique<ConnectedComponentsWorkload>(graph);
  if (key == "sssp") return std::make_unique<SsspWorkload>(graph, source);
  if (key == "triangles")
    return std::make_unique<TriangleCountWorkload>(graph);
  throw Error(ErrorCode::kConfig,
              "unknown workload '" + name +
                  "' (expected bfs|dobfs|pagerank|cc|sssp|triangles)");
}

}  // namespace gmd::cpusim
