#include "gmd/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"

namespace gmd::graph {

EdgeList generate_uniform_random(const UniformRandomParams& params) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, params.num_vertices >= 2,
                 "uniform-random graph needs >= 2 vertices");
  GMD_REQUIRE(params.max_weight >= 1.0, "max_weight must be >= 1");
  Rng rng(params.seed);
  EdgeList list;
  list.num_vertices = params.num_vertices;
  const std::size_t target =
      static_cast<std::size_t>(params.num_vertices) * params.edge_factor;
  list.edges.reserve(target);
  const std::uint64_t n = params.num_vertices;
  while (list.edges.size() < target) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;  // GTGraph's random model skips self-loops
    const double w = params.max_weight == 1.0
                         ? 1.0
                         : rng.next_double_in(1.0, params.max_weight);
    list.edges.push_back({u, v, w});
  }
  return list;
}

namespace {

/// Draws one R-MAT edge by descending `scale` levels of the recursive
/// 2x2 partition with probabilities (a, b, c, d).
Edge rmat_edge(Rng& rng, unsigned scale, double a, double b, double c) {
  VertexId src = 0;
  VertexId dst = 0;
  for (unsigned level = 0; level < scale; ++level) {
    const double r = rng.next_double();
    src <<= 1;
    dst <<= 1;
    if (r < a) {
      // top-left quadrant: no bits set
    } else if (r < a + b) {
      dst |= 1;
    } else if (r < a + b + c) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
  }
  return {src, dst, 1.0};
}

}  // namespace

EdgeList generate_rmat(const RmatParams& params) {
  GMD_REQUIRE(params.scale >= 1 && params.scale <= 30,
              "rmat scale must be in [1, 30]");
  const double sum = params.a + params.b + params.c + params.d;
  GMD_REQUIRE(std::abs(sum - 1.0) < 1e-6,
              "rmat probabilities must sum to 1 (got " << sum << ")");
  GMD_REQUIRE(params.a > 0 && params.b > 0 && params.c > 0 && params.d > 0,
              "rmat probabilities must be positive");

  Rng rng(params.seed);
  EdgeList list;
  list.num_vertices = VertexId{1} << params.scale;
  const std::size_t target =
      static_cast<std::size_t>(list.num_vertices) * params.edge_factor;
  list.edges.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    Edge e = rmat_edge(rng, params.scale, params.a, params.b, params.c);
    if (params.max_weight > 1.0)
      e.weight = rng.next_double_in(1.0, params.max_weight);
    list.edges.push_back(e);
  }
  return list;
}

EdgeList generate_graph500_kronecker(const KroneckerParams& params) {
  RmatParams rmat;
  rmat.scale = params.scale;
  rmat.edge_factor = params.edge_factor;
  rmat.a = 0.57;
  rmat.b = 0.19;
  rmat.c = 0.19;
  rmat.d = 0.05;
  rmat.seed = params.seed;
  EdgeList list = generate_rmat(rmat);

  // Graph500 spec: permute vertex labels so vertex id carries no degree
  // information, then treat the graph as undirected.
  Rng rng(params.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<VertexId> perm(list.num_vertices);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  rng.shuffle(perm);
  for (Edge& e : list.edges) {
    e.src = perm[e.src];
    e.dst = perm[e.dst];
  }
  symmetrize(list);
  return list;
}

EdgeList generate_erdos_renyi(const ErdosRenyiParams& params) {
  GMD_REQUIRE(params.edge_probability >= 0.0 && params.edge_probability <= 1.0,
              "edge probability must be in [0, 1]");
  Rng rng(params.seed);
  EdgeList list;
  list.num_vertices = params.num_vertices;
  for (VertexId u = 0; u < params.num_vertices; ++u) {
    for (VertexId v = 0; v < params.num_vertices; ++v) {
      if (u != v && rng.next_bool(params.edge_probability)) {
        list.edges.push_back({u, v, 1.0});
      }
    }
  }
  return list;
}

}  // namespace gmd::graph
