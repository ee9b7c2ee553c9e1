#include "gmd/graph/bfs.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "gmd/common/error.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::graph {
namespace {

// Path graph 0-1-2-3 (undirected).
CsrGraph path4() {
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1}, {1, 2}, {2, 3}};
  symmetrize(list);
  return CsrGraph::from_edge_list(list);
}

CsrGraph paper_graph(std::uint64_t seed = 1) {
  UniformRandomParams p;
  p.num_vertices = 1024;
  p.edge_factor = 16;
  p.seed = seed;
  EdgeList list = generate_uniform_random(p);
  symmetrize(list);
  remove_self_loops_and_duplicates(list);
  return CsrGraph::from_edge_list(list);
}

using BfsFn = BfsResult (*)(const CsrGraph&, VertexId);

BfsResult run_dir_opt(const CsrGraph& g, VertexId s) {
  return bfs_direction_optimizing(g, s);
}

// Named so the printed parameter, and with it the registered test name,
// is the variant name rather than a per-process code address.
struct BfsCase {
  const char* name;
  BfsFn run;
};

void PrintTo(const BfsCase& c, std::ostream* os) { *os << c.name; }

class BfsVariant : public testing::TestWithParam<BfsCase> {};

TEST_P(BfsVariant, PathGraphDepths) {
  const CsrGraph g = path4();
  const BfsResult r = GetParam().run(g, 0);
  EXPECT_EQ(r.depth[0], 0u);
  EXPECT_EQ(r.depth[1], 1u);
  EXPECT_EQ(r.depth[2], 2u);
  EXPECT_EQ(r.depth[3], 3u);
  EXPECT_EQ(r.vertices_visited, 4u);
}

TEST_P(BfsVariant, SourceIsItsOwnParent) {
  const CsrGraph g = path4();
  const BfsResult r = GetParam().run(g, 2);
  EXPECT_EQ(r.parent[2], 2u);
  EXPECT_EQ(r.depth[2], 0u);
}

TEST_P(BfsVariant, DisconnectedComponentUnreached) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1}, {3, 4}};
  symmetrize(list);
  const CsrGraph g = CsrGraph::from_edge_list(list);
  const BfsResult r = GetParam().run(g, 0);
  EXPECT_TRUE(r.reached(1));
  EXPECT_FALSE(r.reached(2));
  EXPECT_FALSE(r.reached(3));
  EXPECT_FALSE(r.reached(4));
  EXPECT_EQ(r.vertices_visited, 2u);
}

TEST_P(BfsVariant, ValidatesOnPaperScaleGraph) {
  const CsrGraph g = paper_graph();
  const BfsResult r = GetParam().run(g, 17);
  std::string reason;
  EXPECT_TRUE(validate_bfs(g, r, &reason)) << reason;
  // Dense uniform random graph: everything reachable.
  EXPECT_EQ(r.vertices_visited, g.num_vertices());
}

TEST_P(BfsVariant, SingletonGraph) {
  EdgeList list;
  list.num_vertices = 1;
  const CsrGraph g = CsrGraph::from_edge_list(list);
  const BfsResult r = GetParam().run(g, 0);
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.depth[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BfsVariant,
    testing::Values(BfsCase{"TopDown", &bfs_top_down},
                    BfsCase{"BottomUp", &bfs_bottom_up},
                    BfsCase{"DirectionOptimizing", &run_dir_opt}),
    [](const testing::TestParamInfo<BfsCase>& info) {
      return std::string(info.param.name);
    });

TEST(Bfs, VariantsAgreeOnDepths) {
  const CsrGraph g = paper_graph(3);
  const BfsResult td = bfs_top_down(g, 5);
  const BfsResult bu = bfs_bottom_up(g, 5);
  const BfsResult dir = bfs_direction_optimizing(g, 5);
  EXPECT_EQ(td.depth, bu.depth);
  EXPECT_EQ(td.depth, dir.depth);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const CsrGraph g = path4();
  EXPECT_THROW(bfs_top_down(g, 99), Error);
}

TEST(BfsValidate, DetectsDepthSkippingParent) {
  const CsrGraph g = path4();
  BfsResult r = bfs_top_down(g, 0);
  r.depth[3] = 5;  // corrupt: tree edge 2->3 now spans 3 levels
  EXPECT_FALSE(validate_bfs(g, r));
}

TEST(BfsValidate, DetectsNonGraphTreeEdge) {
  const CsrGraph g = path4();
  BfsResult r = bfs_top_down(g, 0);
  r.parent[3] = 0;  // 0->3 is not an edge
  r.depth[3] = 1;
  EXPECT_FALSE(validate_bfs(g, r));
}

TEST(BfsValidate, DetectsUnreachedNeighborOfReached) {
  const CsrGraph g = path4();
  BfsResult r = bfs_top_down(g, 0);
  r.parent[3] = kNoParent;
  r.depth[3] = kUnreachedDepth;
  std::string reason;
  EXPECT_FALSE(validate_bfs(g, r, &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(BfsValidate, DetectsInconsistentReachability) {
  const CsrGraph g = path4();
  BfsResult r = bfs_top_down(g, 0);
  r.depth[2] = kUnreachedDepth;  // parent still set
  EXPECT_FALSE(validate_bfs(g, r));
}

TEST(BfsValidate, DetectsWrongSourceDepth) {
  const CsrGraph g = path4();
  BfsResult r = bfs_top_down(g, 0);
  r.depth[0] = 1;
  EXPECT_FALSE(validate_bfs(g, r));
}

TEST(BfsValidate, AcceptsCorrectResult) {
  const CsrGraph g = path4();
  const BfsResult r = bfs_top_down(g, 1);
  std::string reason;
  EXPECT_TRUE(validate_bfs(g, r, &reason)) << reason;
  EXPECT_TRUE(reason.empty());
}

}  // namespace
}  // namespace gmd::graph
