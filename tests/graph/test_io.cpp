#include "gmd/graph/io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::graph {
namespace {

EdgeList sample_graph() {
  UniformRandomParams params;
  params.num_vertices = 64;
  params.edge_factor = 4;
  params.max_weight = 5.0;
  return generate_uniform_random(params);
}

TEST(GraphIo, TextRoundTrip) {
  const EdgeList original = sample_graph();
  std::stringstream ss;
  write_edge_list(ss, original);
  const EdgeList back = read_edge_list(ss);
  EXPECT_EQ(back.num_vertices, original.num_vertices);
  ASSERT_EQ(back.edges.size(), original.edges.size());
  for (std::size_t i = 0; i < back.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i].src, original.edges[i].src);
    EXPECT_EQ(back.edges[i].dst, original.edges[i].dst);
    EXPECT_DOUBLE_EQ(back.edges[i].weight, original.edges[i].weight);
  }
}

TEST(GraphIo, ReadsDimacsFormat) {
  std::istringstream in(
      "c a comment\n"
      "p sp 4 3\n"
      "a 1 2 1.5\n"
      "a 2 3\n"
      "a 4 1 2.0\n");
  const EdgeList list = read_edge_list(in);
  EXPECT_EQ(list.num_vertices, 4u);
  ASSERT_EQ(list.edges.size(), 3u);
  EXPECT_EQ(list.edges[0], (Edge{0, 1, 1.5}));
  EXPECT_EQ(list.edges[1], (Edge{1, 2, 1.0}));  // default weight
  EXPECT_EQ(list.edges[2], (Edge{3, 0, 2.0}));
}

TEST(GraphIo, ReadsBareEdgeList) {
  std::istringstream in(
      "# zero-based pairs\n"
      "0 1\n"
      "1 2 3.5\n"
      "% another comment style\n"
      "5 0\n");
  const EdgeList list = read_edge_list(in);
  EXPECT_EQ(list.num_vertices, 6u);  // inferred from max id
  EXPECT_EQ(list.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(list.edges[1].weight, 3.5);
}

TEST(GraphIo, RejectsMalformedInput) {
  std::istringstream missing_field("a 1\n");
  EXPECT_THROW(read_edge_list(missing_field), Error);
  std::istringstream bad_id("a x 2\n");
  EXPECT_THROW(read_edge_list(bad_id), Error);
  std::istringstream zero_based_dimacs("p sp 2 1\na 0 1\n");
  EXPECT_THROW(read_edge_list(zero_based_dimacs), Error);
  std::istringstream out_of_range("p sp 2 1\na 1 5\n");
  EXPECT_THROW(read_edge_list(out_of_range), Error);
}

TEST(GraphIo, EmptyInputGivesEmptyGraph) {
  std::istringstream in("c nothing here\n");
  const EdgeList list = read_edge_list(in);
  EXPECT_EQ(list.num_vertices, 0u);
  EXPECT_TRUE(list.edges.empty());
}

TEST(GraphIo, BinaryRoundTrip) {
  const EdgeList original = sample_graph();
  std::stringstream ss;
  write_edge_list_binary(ss, original);
  const EdgeList back = read_edge_list_binary(ss);
  EXPECT_EQ(back.num_vertices, original.num_vertices);
  EXPECT_EQ(back.edges, original.edges);
}

TEST(GraphIo, BinaryRejectsBadMagicAndTruncation) {
  std::stringstream bad("NOTAGRAPH________");
  EXPECT_THROW(read_edge_list_binary(bad), Error);

  const EdgeList original = sample_graph();
  std::stringstream ss;
  write_edge_list_binary(ss, original);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() - 3));
  EXPECT_THROW(read_edge_list_binary(truncated), Error);
}

TEST(GraphIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/gmd_graph_test_" +
                           std::to_string(::getpid()) + ".txt";
  const EdgeList original = sample_graph();
  save_edge_list(path, original);
  const EdgeList back = load_edge_list(path);
  EXPECT_EQ(back.edges.size(), original.edges.size());
  EXPECT_THROW(load_edge_list("/nonexistent/g.txt"), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmd::graph
