/// \file graph500_runner.cpp
/// The Graph500 benchmark driver the paper could not run inside gem5
/// (§III-D): Kronecker generation, 64 validated BFS searches, TEPS
/// statistics — runnable standalone on the host, or used as a workload
/// source for the co-design flow.
///
/// Usage: graph500_runner [--scale 12] [--edge-factor 16] [--roots 64]

#include <iostream>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/graph/graph500.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("graph500_runner", "Graph500-style BFS benchmark");
  cli.add_option("scale", "12", "log2 of the vertex count")
      .add_option("edge-factor", "16", "edges per vertex")
      .add_option("roots", "64", "number of BFS searches")
      .add_option("seed", "1", "random seed")
      .add_flag("no-validate", "skip per-search result validation");
  try {
    if (!cli.parse(argc, argv)) return 0;

    graph::Graph500Params params;
    params.scale = cli.get_count<unsigned>("scale");
    params.edge_factor = cli.get_count<unsigned>("edge-factor");
    params.num_roots = cli.get_count<unsigned>("roots");
    params.seed = cli.get_count<std::uint64_t>("seed");
    params.validate = !cli.get_flag("no-validate");

    const graph::Graph500Result result = graph::run_graph500(params);
    std::cout << result.summary();
    return result.validation_failures == 0 ? 0 : 2;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
