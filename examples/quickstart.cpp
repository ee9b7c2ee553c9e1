/// \file quickstart.cpp
/// Minimal end-to-end tour of the co-design workflow (Fig. 1), run by
/// pipeline::run_pipeline into ./quickstart-out:
///   1. generate the paper's workload graph (GTGraph random model) and
///      run Graph500-style BFS on the atomic CPU for a memory trace,
///   2. pack the trace into a GMDT store,
///   3. sweep a small memory design space with the cycle-level simulator,
///   4. train surrogate models and print Table-I-style scores,
///   5. print co-design recommendations.
///
/// The paper's full 416-point study is the same pipeline at scale:
/// `gmd pipeline --space paper --vertices 1024 --edge-factor 16`.
///
/// Usage: quickstart [--vertices N] [--edge-factor K] [--seed S]

#include <fstream>
#include <iostream>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/pipeline/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("quickstart", "end-to-end co-design workflow demo");
  cli.add_option("vertices", "256", "graph size (paper uses 1024)")
      .add_option("edge-factor", "16", "edges per vertex")
      .add_option("seed", "1", "random seed");
  try {
    if (!cli.parse(argc, argv)) return 0;

    pipeline::PipelineOptions options;
    options.out_dir = "quickstart-out";
    options.graph_vertices = cli.get_count<std::uint32_t>("vertices");
    options.edge_factor = cli.get_count<unsigned>("edge-factor");
    options.seed = cli.get_count<std::uint64_t>("seed");
    // A reduced 96-point space keeps the demo quick; leave design_points
    // empty for the full 416-point paper space.
    options.design_points = dse::reduced_design_space();

    const pipeline::PipelineResult result = pipeline::run_pipeline(options);
    std::cout << result.summary() << "\n\n"
              << std::ifstream(result.table1_path).rdbuf() << "\n"
              << std::ifstream(result.recommendations_path).rdbuf();
    return 0;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
