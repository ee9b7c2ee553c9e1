/// \file pareto_codesign.cpp
/// Multi-objective co-design on top of the paper's sweep: compute the
/// power/latency/bandwidth Pareto front and answer constrained queries
/// like "fastest memory under a power cap" — the decision step an
/// architect runs after the per-metric recommendations.
///
/// Usage: pareto_codesign [--vertices 512] [--power-cap 0.12]

#include <iostream>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/pareto.hpp"
#include "gmd/dse/workload.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("pareto_codesign", "multi-objective memory co-design");
  cli.add_option("vertices", "512", "graph size")
      .add_option("workload", "bfs", "bfs | dobfs | pagerank | cc | sssp | triangles")
      .add_option("power-cap", "0.12", "power budget in W per channel");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto trace = dse::generate_workload_trace(
        {.graph_vertices = static_cast<std::uint32_t>(cli.get_int("vertices")),
         .workload = cli.get_string("workload")});
    const auto rows = dse::run_sweep(dse::reduced_design_space(), trace);

    const std::vector<dse::Objective> objectives = {
        dse::Objective("power_w"), dse::Objective("total_latency_cycles"),
        dse::Objective("bandwidth_mbs")};
    const auto front = dse::pareto_front(rows, objectives);
    std::cout << dse::format_pareto_front(rows, front, objectives) << "\n";

    const double cap = cli.get_double("power-cap");
    const std::vector<dse::Constraint> constraints = {
        {"power_w", cap, /*is_upper_bound=*/true}};
    const auto best = dse::best_under_constraints(
        rows, dse::Objective("total_latency_cycles"), constraints);
    if (best) {
      const auto& row = rows[*best];
      std::cout << "Fastest memory under " << cap << " W/channel: "
                << row.point.id() << " (total latency "
                << row.metrics.avg_total_latency_cycles << " cycles, power "
                << row.metrics.avg_power_per_channel_w << " W)\n";
    } else {
      std::cout << "No configuration satisfies the " << cap
                << " W/channel power cap.\n";
    }
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
