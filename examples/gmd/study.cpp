/// \file study.cpp
/// `gmd pareto` and `gmd study`: decisions and studies on top of the
/// paper's sweep.
///
/// `gmd pareto` computes the power/latency/bandwidth Pareto front over
/// the reduced grid and answers the constrained query "fastest memory
/// under a power cap" — the decision step an architect runs after the
/// per-metric recommendations.
///
/// `gmd study` is the §V generalizability study: it sweeps every kernel
/// of the comma-separated --workload list, trains descriptor-augmented
/// surrogates, and prints leave-one-workload-out generalization scores.

#include <iostream>

#include "flags.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/multi_study.hpp"
#include "gmd/dse/pareto.hpp"
#include "verbs.hpp"

namespace gmd::cli {

int pareto(int argc, char** argv) {
  CliParser cli("gmd pareto", "multi-objective memory co-design");
  add_workload(cli, {.graph_vertices = 512});
  cli.add_option("power-cap", "0.12", "power budget in W per channel");
  if (!parse(cli, argc, argv)) return 0;

  const auto trace = dse::generate_workload_trace(read_workload(cli));
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
}

int study(int argc, char** argv) {
  CliParser cli("gmd study", "cross-workload surrogate generalization study");
  add_workload(cli,
               {.graph_vertices = 512, .workload = "bfs,pagerank,cc,sssp"},
               "comma-separated graph kernels, each left out in turn");
  cli.add_option("model", "svr", "surrogate family (linear|svr|rf|gb)");
  if (!parse(cli, argc, argv)) return 0;

  const dse::WorkloadSpec spec = read_workload(cli);
  dse::MultiStudyConfig config;
  config.graph_vertices = spec.graph_vertices;
  config.edge_factor = spec.edge_factor;
  config.seed = spec.seed;
  config.surrogate_model = cli.get_string("model");
  config.workloads.clear();
  for (const auto part : split(spec.workload, ',')) {
    config.workloads.emplace_back(trim(part));
  }

  const dse::MultiStudyResult result = run_multi_workload_study(config);
  std::cout << result.summary();
  std::cout << "\nPer-metric mean LOWO R2:\n";
  for (const std::string& metric : dse::target_metric_names()) {
    std::cout << "  " << metric << ": "
              << format_fixed(result.mean_lowo_r2(metric), 4) << "\n";
  }
  return 0;
}

}  // namespace gmd::cli
