/// \file active_learning_dse.cpp
/// Label-efficient DSE (the paper's §V future work): instead of
/// simulating all configurations, an active learner picks which
/// configuration to simulate next by GP predictive variance, and is
/// compared against random sampling at every budget level.  Both run
/// the explorer loop over a pool of the reduced grid, simulating only
/// what they acquire; only the holdout is simulated up front.
///
/// Usage: active_learning_dse [--metric power_w] [--budget 60]

#include <iomanip>
#include <iostream>
#include <utility>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/workload.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("active_learning_dse",
                "active-learning vs random-sampling DSE comparison");
  cli.add_option("metric", "total_latency_cycles",
                 "target metric (see dataset columns)")
      .add_option("vertices", "256", "graph size")
      .add_option("budget", "60", "total simulation (label) budget")
      .add_option("initial", "8", "random initial labels")
      .add_option("batch", "4", "labels acquired per round")
      .add_option("seed", "1", "random seed");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto trace = dse::generate_workload_trace(
        {.graph_vertices = static_cast<std::uint32_t>(cli.get_int("vertices")),
         .seed = static_cast<std::uint64_t>(cli.get_int("seed"))});

    // Every fourth reduced-grid point is the holdout; the rest is the
    // pool the learners draw from.
    const std::vector<dse::DesignPoint> points = dse::reduced_design_space();
    std::vector<dse::DesignPoint> pool_points, holdout_points;
    for (std::size_t i = 0; i < points.size(); ++i) {
      (i % 4 == 0 ? holdout_points : pool_points).push_back(points[i]);
    }
    const dse::LazySpace pool = dse::LazySpace::of(std::move(pool_points));
    const auto holdout = dse::run_sweep(holdout_points, trace);
    std::cout << "pool: " << pool.size() << " configurations, holdout: "
              << holdout.size() << "\n\n";

    dse::ExplorerOptions options;
    options.metric = cli.get_string("metric");
    options.acquisition = dse::Acquisition::kMaxVariance;
    options.initial_samples = static_cast<std::size_t>(cli.get_int("initial"));
    options.simulation_budget = static_cast<std::size_t>(cli.get_int("budget"));
    options.batch_size = static_cast<std::size_t>(cli.get_int("batch"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    const auto active = dse::run_learning_curve(pool, trace, holdout, options);
    options.acquisition = dse::Acquisition::kRandom;
    const auto random = dse::run_learning_curve(pool, trace, holdout, options);

    std::cout << "metric: " << options.metric << "\n";
    std::cout << std::setw(8) << "labels" << std::setw(14) << "active R2"
              << std::setw(14) << "random R2" << "\n";
    for (std::size_t i = 0; i < active.curve.size(); ++i) {
      std::cout << std::setw(8) << active.curve[i].labels_used << std::fixed
                << std::setprecision(4) << std::setw(14)
                << active.curve[i].r2_on_holdout << std::setw(14)
                << (i < random.curve.size() ? random.curve[i].r2_on_holdout
                                            : 0.0)
                << "\n";
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
