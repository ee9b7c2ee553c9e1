/// \file bench_ablation_active_learning.cpp
/// The paper's §V future-work experiment, realized: pool-based active
/// learning (GP maximum-variance acquisition) vs. random sampling of
/// configurations to simulate, on a fixed held-out set.  Each label is
/// one (in the paper: ~2-hour) simulator run, so label efficiency is
/// simulation time saved.  Both strategies run the explorer loop over
/// the pool and simulate only what they acquire.

#include <cstdio>
#include <utility>

#include "gmd/dse/explorer.hpp"
#include "support.hpp"

int main() {
  using namespace gmd;

  const auto trace = bench::paper_trace();

  // 75/25 pool/holdout split by stride (deterministic, kind-balanced);
  // only the holdout is simulated up front.
  const std::vector<dse::DesignPoint> points = dse::paper_design_space();
  std::vector<dse::DesignPoint> pool_points, holdout_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    (i % 4 == 0 ? holdout_points : pool_points).push_back(points[i]);
  }
  const dse::LazySpace pool = dse::LazySpace::of(std::move(pool_points));
  const auto holdout = dse::run_sweep(holdout_points, trace);

  dse::ExplorerOptions options;
  options.initial_samples = 10;
  options.simulation_budget = 90;
  options.batch_size = 8;
  options.seed = 5;

  for (const std::string metric : {"power_w", "total_latency_cycles"}) {
    options.metric = metric;
    options.acquisition = dse::Acquisition::kMaxVariance;
    const auto active = dse::run_learning_curve(pool, trace, holdout, options);
    options.acquisition = dse::Acquisition::kRandom;
    const auto random = dse::run_learning_curve(pool, trace, holdout, options);
    std::printf("\n# metric: %s — holdout R2 vs simulation budget "
                "(pool=%zu, holdout=%zu)\n",
                metric.c_str(), pool.size(), holdout.size());
    std::printf("%8s %14s %14s\n", "labels", "active(GP-var)", "random");
    for (std::size_t i = 0; i < active.curve.size(); ++i) {
      std::printf("%8zu %14.4f %14.4f\n", active.curve[i].labels_used,
                  active.curve[i].r2_on_holdout,
                  i < random.curve.size() ? random.curve[i].r2_on_holdout
                                          : 0.0);
    }
    const double final_active = active.curve.back().r2_on_holdout;
    const double final_random = random.curve.back().r2_on_holdout;
    std::printf("# final: active %.4f vs random %.4f -> %s\n", final_active,
                final_random,
                final_active >= final_random - 0.02 ? "active >= random"
                                                    : "random wins here");
  }
  return 0;
}
