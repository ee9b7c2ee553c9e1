#include "gmd/dse/multi_study.hpp"

#include <cmath>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/ml/metrics.hpp"
#include "gmd/ml/regressor.hpp"
#include "gmd/trace/stats.hpp"

namespace gmd::dse {

namespace {

WorkloadSweep build_workload_sweep(const MultiStudyConfig& config,
                                   const std::string& workload,
                                   const std::vector<DesignPoint>& points) {
  const auto events = generate_workload_trace(
      {config.graph_vertices, config.edge_factor, workload, config.seed});
  const auto stats = trace::compute_stats(events);

  WorkloadSweep sweep;
  sweep.name = workload;
  SweepOptions sweep_options;
  sweep_options.num_threads = config.num_threads;
  sweep.rows = run_sweep(points, events, sweep_options);
  sweep.log10_events =
      std::log10(static_cast<double>(std::max<std::uint64_t>(stats.events, 1)));
  sweep.read_fraction = stats.read_fraction();
  sweep.footprint_kb = static_cast<double>(stats.footprint_bytes()) / 1024.0;
  return sweep;
}

}  // namespace

MultiStudyResult run_multi_workload_study(const MultiStudyConfig& config) {
  GMD_REQUIRE(config.workloads.size() >= 2,
              "a multi-workload study needs at least two workloads");
  const std::vector<DesignPoint> points = config.design_points.empty()
                                              ? reduced_design_space()
                                              : config.design_points;
  const std::vector<std::string> metrics =
      config.metrics.empty() ? target_metric_names() : config.metrics;

  MultiStudyResult result;
  result.sweeps.reserve(config.workloads.size());
  for (const std::string& workload : config.workloads) {
    result.sweeps.push_back(build_workload_sweep(config, workload, points));
  }

  // LOWO evaluation: scale over the union so train/test features are
  // commensurable, then hold out one workload's block at a time.
  for (const std::string& metric : metrics) {
    const MetricDataset all =
        build_multi_workload_dataset(result.sweeps, metric);
    std::size_t block_begin = 0;
    for (const WorkloadSweep& held_out : result.sweeps) {
      const std::size_t block_end = block_begin + held_out.rows.size();
      std::vector<std::size_t> train_idx, test_idx;
      for (std::size_t i = 0; i < all.data.size(); ++i) {
        (i >= block_begin && i < block_end ? test_idx : train_idx)
            .push_back(i);
      }
      const ml::Dataset train = all.data.subset(train_idx);
      const ml::Dataset test = all.data.subset(test_idx);
      const auto model =
          ml::make_regressor(config.surrogate_model, config.seed);
      model->fit(train.X, train.y);
      const std::vector<double> predicted = model->predict(test.X);

      MultiStudyResult::LowoScore score;
      score.held_out_workload = held_out.name;
      score.metric = metric;
      score.r2 = ml::r2_score(test.y, predicted);
      score.mse = ml::mse(test.y, predicted);
      result.lowo.push_back(score);
      block_begin = block_end;
    }
  }
  return result;
}

double MultiStudyResult::mean_lowo_r2(const std::string& metric) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const LowoScore& score : lowo) {
    if (score.metric == metric) {
      sum += score.r2;
      ++count;
    }
  }
  GMD_REQUIRE(count > 0, "no LOWO scores for metric '" << metric << "'");
  return sum / static_cast<double>(count);
}

std::string MultiStudyResult::summary() const {
  std::ostringstream os;
  os << "Multi-workload study: " << sweeps.size() << " workloads\n";
  for (const WorkloadSweep& sweep : sweeps) {
    os << "  " << sweep.name << ": " << sweep.rows.size()
       << " configurations, 10^" << format_fixed(sweep.log10_events, 1)
       << " events, " << format_fixed(sweep.read_fraction * 100.0, 1)
       << "% reads, " << format_fixed(sweep.footprint_kb, 0) << " KiB\n";
  }
  os << "Leave-one-workload-out R2 (surrogate generalization):\n";
  for (const LowoScore& score : lowo) {
    os << "  " << score.metric << " / hold out " << score.held_out_workload
       << ": " << format_fixed(score.r2, 4) << "\n";
  }
  return os.str();
}

}  // namespace gmd::dse
