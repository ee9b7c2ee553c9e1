/// \file bench_explorer.cpp
/// Streaming-acquisition gauge for the adaptive explorer: lazy decode
/// throughput over the 10^6-point grid, surrogate scoring rates (forest
/// mean and mean+spread over the whole space; GP mean and mean+variance
/// over a fixed 65,536-row slice of it), and the wall time of a full
/// closed loop (seed sample -> simulate -> train -> stream-score ->
/// acquire) over the million-point space.  Prints JSON;
/// BENCH_explorer.json keeps recorded runs under "before" and "after".
/// Pass --quick for a seconds-scale smoke with the same JSON shape.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gp.hpp"
#include "gmd/ml/scaler.hpp"
#include "support.hpp"

namespace {

using namespace gmd;

/// Fits the space-bounds feature scaler the explorer uses per round.
ml::MinMaxScaler bounds_scaler(const dse::LazySpace& space) {
  std::vector<double> mins, maxs;
  space.feature_bounds(mins, maxs);
  for (std::size_t f = 0; f < mins.size(); ++f) {
    if (mins[f] > maxs[f]) std::swap(mins[f], maxs[f]);
  }
  return ml::MinMaxScaler::from_bounds(std::move(mins), std::move(maxs));
}

/// A deterministic surrogate training set: `n` space points with a
/// synthetic nonlinear response, scaled like the explorer scales them.
void training_set(const dse::LazySpace& space, const ml::MinMaxScaler& scaler,
                  std::size_t n, ml::Matrix* xs, std::vector<double>* y) {
  const std::size_t width = dse::DesignPoint::feature_names().size();
  Rng rng(7);
  ml::Matrix x(n, width);
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = rng.next_below(space.size());
    space.decode_features(index, index + 1, x.row(i));
    double response = 0.0;
    for (std::size_t c = 0; c < width; ++c) {
      response += std::sin(x.row(i)[c] * 0.001 + static_cast<double>(c));
    }
    y->push_back(response);
  }
  *xs = scaler.transform(x);
}

double timed_scan(const dse::LazySpace& space, const dse::BlockScorer& scorer,
                  std::size_t block_size, dse::StreamStats* stats = nullptr) {
  const bench::Stopwatch watch;
  const auto top =
      dse::stream_score_topk(space, scorer, 10, {}, block_size, 1, stats);
  (void)top;
  return watch.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  const dse::LazySpace space =
      quick ? dse::LazySpace::paper()
            : dse::LazySpace(dse::LazySpace::million_axes());
  const ml::MinMaxScaler scaler = bounds_scaler(space);
  const std::size_t n = space.size();

  // --- raw lazy decode: index -> feature row, no model ------------------
  const dse::BlockScorer sum_scorer = [](const ml::Matrix& x, std::size_t,
                                         std::span<double> out) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double sum = 0.0;
      for (const double v : x.row(r)) sum += v;
      out[r] = sum;
    }
  };
  dse::StreamStats decode_stats;
  const double decode_seconds =
      timed_scan(space, sum_scorer, 8192, &decode_stats);

  // --- forest surrogate, trained like a mid-run explorer round ----------
  ml::Matrix xs;
  std::vector<double> y;
  training_set(space, scaler, 128, &xs, &y);
  ml::ForestParams forest_params;
  forest_params.num_trees = 32;
  ml::RandomForest forest(forest_params);
  forest.fit(xs, y);

  const dse::BlockScorer rf_mean = [&](const ml::Matrix& x, std::size_t,
                                       std::span<double> out) {
    const ml::Matrix scaled = scaler.transform(x);
    const std::vector<double> mu = forest.predict(scaled);
    std::copy(mu.begin(), mu.end(), out.begin());
  };
  const double rf_mean_seconds = timed_scan(space, rf_mean, 8192);

  const dse::BlockScorer rf_spread = [&](const ml::Matrix& x, std::size_t,
                                         std::span<double> out) {
    thread_local std::vector<double> mu;
    thread_local std::vector<double> var;
    const ml::Matrix scaled = scaler.transform(x);
    forest.predict_with_spread(scaled, mu, var);
    std::copy(var.begin(), var.end(), out.begin());
  };
  const double rf_spread_seconds = timed_scan(space, rf_spread, 8192);

  // --- GP surrogate on a fixed slice: every stride-th point, up to
  // 65,536 rows, fitted on 32 and 64 rows like the explorer's rounds.
  // Means alone are the exploit round and final ranking; means plus
  // variance are the acquisition rounds.
  const std::size_t width = dse::DesignPoint::feature_names().size();
  const std::size_t slice_rows = std::min<std::size_t>(65536, n);
  const std::size_t stride = n / slice_rows;
  ml::Matrix slice(slice_rows, width);
  for (std::size_t r = 0; r < slice_rows; ++r) {
    space.decode_features(r * stride, r * stride + 1, slice.row(r));
  }
  const ml::Matrix scaled_slice = scaler.transform(slice);
  struct GpRate {
    std::size_t train_rows;
    double mean_rows_per_second;
    double variance_rows_per_second;
  };
  std::vector<GpRate> gp_rates;
  for (const std::size_t train_rows : {32ul, 64ul}) {
    ml::Matrix gp_xs;
    std::vector<double> gp_y;
    training_set(space, scaler, train_rows, &gp_xs, &gp_y);
    ml::GpParams gp_params;
    gp_params.kernel.gamma = 2.0;  // the explorer's default width
    ml::GaussianProcess gp(gp_params);
    gp.fit(gp_xs, gp_y);
    const bench::Stopwatch mean_watch;
    gp.predict(scaled_slice);
    const double mean_seconds = mean_watch.seconds();
    std::vector<double> mu, var;
    const bench::Stopwatch variance_watch;
    gp.predict_with_variance(scaled_slice, mu, var);
    const double variance_seconds = variance_watch.seconds();
    gp_rates.push_back({train_rows, slice_rows / mean_seconds,
                        slice_rows / variance_seconds});
  }

  // --- the full closed loop over the same space -------------------------
  const auto trace = bench::paper_trace(quick ? 256 : 512);
  dse::ExplorerOptions options;
  options.model = "rf";
  options.initial_samples = 16;
  options.batch_size = 8;
  options.max_rounds = 2;
  options.simulation_budget = 32;
  options.rf_trees = 32;
  const bench::Stopwatch loop_watch;
  const dse::ExplorerResult result = run_explorer(space, trace, options);
  const double loop_seconds = loop_watch.seconds();

  std::printf("{\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"space_points\": %zu,\n", n);
  std::printf("  \"decode_rows_per_second\": %.0f,\n", n / decode_seconds);
  std::printf("  \"rf_mean_scorer_rows_per_second\": %.0f,\n",
              n / rf_mean_seconds);
  std::printf("  \"rf_spread_scorer_rows_per_second\": %.0f,\n",
              n / rf_spread_seconds);
  std::printf("  \"gp_slice_rows\": %zu,\n", slice_rows);
  for (const GpRate& rate : gp_rates) {
    std::printf("  \"gp%zu_mean_rows_per_second\": %.0f,\n", rate.train_rows,
                rate.mean_rows_per_second);
    std::printf("  \"gp%zu_variance_rows_per_second\": %.0f,\n",
                rate.train_rows, rate.variance_rows_per_second);
  }
  std::printf("  \"closed_loop_seconds\": %.3f,\n", loop_seconds);
  std::printf("  \"closed_loop_rounds\": %zu,\n", result.rounds.size());
  std::printf("  \"closed_loop_simulations\": %zu,\n", result.labeled.size());
  std::printf("  \"closed_loop_scored\": %zu,\n", result.stream.scored);
  std::printf("  \"closed_loop_configs_per_second\": %.0f,\n",
              result.stream.scored / loop_seconds);
  std::printf("  \"blocks_streamed\": %zu\n",
              decode_stats.blocks + result.stream.blocks);
  std::printf("}\n");
  return 0;
}
