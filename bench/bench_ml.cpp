/// \file bench_ml.cpp
/// Surrogate-training gauge: times random-forest and gradient-boosting
/// fits with the shared presorted workspace engine against the
/// reference per-node-sort engine and batch inference against per-row
/// predict_one, then prints the numbers as JSON (redirect to
/// BENCH_ml.json to record a run).  Pass --quick for a seconds-scale
/// smoke run (same JSON shape, smaller dataset, single repetition).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gbt.hpp"
#include "support.hpp"

namespace {

using namespace gmd;

struct BenchData {
  ml::Matrix x;
  std::vector<double> y;
};

/// Mixed continuous/grid features like real sweep matrices, scaled to
/// the row count where workspace reuse pays off.
BenchData synthetic_data(std::size_t n) {
  Rng rng(29);
  std::vector<std::vector<double>> rows;
  BenchData data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double() * 10.0;
    const double c = static_cast<double>(rng.next_below(8));
    const double d = static_cast<double>(rng.next_below(4)) * 100.0;
    const double e = rng.next_double() - 0.5;
    const double f = static_cast<double>(rng.next_below(16)) * 0.25;
    rows.push_back({a, b, c, d, e, f});
    data.y.push_back(std::sin(5.0 * a) + 0.2 * b + 0.5 * c * c -
                     0.001 * d + 2.0 * e * f + 0.05 * rng.next_normal());
  }
  data.x = ml::Matrix::from_rows(rows);
  return data;
}

/// Best-of-`reps` wall time of `body` (the usual minimum-of-repeats
/// gauge; cold-cache outliers don't inflate the recorded number).
template <typename F>
double best_seconds(std::size_t reps, F&& body) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const bench::Stopwatch watch;
    body();
    best = std::min(best, watch.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::size_t synthetic_rows = quick ? 1500 : 12000;
  const std::size_t fit_reps = quick ? 1 : 3;
  const std::size_t predict_reps = quick ? 2 : 10;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());

  const BenchData big = synthetic_data(synthetic_rows);
  double checksum = 0.0;

  // --- Forest fit: reference engine vs shared-workspace engine -------
  ml::ForestParams forest;
  forest.num_trees = 24;
  forest.max_depth = 12;
  forest.seed = 7;
  const double forest_reference = best_seconds(fit_reps, [&] {
    ml::ForestParams params = forest;
    params.reference_mode = true;
    ml::RandomForest model(params);
    model.fit(big.x, big.y);
    checksum += model.predict_one(big.x.row(0));
  });
  const double forest_workspace = best_seconds(fit_reps, [&] {
    ml::RandomForest model(forest);
    model.fit(big.x, big.y);
    checksum += model.predict_one(big.x.row(0));
  });

  // --- GBT fit: reference engine vs workspace + parallel splits ------
  ml::GbtParams gbt;
  gbt.num_stages = quick ? 40 : 150;
  gbt.seed = 11;
  const double gbt_reference = best_seconds(fit_reps, [&] {
    ml::GbtParams params = gbt;
    params.reference_mode = true;
    ml::GradientBoosting model(params);
    model.fit(big.x, big.y);
    checksum += model.predict_one(big.x.row(0));
  });
  const double gbt_workspace = best_seconds(fit_reps, [&] {
    ml::GradientBoosting model(gbt);
    model.fit(big.x, big.y);
    checksum += model.predict_one(big.x.row(0));
  });

  // --- Batch inference vs per-row virtual dispatch -------------------
  // The forest (the paper's primary surrogate and recommend.cpp's
  // default) is the headline: per-row traversal of two dozen deep
  // trees misses cache constantly, while the batch path keeps one
  // compact plan hot per full-range pass.  GBT's shallow default
  // stages are already cache-friendly per row, so its ratio is lower.
  ml::GradientBoosting gbt_predictor(ml::GbtParams{});
  gbt_predictor.fit(big.x, big.y);
  const double gbt_predict_per_row = best_seconds(predict_reps, [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < big.x.rows(); ++r) {
      sum += gbt_predictor.predict_one(big.x.row(r));
    }
    checksum += sum;
  });
  const double gbt_predict_batch = best_seconds(predict_reps, [&] {
    const std::vector<double> out = gbt_predictor.predict(big.x);
    checksum += out.back();
  });
  ml::RandomForest predictor(forest);
  predictor.fit(big.x, big.y);
  const double predict_per_row = best_seconds(predict_reps, [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < big.x.rows(); ++r) {
      sum += predictor.predict_one(big.x.row(r));
    }
    checksum += sum;
  });
  const double predict_batch = best_seconds(predict_reps, [&] {
    const std::vector<double> out = predictor.predict(big.x);
    checksum += out.back();
  });

  const double rows = static_cast<double>(big.x.rows());
  std::printf("{\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"threads\": %zu,\n", threads);
  std::printf("  \"synthetic_rows\": %zu,\n", big.x.rows());
  std::printf("  \"forest_fit_reference_seconds\": %.3f,\n", forest_reference);
  std::printf("  \"forest_fit_workspace_seconds\": %.3f,\n", forest_workspace);
  std::printf("  \"forest_fit_speedup\": %.2f,\n",
              forest_reference / forest_workspace);
  std::printf("  \"gbt_fit_reference_seconds\": %.3f,\n", gbt_reference);
  std::printf("  \"gbt_fit_workspace_seconds\": %.3f,\n", gbt_workspace);
  std::printf("  \"gbt_fit_speedup\": %.2f,\n", gbt_reference / gbt_workspace);
  std::printf("  \"forest_predict_one_rows_per_second\": %.0f,\n",
              rows / predict_per_row);
  std::printf("  \"forest_predict_batch_rows_per_second\": %.0f,\n",
              rows / predict_batch);
  std::printf("  \"batch_predict_speedup\": %.2f,\n",
              predict_per_row / predict_batch);
  std::printf("  \"gbt_predict_one_rows_per_second\": %.0f,\n",
              rows / gbt_predict_per_row);
  std::printf("  \"gbt_predict_batch_rows_per_second\": %.0f,\n",
              rows / gbt_predict_batch);
  std::printf("  \"gbt_batch_predict_speedup\": %.2f,\n",
              gbt_predict_per_row / gbt_predict_batch);
  std::printf("  \"checksum\": %.6g\n", checksum);
  std::printf("}\n");
  return 0;
}
