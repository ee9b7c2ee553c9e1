#pragma once

/// \file gbt.hpp
/// Least-squares gradient boosting: shallow CART trees fitted to the
/// running residual (scikit-learn GradientBoostingRegressor semantics,
/// which the paper uses).

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "gmd/ml/tree.hpp"

namespace gmd {
class Deadline;
}

namespace gmd::ml {

struct GbtParams {
  std::size_t num_stages = 200;
  double learning_rate = 0.1;
  unsigned max_depth = 3;
  std::size_t min_samples_leaf = 1;
  /// Row subsample fraction per stage (stochastic gradient boosting);
  /// 1.0 disables subsampling.
  double subsample = 1.0;
  std::uint64_t seed = 1;
  /// Worker threads for per-feature split search on large nodes (the
  /// stages themselves are inherently sequential).  0: hardware
  /// concurrency; the result is bit-identical for any value.
  std::size_t num_threads = 0;
  /// Forwarded to TreeParams::parallel_min_rows: nodes below this
  /// search serially even with workers available.
  std::size_t parallel_min_rows = 4096;
  /// Trains every stage with the pre-workspace reference engine (golden
  /// path for equivalence tests).
  bool reference_mode = false;
  /// Cooperative cancellation: polled before each boosting stage (via
  /// check_now()) so long fits honor wall budgets.  Non-owning; must
  /// outlive fit().
  Deadline* deadline = nullptr;
};

class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(const GbtParams& params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  /// Batch inference: blocked over rows, stages walked check-free; each
  /// row's value is the same stage-order sum predict_one computes.
  std::vector<double> predict(const Matrix& x) const override;
  std::string name() const override { return "gb"; }
  std::unique_ptr<Regressor> clone() const override;
  bool is_fitted() const override { return fitted_; }

  std::size_t num_stages() const { return stages_.size(); }
  double initial_prediction() const { return f0_; }

  /// Text (de)serialization; see serialize.hpp.
  void write(std::ostream& os) const;
  static GradientBoosting read(std::istream& is);

 private:
  GbtParams params_;
  double f0_ = 0.0;
  std::vector<DecisionTree> stages_;
  bool fitted_ = false;
};

}  // namespace gmd::ml
