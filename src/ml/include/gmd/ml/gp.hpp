#pragma once

/// \file gp.hpp
/// Gaussian-process regression with an RBF kernel.  Its predictive
/// variance is the acquisition signal for the active-learning DSE loop
/// the paper proposes as future work (§V).

#include <span>
#include <utility>
#include <vector>

#include "gmd/ml/kernel.hpp"
#include "gmd/ml/matrix.hpp"
#include "gmd/ml/regressor.hpp"

namespace gmd::ml {

struct GpParams {
  KernelParams kernel{KernelType::kRbf, 1.0, 1.0, 3};
  double noise = 1e-4;  ///< Observation noise variance (jitter).
};

class GaussianProcess final : public Regressor {
 public:
  explicit GaussianProcess(const GpParams& params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;

  /// Batch predictive means: skips the O(n^2) variance solves, returning
  /// the same means as predict_with_variance.
  std::vector<double> predict(const Matrix& x) const override;

  /// Predictive mean and variance at one point.
  std::pair<double, double> predict_with_variance(
      std::span<const double> x) const;

  /// Batch means + variances over every row of `x` (the acquisition
  /// scan of the active-learning loop).  Values match the per-row
  /// overload exactly.
  void predict_with_variance(const Matrix& x, std::vector<double>& means,
                             std::vector<double>& variances) const;

  /// Blockwise-parallel batch variant: row blocks are sharded across a
  /// thread pool (0: hardware concurrency, 1: serial).  Every block runs
  /// the same kernel as the serial path and lands at its own output
  /// indices, so results are bit-identical at any thread count.
  void predict_with_variance(const Matrix& x, std::vector<double>& means,
                             std::vector<double>& variances,
                             std::size_t num_threads) const;

  std::string name() const override { return "gp"; }
  std::unique_ptr<Regressor> clone() const override;
  bool is_fitted() const override { return fitted_; }

 private:
  /// The one prediction kernel: means (and variances, unless
  /// `variances` is null) of `count` (1..8) query rows stored
  /// contiguously at `rows`.  Each row runs the textbook sequence --
  /// kernel row, mean sum, full forward and backward Cholesky solves,
  /// then k . x -- in that order, so a row's bits depend neither on the
  /// entry point nor on where it sits in a block.  The rows' independent
  /// solves are interleaved so their latencies overlap.
  void predict_block(const double* rows, std::size_t count, double* means,
                     double* variances) const;

  /// predict_block over every row of `x`, in blocks.
  void predict_rows(const Matrix& x, double* means, double* variances) const;

  GpParams params_;
  Matrix train_;
  Matrix chol_;               ///< Cholesky factor of K + noise I.
  Matrix chol_t_;             ///< chol_ transposed, for the backward solve.
  std::vector<double> alpha_; ///< (K + noise I)^-1 (y - mean).
  double y_mean_ = 0.0;
  bool fitted_ = false;
};

}  // namespace gmd::ml
