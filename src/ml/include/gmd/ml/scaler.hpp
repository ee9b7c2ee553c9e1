#pragma once

/// \file scaler.hpp
/// Feature/target scaling.  The paper min-max scales all performance
/// metrics onto [0, 1] before training so MSEs are comparable across
/// metrics.

#include <span>
#include <vector>

#include "gmd/ml/matrix.hpp"

namespace gmd::ml {

/// Per-column min-max scaler onto [0, 1].  Constant columns map to 0.
class MinMaxScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  Matrix fit_transform(const Matrix& x);

  /// Rebuilds a fitted scaler from previously-fitted bounds (the
  /// restore half of model persistence).  Both vectors must be the same
  /// non-zero length, finite, with min <= max per column.
  static MinMaxScaler from_bounds(std::vector<double> mins,
                                  std::vector<double> maxs);

  /// Scalar-series convenience (targets).
  void fit(std::span<const double> values);
  std::vector<double> transform(std::span<const double> values) const;
  std::vector<double> inverse_transform(std::span<const double> scaled) const;

  bool fitted() const { return !mins_.empty(); }
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace gmd::ml
