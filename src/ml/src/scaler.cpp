#include "gmd/ml/scaler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gmd/common/error.hpp"

namespace gmd::ml {

void MinMaxScaler::fit(const Matrix& x) {
  GMD_REQUIRE(x.rows() >= 1, "cannot fit scaler on empty data");
  // Scan into locals and publish only on success, so a failed fit
  // leaves the scaler unfitted rather than holding sentinel bounds.
  std::vector<double> mins(x.cols(), std::numeric_limits<double>::infinity());
  std::vector<double> maxs(x.cols(), -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      // A single NaN would silently poison min/max (and through them
      // every transformed value), so fitting on non-finite data is a
      // typed error the caller can quarantine around.
      GMD_REQUIRE_AS(ErrorCode::kInvalidData, std::isfinite(row[c]),
                     "non-finite value at row " << r << ", column " << c
                                                << " while fitting scaler");
      mins[c] = std::min(mins[c], row[c]);
      maxs[c] = std::max(maxs[c], row[c]);
    }
  }
  mins_ = std::move(mins);
  maxs_ = std::move(maxs);
}

Matrix MinMaxScaler::transform(const Matrix& x) const {
  GMD_REQUIRE(fitted(), "scaler not fitted");
  GMD_REQUIRE(x.cols() == mins_.size(), "column count mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    const auto dst = out.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double range = maxs_[c] - mins_[c];
      dst[c] = range > 0.0 ? (src[c] - mins_[c]) / range : 0.0;
    }
  }
  return out;
}

Matrix MinMaxScaler::fit_transform(const Matrix& x) {
  fit(x);
  return transform(x);
}

MinMaxScaler MinMaxScaler::from_bounds(std::vector<double> mins,
                                       std::vector<double> maxs) {
  GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                 !mins.empty() && mins.size() == maxs.size(),
                 "scaler bounds must be equal-length and non-empty (got "
                     << mins.size() << " mins, " << maxs.size() << " maxs)");
  for (std::size_t c = 0; c < mins.size(); ++c) {
    GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                   std::isfinite(mins[c]) && std::isfinite(maxs[c]) &&
                       mins[c] <= maxs[c],
                   "invalid scaler bounds at column " << c << ": ["
                                                      << mins[c] << ", "
                                                      << maxs[c] << "]");
  }
  MinMaxScaler scaler;
  scaler.mins_ = std::move(mins);
  scaler.maxs_ = std::move(maxs);
  return scaler;
}

void MinMaxScaler::fit(std::span<const double> values) {
  GMD_REQUIRE(!values.empty(), "cannot fit scaler on empty data");
  for (std::size_t i = 0; i < values.size(); ++i) {
    GMD_REQUIRE_AS(ErrorCode::kInvalidData, std::isfinite(values[i]),
                   "non-finite value at index " << i
                                                << " while fitting scaler");
  }
  mins_.assign(1, *std::min_element(values.begin(), values.end()));
  maxs_.assign(1, *std::max_element(values.begin(), values.end()));
}

std::vector<double> MinMaxScaler::transform(
    std::span<const double> values) const {
  GMD_REQUIRE(fitted() && mins_.size() == 1,
              "scaler not fitted on a scalar series");
  const double range = maxs_[0] - mins_[0];
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = range > 0.0 ? (values[i] - mins_[0]) / range : 0.0;
  }
  return out;
}

std::vector<double> MinMaxScaler::inverse_transform(
    std::span<const double> scaled) const {
  GMD_REQUIRE(fitted() && mins_.size() == 1,
              "scaler not fitted on a scalar series");
  const double range = maxs_[0] - mins_[0];
  std::vector<double> out(scaled.size());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    out[i] = mins_[0] + scaled[i] * range;
  }
  return out;
}

}  // namespace gmd::ml
