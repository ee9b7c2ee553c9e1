#pragma once

/// \file workspace.hpp
/// Shared per-fit training representation for the tree ensembles: each
/// feature's rows presorted once, so tree growth partitions stable
/// index ranges instead of re-sorting every candidate feature at every
/// node.  One workspace is built per ensemble fit and shared across all
/// trees of a forest and all boosting stages of a GBT; bootstrap /
/// subsample draws derive their per-tree view with for_sample() instead
/// of re-sorting.

#include <cstdint>
#include <span>
#include <vector>

#include "gmd/ml/matrix.hpp"

namespace gmd::ml {

class TrainingWorkspace {
 public:
  TrainingWorkspace() = default;

  /// Presorts every feature of `x` by (value, row index) — the same
  /// total order the per-node std::sort of (value, index) pairs used,
  /// so node-local stable splits of these arrays reproduce the exact
  /// split search bit for bit.
  static TrainingWorkspace build(const Matrix& x);

  /// Derives the workspace of `x.gather_rows(sample)` (duplicates
  /// allowed) from this one in O(rows) per feature instead of a fresh
  /// O(rows log rows) sort — how one presort is shared across all the
  /// bootstrap draws of a forest.
  TrainingWorkspace for_sample(std::span<const std::size_t> sample) const;

  std::size_t rows() const { return rows_; }
  std::size_t features() const { return features_; }
  bool empty() const { return features_ == 0; }

  /// Row indices of feature `f` in ascending (value, row) order.
  std::span<const std::uint32_t> sorted_order(std::size_t f) const {
    return order_[f];
  }
  /// Feature values aligned with sorted_order(f).
  std::span<const double> sorted_values(std::size_t f) const {
    return values_[f];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<std::vector<std::uint32_t>> order_;  ///< Per feature.
  std::vector<std::vector<double>> values_;        ///< Aligned with order_.
};

}  // namespace gmd::ml
