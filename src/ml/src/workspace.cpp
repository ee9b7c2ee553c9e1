#include "gmd/ml/workspace.hpp"

#include <algorithm>
#include <numeric>

#include "gmd/common/error.hpp"

namespace gmd::ml {

TrainingWorkspace TrainingWorkspace::build(const Matrix& x) {
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  GMD_REQUIRE(x.rows() <= UINT32_MAX, "training data too large for workspace");
  TrainingWorkspace ws;
  ws.rows_ = x.rows();
  ws.features_ = x.cols();
  ws.order_.resize(ws.features_);
  ws.values_.resize(ws.features_);
  const std::size_t n = ws.rows_;
  for (std::size_t f = 0; f < ws.features_; ++f) {
    // One strided gather, so the comparator reads a dense column.
    const std::vector<double> column = x.column(f);
    auto& order = ws.order_[f];
    order.resize(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    // Ascending (value, row): ties break on the row index, matching the
    // total order std::sort imposes on (value, index) pairs.
    std::sort(order.begin(), order.end(),
              [&column](std::uint32_t a, std::uint32_t b) {
                const double va = column[a];
                const double vb = column[b];
                return va < vb || (va == vb && a < b);
              });
    auto& values = ws.values_[f];
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = column[order[i]];
  }
  return ws;
}

TrainingWorkspace TrainingWorkspace::for_sample(
    std::span<const std::size_t> sample) const {
  GMD_REQUIRE(!empty(), "for_sample before build");
  GMD_REQUIRE(!sample.empty(), "empty sample");
  GMD_REQUIRE(sample.size() <= UINT32_MAX, "sample too large for workspace");
  const std::size_t n = rows_;
  const std::size_t m = sample.size();

  // CSR of gathered positions per base row; position lists are built in
  // ascending gathered order.
  std::vector<std::uint32_t> counts(n + 1, 0);
  for (const std::size_t r : sample) {
    GMD_REQUIRE(r < n, "sample index out of range");
    ++counts[r + 1];
  }
  for (std::size_t r = 0; r < n; ++r) counts[r + 1] += counts[r];
  std::vector<std::uint32_t> positions(m);
  {
    std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t g = 0; g < m; ++g) {
      positions[cursor[sample[g]]++] = static_cast<std::uint32_t>(g);
    }
  }

  TrainingWorkspace ws;
  ws.rows_ = m;
  ws.features_ = features_;
  ws.order_.resize(features_);
  ws.values_.resize(features_);
  for (std::size_t f = 0; f < features_; ++f) {
    const auto& order = order_[f];
    const auto& values = values_[f];
    auto& out_order = ws.order_[f];
    auto& out_values = ws.values_[f];
    out_order.reserve(m);
    out_values.reserve(m);
    std::size_t i = 0;
    while (i < n) {
      std::size_t run_end = i + 1;
      while (run_end < n && values[run_end] == values[i]) ++run_end;
      // Emit every gathered position of the run's base rows.  Within an
      // equal-value run the required order is ascending gathered index;
      // a single contributing base row is already ascending, multiple
      // rows' lists are merged by sorting the emitted segment.
      const std::size_t start = out_order.size();
      std::size_t contributing = 0;
      for (std::size_t k = i; k < run_end; ++k) {
        const std::uint32_t r = order[k];
        const std::uint32_t lo = counts[r];
        const std::uint32_t hi = counts[r + 1];
        if (lo != hi) ++contributing;
        out_order.insert(out_order.end(), positions.begin() + lo,
                         positions.begin() + hi);
      }
      if (contributing > 1) {
        std::sort(out_order.begin() + static_cast<std::ptrdiff_t>(start),
                  out_order.end());
      }
      out_values.insert(out_values.end(), out_order.size() - start,
                        values[i]);
      i = run_end;
    }
  }
  return ws;
}

}  // namespace gmd::ml
