#include "gmd/ml/workspace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/matrix.hpp"

namespace gmd::ml {
namespace {

/// Mixed-texture matrix: a continuous column, a heavily-duplicated
/// column, a constant column, and a coarse integer-grid column — the
/// value patterns DSE feature matrices actually have.
Matrix make_mixed(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({rng.next_double(),
                    static_cast<double>(rng.next_below(5)), 3.25,
                    static_cast<double>(rng.next_below(16)) * 100.0});
  }
  return Matrix::from_rows(rows);
}

TEST(TrainingWorkspace, SortsEveryFeatureByValueThenRow) {
  const Matrix x = make_mixed(64, 7);
  const TrainingWorkspace ws = TrainingWorkspace::build(x);
  ASSERT_EQ(ws.rows(), 64u);
  ASSERT_EQ(ws.features(), 4u);
  for (std::size_t f = 0; f < ws.features(); ++f) {
    const auto order = ws.sorted_order(f);
    const auto values = ws.sorted_values(f);
    ASSERT_EQ(order.size(), 64u);
    std::vector<bool> seen(64, false);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(values[i], x.at(order[i], f));
      EXPECT_FALSE(seen[order[i]]);
      seen[order[i]] = true;
      if (i > 0) {
        const bool ascending =
            values[i - 1] < values[i] ||
            (values[i - 1] == values[i] && order[i - 1] < order[i]);
        EXPECT_TRUE(ascending) << "feature " << f << " position " << i;
      }
    }
  }
}

TEST(TrainingWorkspace, ForSampleMatchesDirectBuildOfGatheredMatrix) {
  const Matrix x = make_mixed(80, 11);
  const TrainingWorkspace base = TrainingWorkspace::build(x);

  // A bootstrap-style sample: duplicates, omissions, arbitrary order.
  Rng rng(3);
  std::vector<std::size_t> sample(100);
  for (auto& idx : sample) idx = rng.next_below(80);

  const TrainingWorkspace derived = base.for_sample(sample);
  const TrainingWorkspace direct =
      TrainingWorkspace::build(x.gather_rows(sample));
  ASSERT_EQ(derived.rows(), direct.rows());
  ASSERT_EQ(derived.features(), direct.features());
  for (std::size_t f = 0; f < direct.features(); ++f) {
    const auto a_order = derived.sorted_order(f);
    const auto b_order = direct.sorted_order(f);
    const auto a_values = derived.sorted_values(f);
    const auto b_values = direct.sorted_values(f);
    ASSERT_EQ(a_order.size(), b_order.size());
    for (std::size_t i = 0; i < a_order.size(); ++i) {
      EXPECT_EQ(a_order[i], b_order[i]) << "feature " << f << " pos " << i;
      EXPECT_EQ(a_values[i], b_values[i]) << "feature " << f << " pos " << i;
    }
  }
}

TEST(TrainingWorkspace, RejectsBadInputs) {
  const Matrix x = make_mixed(10, 1);
  TrainingWorkspace ws = TrainingWorkspace::build(x);
  const std::vector<std::size_t> out_of_range{10};
  EXPECT_THROW(ws.for_sample(out_of_range), Error);
  EXPECT_THROW(ws.for_sample({}), Error);
}

}  // namespace
}  // namespace gmd::ml
