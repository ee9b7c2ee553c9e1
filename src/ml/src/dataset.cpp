#include "gmd/ml/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"

namespace gmd::ml {

void Dataset::validate() const {
  GMD_REQUIRE(X.rows() == y.size(),
              "dataset X rows (" << X.rows() << ") != y size (" << y.size()
                                 << ")");
  GMD_REQUIRE(feature_names.empty() || feature_names.size() == X.cols(),
              "feature_names size mismatch");
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.X = X.gather_rows(indices);
  out.y.reserve(indices.size());
  for (const std::size_t i : indices) {
    GMD_REQUIRE(i < y.size(), "subset index out of range");
    out.y.push_back(y[i]);
  }
  out.feature_names = feature_names;
  out.target_name = target_name;
  return out;
}

std::pair<Dataset, Dataset> train_test_split(const Dataset& data,
                                             double test_fraction,
                                             std::uint64_t seed) {
  data.validate();
  GMD_REQUIRE(test_fraction > 0.0 && test_fraction < 1.0,
              "test_fraction must be in (0, 1)");
  const std::size_t n = data.size();
  GMD_REQUIRE(n >= 2, "need at least two rows to split");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  rng.shuffle(order);

  std::size_t test_count = static_cast<std::size_t>(
      static_cast<double>(n) * test_fraction + 0.5);
  test_count = std::min(std::max<std::size_t>(test_count, 1), n - 1);

  const std::span<const std::size_t> all(order);
  const auto test_idx = all.subspan(0, test_count);
  const auto train_idx = all.subspan(test_count);
  return {data.subset(train_idx), data.subset(test_idx)};
}

}  // namespace gmd::ml
