#include "gmd/ml/scaler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "gmd/common/error.hpp"

namespace gmd::ml {
namespace {

TEST(MinMaxScaler, MapsColumnsToUnitInterval) {
  const Matrix x = Matrix::from_rows({{0.0, 100.0}, {5.0, 200.0}, {10.0, 150.0}});
  MinMaxScaler scaler;
  const Matrix t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 0.5);
}

TEST(MinMaxScaler, ConstantColumnMapsToZero) {
  const Matrix x = Matrix::from_rows({{5.0}, {5.0}});
  MinMaxScaler scaler;
  const Matrix t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 0.0);
}

TEST(MinMaxScaler, TransformUsesTrainingRange) {
  const Matrix train = Matrix::from_rows({{0.0}, {10.0}});
  MinMaxScaler scaler;
  scaler.fit(train);
  const Matrix test = Matrix::from_rows({{20.0}});
  EXPECT_DOUBLE_EQ(scaler.transform(test).at(0, 0), 2.0);  // extrapolates
}

TEST(MinMaxScaler, ScalarSeriesRoundTrip) {
  const std::vector<double> values{10.0, 20.0, 40.0};
  MinMaxScaler scaler;
  scaler.fit(std::span<const double>(values));
  const auto scaled = scaler.transform(values);
  EXPECT_DOUBLE_EQ(scaled[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled[2], 1.0);
  const auto back = scaler.inverse_transform(scaled);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(back[i], values[i], 1e-12);
}

TEST(MinMaxScaler, ErrorsOnMisuse) {
  MinMaxScaler scaler;
  EXPECT_THROW(scaler.transform(Matrix(1, 1)), Error);
  scaler.fit(Matrix::from_rows({{1.0, 2.0}}));
  EXPECT_THROW(scaler.transform(Matrix(1, 3)), Error);
  EXPECT_THROW(scaler.fit(Matrix{}), Error);
}

TEST(MinMaxScaler, NonFiniteMatrixValueIsTypedInvalidData) {
  // A single NaN or Inf would silently poison the fitted min/max and
  // every later transform; fit must reject it with a typed code so
  // callers (the dataset builder) can quarantine instead of crash.
  for (const double poison :
       {std::nan(""), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    MinMaxScaler scaler;
    try {
      scaler.fit(Matrix::from_rows({{1.0, 2.0}, {3.0, poison}}));
      FAIL() << "accepted non-finite value " << poison;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidData) << e.what();
    }
    EXPECT_FALSE(scaler.fitted()) << "a failed fit must not half-fit";
  }
}

TEST(MinMaxScaler, NonFiniteTargetValueIsTypedInvalidData) {
  MinMaxScaler scaler;
  const std::vector<double> values = {1.0, std::nan(""), 3.0};
  try {
    scaler.fit(values);
    FAIL() << "accepted a NaN target";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidData) << e.what();
  }
}

}  // namespace
}  // namespace gmd::ml
