#include "gmd/ml/serialize.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/gp.hpp"
#include "gmd/ml/metrics.hpp"
#include "gmd/ml/svr.hpp"

namespace gmd::ml {
namespace {

void sample_data(std::size_t n, std::uint64_t seed, Matrix* x,
                 std::vector<double>* y) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    rows.push_back({a, b});
    y->push_back(std::sin(3.0 * a) + b * b);
  }
  *x = Matrix::from_rows(rows);
}

class SerializableFamily : public testing::TestWithParam<const char*> {};

TEST_P(SerializableFamily, RoundTripPredictsIdentically) {
  Matrix x;
  std::vector<double> y;
  sample_data(150, 1, &x, &y);
  const auto model = make_regressor(GetParam(), 3);
  model->fit(x, y);

  std::stringstream ss;
  save_model(ss, *model);
  const auto restored = load_model(ss);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), model->name());
  EXPECT_TRUE(restored->is_fitted());
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(restored->predict_one(x.row(i)),
                     model->predict_one(x.row(i)))
        << GetParam() << " sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSerializable, SerializableFamily,
                         testing::Values("linear", "svr", "tree", "rf", "gb"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(Serialize, FileRoundTrip) {
  Matrix x;
  std::vector<double> y;
  sample_data(60, 2, &x, &y);
  const auto model = make_regressor("linear");
  model->fit(x, y);
  const std::string path = testing::TempDir() + "/gmd_model_test_" +
                           std::to_string(::getpid()) + ".txt";
  save_model_file(path, *model);
  const auto restored = load_model_file(path);
  EXPECT_DOUBLE_EQ(restored->predict_one(x.row(0)),
                   model->predict_one(x.row(0)));
  std::remove(path.c_str());
}

TEST(Serialize, UnfittedModelRejected) {
  const auto model = make_regressor("linear");
  std::stringstream ss;
  EXPECT_THROW(save_model(ss, *model), Error);
}

TEST(Serialize, GaussianProcessUnsupported) {
  Matrix x;
  std::vector<double> y;
  sample_data(20, 3, &x, &y);
  GaussianProcess gp;
  gp.fit(x, y);
  std::stringstream ss;
  EXPECT_THROW(save_model(ss, gp), Error);
}

TEST(Serialize, MalformedInputRejected) {
  std::stringstream not_a_model("hello world");
  EXPECT_THROW(load_model(not_a_model), Error);
  std::stringstream bad_family("gmd-model-v1 transformer\n");
  EXPECT_THROW(load_model(bad_family), Error);
  std::stringstream truncated("gmd-model-v1 linear\nlinear 0 1.5 3\n0.1\n");
  EXPECT_THROW(load_model(truncated), Error);
}

TEST(Serialize, SvrStoresOnlySupportVectors) {
  Matrix x;
  std::vector<double> y;
  sample_data(200, 4, &x, &y);
  SvrParams params;
  params.epsilon = 0.1;  // wide tube -> few support vectors
  Svr model(params);
  model.fit(x, y);
  ASSERT_LT(model.num_support_vectors(), 150u);

  std::stringstream ss;
  model.write(ss);
  const Svr restored = Svr::read(ss);
  EXPECT_EQ(restored.num_support_vectors(), model.num_support_vectors());
  EXPECT_NEAR(restored.predict_one(x.row(5)), model.predict_one(x.row(5)),
              1e-12);
}

// Scaler bounds round-trip bit-exactly (17 significant digits), so a
// restored deployment scales features identically to the original.
TEST(Serialize, ScalerRoundTripIsExact) {
  Matrix x;
  std::vector<double> y;
  sample_data(64, 9, &x, &y);
  MinMaxScaler scaler;
  scaler.fit(x);

  std::stringstream ss;
  save_scaler(ss, scaler);
  const MinMaxScaler restored = load_scaler(ss);
  ASSERT_TRUE(restored.fitted());
  EXPECT_EQ(restored.mins(), scaler.mins());
  EXPECT_EQ(restored.maxs(), scaler.maxs());

  const Matrix a = scaler.transform(x);
  const Matrix b = restored.transform(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_EQ(a.row(r)[c], b.row(r)[c]);
    }
  }
}

TEST(Serialize, ScalerRejectsBadInput) {
  MinMaxScaler unfitted;
  std::stringstream ss;
  EXPECT_THROW(save_scaler(ss, unfitted), Error);

  std::stringstream bad("gmd-scaler-v1 zscore 2\n0 0\n1 1\n");
  EXPECT_THROW((void)load_scaler(bad), Error);
  std::stringstream truncated("gmd-scaler-v1 minmax 3\n0 0 0\n1 1\n");
  EXPECT_THROW((void)load_scaler(truncated), Error);

  EXPECT_THROW((void)MinMaxScaler::from_bounds({1.0}, {0.0}), Error);
  EXPECT_THROW((void)MinMaxScaler::from_bounds({}, {}), Error);
  EXPECT_THROW((void)MinMaxScaler::from_bounds({0.0, 1.0}, {1.0}), Error);
}

}  // namespace
}  // namespace gmd::ml
