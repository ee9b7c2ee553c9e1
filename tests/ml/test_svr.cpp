#include "gmd/ml/svr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/metrics.hpp"

namespace gmd::ml {
namespace {

/// Samples x in [0,1]^2 and y = f(x) for a smooth nonlinear target.
void sample_nonlinear(std::size_t n, std::uint64_t seed, Matrix* x,
                      std::vector<double>* y) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    rows.push_back({a, b});
    y->push_back(std::sin(3.0 * a) * 0.5 + b * b);
  }
  *x = Matrix::from_rows(rows);
}

TEST(Svr, FitsLinearFunctionWithLinearKernel) {
  SvrParams params;
  params.kernel.type = KernelType::kLinear;
  params.epsilon = 0.001;
  Svr model(params);
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y.push_back(0.8 * a + 0.1);
  }
  const Matrix x = Matrix::from_rows(rows);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.999);
}

TEST(Svr, FitsNonlinearFunctionWithRbf) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(150, 4, &x, &y);
  SvrParams params;
  params.kernel.gamma = 2.0;
  Svr model(params);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.99);

  // Generalization on held-out samples.
  Matrix xt;
  std::vector<double> yt;
  sample_nonlinear(50, 5, &xt, &yt);
  EXPECT_GT(r2_score(yt, model.predict(xt)), 0.97);
}

TEST(Svr, EpsilonTubeSparsifiesSupportVectors) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(100, 6, &x, &y);
  SvrParams tight;
  tight.epsilon = 0.0005;
  SvrParams loose;
  loose.epsilon = 0.1;
  Svr model_tight(tight), model_loose(loose);
  model_tight.fit(x, y);
  model_loose.fit(x, y);
  EXPECT_LT(model_loose.num_support_vectors(),
            model_tight.num_support_vectors());
}

TEST(Svr, PredictionsWithinEpsilonPlusSlack) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(80, 7, &x, &y);
  SvrParams params;
  params.epsilon = 0.02;
  params.kernel.gamma = 4.0;
  Svr model(params);
  model.fit(x, y);
  const auto pred = model.predict(x);
  // With a generous C the training error should be near the tube width.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_LT(std::abs(pred[i] - y[i]), 0.1) << "sample " << i;
  }
}

TEST(Svr, ConvergesBeforeMaxPassesAtCoarseTolerance) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(60, 8, &x, &y);
  SvrParams params;
  params.tolerance = 1e-2;
  Svr model(params);
  model.fit(x, y);
  EXPECT_LT(model.passes_used(), params.max_passes);
}

TEST(Svr, DualCoefficientsRespectBox) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(60, 9, &x, &y);
  SvrParams params;
  params.c = 1.0;
  Svr model(params);
  model.fit(x, y);
  for (const double b : model.dual_coefficients()) {
    EXPECT_GE(b, -1.0 - 1e-12);
    EXPECT_LE(b, 1.0 + 1e-12);
  }
}

TEST(Svr, PolynomialKernelWorks) {
  SvrParams params;
  params.kernel.type = KernelType::kPolynomial;
  params.kernel.degree = 2;
  Svr model(params);
  Rng rng(10);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    const double a = rng.next_double_in(-1.0, 1.0);
    rows.push_back({a});
    y.push_back(a * a);
  }
  const Matrix x = Matrix::from_rows(rows);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.99);
}

TEST(Svr, MisuseErrors) {
  Svr model;
  EXPECT_THROW((void)model.predict_one(std::vector<double>{0.0}), Error);
  SvrParams bad;
  bad.c = 0.0;
  EXPECT_THROW(Svr{bad}, Error);
  bad = SvrParams{};
  bad.epsilon = -0.1;
  EXPECT_THROW(Svr{bad}, Error);
}

TEST(Svr, CloneKeepsFittedState) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(40, 11, &x, &y);
  Svr model;
  model.fit(x, y);
  const auto copy = model.clone();
  const std::vector<double> probe{0.3, 0.7};
  EXPECT_DOUBLE_EQ(copy->predict_one(probe), model.predict_one(probe));
}

// Frozen bits of the dual coordinate descent. Every kernel is fitted
// at four sizes, from a single row up to the scale of a Table I fit,
// and the literals below were taken from the solver before its inner
// loop was hoisted; any change to the arithmetic or its order shows
// here as a bit difference.

/// Three features in [0,1] with a smooth target in about [0,1], the
/// shape of one min-max scaled Table I metric.
void golden_sample(std::size_t n, std::uint64_t seed, Matrix* x,
                   std::vector<double>* y) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    const double c = rng.next_double();
    rows.push_back({a, b, c});
    y->push_back(std::sin(3.0 * a) * 0.5 + b * b - 0.3 * a * c);
  }
  *x = Matrix::from_rows(rows);
}

constexpr std::size_t kGoldenQueries = 33;

struct SvrGoldenFit {
  std::size_t train_rows;
  KernelType type;
  unsigned passes;
  std::size_t support_vectors;
  std::array<double, 4> beta_head;  ///< Dual coefficients 0..3 (or fewer).
  std::uint64_t model_digest;       ///< FNV-1a of the write() text.
  std::array<double, 4> prediction_head;  ///< Query rows 0..3.
  double prediction_last;                 ///< Query row 32.
  std::uint64_t prediction_digest;  ///< FNV-1a over all query bits.
};

Svr golden_fit(std::size_t rows, KernelType type) {
  Matrix x;
  std::vector<double> y;
  golden_sample(rows, 0x5e7 + rows, &x, &y);
  SvrParams params;
  params.kernel.type = type;
  Svr model(params);
  model.fit(x, y);
  return model;
}

std::string serialized(const Svr& model) {
  std::ostringstream os;
  model.write(os);
  return os.str();
}

const SvrGoldenFit kGolden[] = {
    {1,
     KernelType::kLinear,
     2,
     1,
     {0.50472621735372059, 0, 0, 0},
     0x1f9a24aa77c3f404ULL,
     {0.75948953342878367, 0.8922635713285374,
      0.6252441673975544, 0.83496894255458964},
     0.60271696168746125,
     0x5e62f9448979aaaaULL},
    {7,
     KernelType::kLinear,
     300,
     7,
     {9.8023016832206711, -35.587073112568383,
      12.856710680266078, -19.0732337395802},
     0x17adbce54d7f5dc8ULL,
     {0.55930983876391593, 0.95081262930275301,
      -0.041275332965764022, 0.80264347595701224},
     -0.081853177904417151,
     0x408b24c0d9a537c3ULL},
    {64,
     KernelType::kLinear,
     300,
     63,
     {29.111792759255767, 9.6617682318544436,
      -17.473454283765008, 6.4754692347131719},
     0x619939fd8919454fULL,
     {0.55441803537584633, 0.82515761848559066,
      -0.05480327343190794, 0.78124940349153604},
     -0.052324285426017525,
     0x312c861edebd57baULL},
    {333,
     KernelType::kLinear,
     300,
     331,
     {-3.3610884390860205, -32.556234570099413,
      30.355726666407506, -15.85928587574192},
     0x624e61baea8530c3ULL,
     {0.81028736723698103, 1.0456874171994031,
      0.21175845626171608, 1.005622415786199},
     0.22121957684744942,
     0x92fe0712af37d209ULL},
    {1,
     KernelType::kRbf,
     2,
     1,
     {0.37551014144899975, 0, 0, 0},
     0xaca46165cd15543fULL,
     {0.72872769703255968, 0.64158332222244552,
      0.54307718983598441, 0.71575627583693879},
     0.54356764061602825,
     0x0445ff22e6301f5aULL},
    {7,
     KernelType::kRbf,
     158,
     7,
     {-0.023804243094210201, -1.4572117618122491,
      1.4148870194633798, 0.098463206698578776},
     0xcd75ee198040cbabULL,
     {0.67298053234766375, 0.89784269924576332,
      -0.055812672530890062, 0.88195328191086464},
     -0.079115231026416322,
     0xb07c6e9ffba5d273ULL},
    {64,
     KernelType::kRbf,
     300,
     59,
     {-1.2812991868079782, -1.3873539982602745,
      1.4354131361356037, -1.899276801242415},
     0x1b47432c62bea746ULL,
     {0.71926454555559882, 0.85792048046971747,
      0.31106543092692551, 1.0356691481121603},
     0.1869973410241812,
     0xd55f407218a343a6ULL},
    {333,
     KernelType::kRbf,
     300,
     210,
     {-0.68606375385951712, -0.053055543576476571,
      -0.87229543469101123, 0.24178942390122476},
     0x67bbb5cabeb01047ULL,
     {0.71030648566467081, 0.85105859078639079,
      0.30498125840428636, 1.0228029633215481},
     0.17256508854079466,
     0x5828e6fbfa353319ULL},
    {1,
     KernelType::kPolynomial,
     2,
     1,
     {0.17488021341585042, 0, 0, 0},
     0x2b29ee7572f50717ULL,
     {0.77073229605394433, 1.1410480345592693,
      0.50732691571282951, 0.96662287628769639},
     0.47267241654716607,
     0x43e9c8fa073f7a9aULL},
    {7,
     KernelType::kPolynomial,
     292,
     7,
     {0.079159127368780169, -0.53893992172396243,
      -0.078301226057500589, -0.085555470112254423},
     0x2a70a3019612fe3cULL,
     {0.65023674017057598, 0.82640015142885526,
      0.037343785228206139, 0.81660666332749221},
     0.0030016571132724934,
     0x010f2d2b161e5105ULL},
    {64,
     KernelType::kPolynomial,
     300,
     58,
     {0.82591203851168615, -0.045956243473904743, 0, 0},
     0xe3d9ea683242ad6eULL,
     {0.70358292167807024, 0.85069037225804001,
      0.29177779711051266, 1.0116746103271432},
     0.16039074186485325,
     0xd959655738fb9195ULL},
    {333,
     KernelType::kPolynomial,
     300,
     255,
     {0, 0, 0.19356245556548152, 0},
     0xf23689724da06901ULL,
     {0.70961533104066321, 0.86601458430707112,
      0.30605061198383621, 1.0138489309113956},
     0.17268544488793797,
     0x7e6a61ac4432bb7bULL},
};

Matrix golden_queries() {
  Matrix x;
  std::vector<double> unused;
  golden_sample(kGoldenQueries, 99, &x, &unused);
  return x;
}

void expect_golden_predictions(const SvrGoldenFit& golden,
                               const std::vector<double>& got,
                               const char* path) {
  ASSERT_EQ(got.size(), kGoldenQueries) << path;
  for (std::size_t r = 0; r < golden.prediction_head.size(); ++r) {
    EXPECT_EQ(got[r], golden.prediction_head[r]) << path << " row " << r;
  }
  EXPECT_EQ(got.back(), golden.prediction_last) << path;
  Fnv1a digest;
  for (const double v : got) digest.mix_double(v);
  EXPECT_EQ(digest.state, golden.prediction_digest) << path;
}

TEST(SvrGolden, FitReproducesFrozenBits) {
  const Matrix queries = golden_queries();
  for (const SvrGoldenFit& golden : kGolden) {
    SCOPED_TRACE(testing::Message() << to_string(golden.type) << " fit on "
                                    << golden.train_rows << " rows");
    const Svr model = golden_fit(golden.train_rows, golden.type);
    EXPECT_EQ(model.passes_used(), golden.passes);
    EXPECT_EQ(model.num_support_vectors(), golden.support_vectors);
    const auto& beta = model.dual_coefficients();
    ASSERT_EQ(beta.size(), golden.train_rows);
    for (std::size_t i = 0; i < std::min<std::size_t>(beta.size(), 4); ++i) {
      EXPECT_EQ(beta[i], golden.beta_head[i]) << "beta " << i;
    }
    const std::string text = serialized(model);
    EXPECT_EQ(fnv1a_bytes(text.data(), text.size()), golden.model_digest);

    expect_golden_predictions(golden, model.predict(queries), "predict");
    std::vector<double> single;
    for (std::size_t r = 0; r < queries.rows(); ++r) {
      single.push_back(model.predict_one(queries.row(r)));
    }
    expect_golden_predictions(golden, single, "predict_one");
  }
}

TEST(SvrGolden, ReadBackModelPredictsFrozenBits) {
  const Matrix queries = golden_queries();
  for (const SvrGoldenFit& golden : kGolden) {
    SCOPED_TRACE(testing::Message() << to_string(golden.type) << " fit on "
                                    << golden.train_rows << " rows");
    std::istringstream is(
        serialized(golden_fit(golden.train_rows, golden.type)));
    const Svr loaded = Svr::read(is);
    EXPECT_EQ(loaded.num_support_vectors(), golden.support_vectors);
    expect_golden_predictions(golden, loaded.predict(queries), "read back");
  }
}

}  // namespace
}  // namespace gmd::ml
