#include "gmd/ml/gp.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/metrics.hpp"

namespace gmd::ml {
namespace {

void sample_smooth(std::size_t n, std::uint64_t seed, Matrix* x,
                   std::vector<double>* y) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y->push_back(std::sin(4.0 * a));
  }
  *x = Matrix::from_rows(rows);
}

TEST(GaussianProcess, InterpolatesTrainingPoints) {
  Matrix x;
  std::vector<double> y;
  sample_smooth(40, 1, &x, &y);
  GpParams params;
  params.kernel.gamma = 10.0;
  params.noise = 1e-8;
  GaussianProcess model(params);
  model.fit(x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(model.predict_one(x.row(i)), y[i], 1e-3);
  }
}

TEST(GaussianProcess, GeneralizesSmoothFunction) {
  Matrix x;
  std::vector<double> y;
  sample_smooth(80, 2, &x, &y);
  GpParams params;
  params.kernel.gamma = 10.0;
  GaussianProcess model(params);
  model.fit(x, y);
  Matrix xt;
  std::vector<double> yt;
  sample_smooth(40, 3, &xt, &yt);
  EXPECT_GT(r2_score(yt, model.predict(xt)), 0.99);
}

TEST(GaussianProcess, VarianceLowNearDataHighFarAway) {
  const Matrix x = Matrix::from_rows({{0.4}, {0.5}, {0.6}});
  const std::vector<double> y{0.1, 0.2, 0.3};
  GpParams params;
  params.kernel.gamma = 50.0;
  GaussianProcess model(params);
  model.fit(x, y);
  const auto [near_mean, near_var] =
      model.predict_with_variance(std::vector<double>{0.5});
  const auto [far_mean, far_var] =
      model.predict_with_variance(std::vector<double>{5.0});
  (void)near_mean;
  (void)far_mean;
  EXPECT_LT(near_var, far_var);
  EXPECT_GE(near_var, 0.0);
}

TEST(GaussianProcess, FarPredictionsRevertToMean) {
  const Matrix x = Matrix::from_rows({{0.0}, {1.0}});
  const std::vector<double> y{2.0, 4.0};
  GpParams params;
  params.kernel.gamma = 10.0;
  GaussianProcess model(params);
  model.fit(x, y);
  EXPECT_NEAR(model.predict_one(std::vector<double>{100.0}), 3.0, 1e-6);
}

TEST(GaussianProcess, NoiseSmoothsInterpolation) {
  const Matrix x = Matrix::from_rows({{0.5}, {0.5}});  // duplicate input
  const std::vector<double> y{0.0, 1.0};               // conflicting targets
  GpParams params;
  params.noise = 0.1;
  GaussianProcess model(params);
  model.fit(x, y);  // would be singular without noise
  EXPECT_NEAR(model.predict_one(std::vector<double>{0.5}), 0.5, 1e-6);
}

TEST(GaussianProcess, MisuseErrors) {
  GaussianProcess model;
  EXPECT_THROW((void)model.predict_one(std::vector<double>{0.0}), Error);
  GpParams bad;
  bad.noise = 0.0;
  EXPECT_THROW(GaussianProcess{bad}, Error);
}

TEST(GpBatchPredict, SerialBatchMatchesPerRowExactly) {
  Matrix x;
  std::vector<double> y;
  sample_smooth(60, 7, &x, &y);
  GaussianProcess model;
  model.fit(x, y);

  Matrix xt;
  std::vector<double> yt;
  sample_smooth(33, 8, &xt, &yt);
  std::vector<double> means, variances;
  model.predict_with_variance(xt, means, variances);
  ASSERT_EQ(means.size(), xt.rows());
  for (std::size_t r = 0; r < xt.rows(); ++r) {
    const auto [mu, var] = model.predict_with_variance(xt.row(r));
    EXPECT_EQ(means[r], mu) << "row " << r;          // bit-identical
    EXPECT_EQ(variances[r], var) << "row " << r;
  }
}

TEST(GpBatchPredict, ParallelMatchesSerialAtAnyThreadCount) {
  Matrix x;
  std::vector<double> y;
  sample_smooth(80, 9, &x, &y);
  GaussianProcess model;
  model.fit(x, y);

  Matrix xt;
  std::vector<double> yt;
  sample_smooth(257, 10, &xt, &yt);  // not a multiple of any grain size
  std::vector<double> means, variances;
  model.predict_with_variance(xt, means, variances);
  for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
    std::vector<double> pmeans, pvariances;
    model.predict_with_variance(xt, pmeans, pvariances, threads);
    EXPECT_EQ(pmeans, means) << threads << " threads";
    EXPECT_EQ(pvariances, variances) << threads << " threads";
  }
}


// --- frozen bits -------------------------------------------------------
//
// Means and variances recorded from the per-row implementation (kernel
// row, mean sum, cholesky_solve_factored per row) before prediction
// moved to the row-blocked kernel.  The block kernel must reproduce
// every bit, for every fit size and wherever a row falls in a block.

/// `n` rows of three features in [-0.2, 1.2), drawn from `seed`.
Matrix golden_rows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      x.at(r, c) = 1.4 * rng.next_double() - 0.2;
    }
  }
  return x;
}

GaussianProcess golden_fit(std::size_t n, KernelType type) {
  const Matrix x = golden_rows(n, 11);
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    y[r] = std::sin(3.0 * x.at(r, 0)) + std::cos(2.0 * x.at(r, 1)) -
           x.at(r, 2);
  }
  GpParams params;
  params.kernel.type = type;
  params.kernel.gamma = 2.0;
  params.noise = 1e-4;
  GaussianProcess gp(params);
  gp.fit(x, y);
  return gp;
}

struct GoldenFit {
  std::size_t train_rows;
  KernelType type;
  /// {mean, variance} of query rows 0..8, at 17 significant digits.
  std::array<std::pair<double, double>, 9> head;
  std::pair<double, double> row256;  ///< The last of 257 query rows.
  std::uint64_t mean_digest;         ///< FNV-1a over all 257 means' bits.
  std::uint64_t variance_digest;     ///< Likewise for the variances.
};

constexpr std::size_t kGoldenQueries = 257;

const GoldenFit kGolden[] = {
    {1,
     KernelType::kRbf,
     {{
         {1.1758980983865728, 0.99953057967744763},
         {1.1758980983865728, 0.98637303700285894},
         {1.1758980983865728, 0.99926386715054072},
         {1.1758980983865728, 0.99947635934441703},
         {1.1758980983865728, 0.95129201303214317},
         {1.1758980983865728, 0.97260726035311462},
         {1.1758980983865728, 0.74228228491346226},
         {1.1758980983865728, 0.96156792044227613},
         {1.1758980983865728, 0.98703532188895815}
     }},
     {1.1758980983865728, 0.9459979548483205},
     0x71f4fb572115263cULL,
     0xbd7979e66a921082ULL},
    {7,
     KernelType::kRbf,
     {{
         {0.13339983560959573, 0.67374747509923516},
         {0.70088073839067599, 0.36072913486353941},
         {-0.011318334765157589, 0.48222951910795397},
         {0.093556983185482057, 0.79302353044781126},
         {0.80339445099710594, 0.25572122977310996},
         {-0.10941578035275068, 0.38900579166936133},
         {0.45216250095776034, 0.55727756701488418},
         {1.0591324689621646, 0.77348696992233024},
         {0.15145742967968856, 0.84291815059546127}
     }},
     {0.82873236807600192, 0.37390223180021698},
     0x641596283efb4669ULL,
     0x340196f38e832c08ULL},
    {33,
     KernelType::kRbf,
     {{
         {-0.68310042929832626, 0.056460448145208009},
         {0.57931205438210176, 0.0068470841326645493},
         {-0.27089967246872382, 0.0051902607921687771},
         {0.43962560380415283, 0.25933177244930183},
         {0.9464651033404371, 0.0051612975374945025},
         {0.48033808093815178, 0.0013061690080145016},
         {0.44501652892469945, 0.29358903806937275},
         {1.4821113078192822, 0.060384267898021315},
         {-0.5223348500879379, 0.23627894826232898}
     }},
     {0.996350481424916, 0.0091740925424040887},
     0xcd55027cebaa3627ULL,
     0xd50d5570e9db48feULL},
    {64,
     KernelType::kRbf,
     {{
         {-0.68885444781535698, 0.011712279011033222},
         {0.56449690675041042, 0.0016047025764437395},
         {-0.32003691944209489, 0.00049692420301383766},
         {0.14157496572193451, 0.031396215015076057},
         {0.95058671648487258, 0.0017680083613484943},
         {0.46398040919638639, 0.00052893591866542966},
         {0.17066272298408558, 0.0027507135017706963},
         {1.447245845022163, 0.01340371108717997},
         {-0.81002368829664695, 0.012691387933425946}
     }},
     {1.0295414657043747, 0.0020085091633196273},
     0xa1ce889b240e1106ULL,
     0x866318e854733b7fULL},
    {7,
     KernelType::kPolynomial,
     {{
         {-0.58377603183671811, 28.476289710501732},
         {0.32468446619679125, 5.9998765197564694},
         {0.049623064325369448, 10.980168561277068},
         {0.026911799940986247, 36.025668959899392},
         {0.91093416933823046, 1.6564971078438298},
         {0.69674870768947306, 1.6452522986302327},
         {0.24018621197341428, 2.3428149699911245},
         {1.5086170487367425, 9.289742095753537},
         {-0.42938073607892907, 13.633383185060541}
     }},
     {1.0491890926546343, 2.2429382070046771},
     0xe5a978a371b7ab34ULL,
     0xae1d9097e8f4f69dULL}};

struct Predictions {
  std::vector<double> means;
  std::vector<double> variances;
};

void expect_golden(const GoldenFit& golden, const Predictions& got,
                   const char* path) {
  const std::size_t rows = got.means.size();
  ASSERT_EQ(got.variances.size(), rows) << path;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::pair<double, double>* want =
        r < golden.head.size() ? &golden.head[r]
        : r == 256             ? &golden.row256
                               : nullptr;
    if (want == nullptr) continue;
    EXPECT_EQ(got.means[r], want->first) << path << " row " << r;
    EXPECT_EQ(got.variances[r], want->second) << path << " row " << r;
  }
  if (rows == kGoldenQueries) {
    Fnv1a means, variances;
    for (std::size_t r = 0; r < rows; ++r) {
      means.mix_double(got.means[r]);
      variances.mix_double(got.variances[r]);
    }
    EXPECT_EQ(means.state, golden.mean_digest) << path;
    EXPECT_EQ(variances.state, golden.variance_digest) << path;
  }
}

TEST(GpGolden, EveryEntryPointReproducesFrozenBits) {
  const Matrix all_queries = golden_rows(kGoldenQueries, 12);
  for (const GoldenFit& golden : kGolden) {
    SCOPED_TRACE(testing::Message() << to_string(golden.type) << " fit on "
                                    << golden.train_rows << " rows");
    const GaussianProcess gp = golden_fit(golden.train_rows, golden.type);
    // Query counts straddle the 8-row block: empty, one short block,
    // one full, one full plus a one-row tail, and many blocks.
    for (const std::size_t count : {0ul, 1ul, 7ul, 8ul, 9ul, 257ul}) {
      SCOPED_TRACE(testing::Message() << count << " query rows");
      std::vector<std::size_t> first(count);
      for (std::size_t r = 0; r < count; ++r) first[r] = r;
      const Matrix x = all_queries.gather_rows(first);

      Predictions batch;
      gp.predict_with_variance(x, batch.means, batch.variances);
      expect_golden(golden, batch, "batch");

      Predictions threaded;
      gp.predict_with_variance(x, threaded.means, threaded.variances, 3);
      expect_golden(golden, threaded, "threaded");

      Predictions single;
      for (std::size_t r = 0; r < count; ++r) {
        const auto [mean, variance] = gp.predict_with_variance(x.row(r));
        single.means.push_back(mean);
        single.variances.push_back(variance);
      }
      expect_golden(golden, single, "single row");
    }
  }
}

TEST(GpGolden, PredictAndPredictOneMatchBatchMeans) {
  const Matrix x = golden_rows(kGoldenQueries, 12);
  for (const GoldenFit& golden : kGolden) {
    const GaussianProcess gp = golden_fit(golden.train_rows, golden.type);
    std::vector<double> means, variances;
    gp.predict_with_variance(x, means, variances);
    EXPECT_EQ(gp.predict(x), means) << golden.train_rows << " rows";
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_EQ(gp.predict_one(x.row(r)), means[r])
          << golden.train_rows << " rows, query " << r;
    }
  }
}

}  // namespace
}  // namespace gmd::ml
