#include "gmd/ml/gp.hpp"

#include <algorithm>
#include <cmath>

#include "gmd/common/error.hpp"
#include "gmd/common/thread_pool.hpp"

namespace gmd::ml {

namespace {

/// Query rows scored together by predict_block.  Their triangular
/// solves are independent dependency chains, so interleaving them lets
/// their latencies overlap.
constexpr std::size_t kBlockRows = 8;

/// Two query rows' values side by side.  GCC and Clang lower the
/// elementwise operators on this type to packed IEEE-754 instructions
/// (SSE2 on any x86-64), one independent operation per lane, so each
/// lane computes exactly what scalar code would.
typedef double Lanes2 __attribute__((vector_size(16)));
constexpr std::size_t kPairs = kBlockRows / 2;

}  // namespace

GaussianProcess::GaussianProcess(const GpParams& params) : params_(params) {
  GMD_REQUIRE(params.noise > 0.0, "GP noise must be positive");
}

void GaussianProcess::fit(const Matrix& x, std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  const std::size_t n = x.rows();
  train_ = x;

  y_mean_ = 0.0;
  for (const double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);

  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = x.row(i);
    double* ki = k.row(i).data();
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(params_.kernel, xi, x.row(j));
      ki[j] = v;
      k.at(j, i) = v;
    }
    ki[i] += params_.noise;
  }
  chol_ = cholesky(std::move(k));
  chol_t_ = chol_.transposed();

  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) centered[i] = y[i] - y_mean_;
  alpha_ = cholesky_solve_factored(chol_, centered);
  fitted_ = true;
}

void GaussianProcess::predict_block(const double* rows, std::size_t count,
                                    double* means, double* variances) const {
  constexpr std::size_t P = kPairs;
  const std::size_t n = train_.rows();
  const std::size_t d = train_.cols();
  const bool rbf = params_.kernel.type == KernelType::kRbf;
  const double gamma = params_.kernel.gamma;
  const auto lane_row = [&](std::size_t lane) {
    return std::span<const double>(rows + std::min(lane, count - 1) * d, d);
  };

  // Lane-interleaved scratch, element (i, lane) at [i * P + lane / 2]
  // [lane % 2]: the query block transposed, the kernel rows, and the
  // solve vector.  Lanes past `count` repeat the last row so every loop
  // runs a fixed kBlockRows lanes; their results are never written out.
  thread_local std::vector<Lanes2> scratch;
  scratch.resize((d + 2 * n) * P);
  Lanes2* const qt = scratch.data();
  Lanes2* const k = qt + d * P;
  Lanes2* const v = k + n * P;
  for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
    const auto q = lane_row(lane);
    for (std::size_t f = 0; f < d; ++f) qt[f * P + lane / 2][lane % 2] = q[f];
  }

  // Kernel rows and means, each lane in kernel()'s and the mean sum's
  // own operation order.
  Lanes2 mean[P];
  for (std::size_t p = 0; p < P; ++p) mean[p] = Lanes2{y_mean_, y_mean_};
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = train_.row(i);
    Lanes2* const ki = k + i * P;
    if (rbf) {
      Lanes2 dist2[P] = {};
      for (std::size_t f = 0; f < d; ++f) {
        const Lanes2 tf = {t[f], t[f]};
        for (std::size_t p = 0; p < P; ++p) {
          const Lanes2 diff = tf - qt[f * P + p];
          dist2[p] += diff * diff;
        }
      }
      for (std::size_t p = 0; p < P; ++p) {
        ki[p] = Lanes2{std::exp(-gamma * dist2[p][0]),
                       std::exp(-gamma * dist2[p][1])};
      }
    } else {
      for (std::size_t lane = 0; lane < kBlockRows; ++lane) {
        ki[lane / 2][lane % 2] = kernel(params_.kernel, t, lane_row(lane));
      }
    }
    const Lanes2 a = {alpha_[i], alpha_[i]};
    for (std::size_t p = 0; p < P; ++p) mean[p] += ki[p] * a;
  }
  for (std::size_t b = 0; b < count; ++b) means[b] = mean[b / 2][b % 2];
  if (variances == nullptr) return;

  // var = k(x,x) - k^T (K + nI)^-1 k: forward solve L y = k, backward
  // solve L^T x = y in place over y, then k . x.  Each lane repeats
  // cholesky_solve_factored's operations in its order; the backward
  // pass reads rows of L^T so its inner loop is contiguous.
  const double* const l = chol_.row(0).data();
  const double* const lt = chol_t_.row(0).data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* const li = l + i * n;
    Lanes2 s[P];
    for (std::size_t p = 0; p < P; ++p) s[p] = k[i * P + p];
    for (std::size_t j = 0; j < i; ++j) {
      const Lanes2 lij = {li[j], li[j]};
      for (std::size_t p = 0; p < P; ++p) s[p] -= lij * v[j * P + p];
    }
    const Lanes2 diag = {li[i], li[i]};
    for (std::size_t p = 0; p < P; ++p) v[i * P + p] = s[p] / diag;
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* const lti = lt + i * n;
    Lanes2 s[P];
    for (std::size_t p = 0; p < P; ++p) s[p] = v[i * P + p];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Lanes2 ltij = {lti[j], lti[j]};
      for (std::size_t p = 0; p < P; ++p) s[p] -= ltij * v[j * P + p];
    }
    const Lanes2 diag = {lti[i], lti[i]};
    for (std::size_t p = 0; p < P; ++p) v[i * P + p] = s[p] / diag;
  }
  Lanes2 reduction[P] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < P; ++p) {
      reduction[p] += k[i * P + p] * v[i * P + p];
    }
  }
  for (std::size_t b = 0; b < count; ++b) {
    const auto q = lane_row(b);
    const double prior = kernel(params_.kernel, q, q) + params_.noise;
    variances[b] = std::max(0.0, prior - reduction[b / 2][b % 2]);
  }
}

void GaussianProcess::predict_rows(const Matrix& x, double* means,
                                   double* variances) const {
  for (std::size_t r = 0; r < x.rows(); r += kBlockRows) {
    predict_block(x.row(r).data(), std::min(kBlockRows, x.rows() - r),
                  means + r, variances == nullptr ? nullptr : variances + r);
  }
}

double GaussianProcess::predict_one(std::span<const double> x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.size() == train_.cols(), "feature count mismatch");
  double mean = 0.0;
  predict_block(x.data(), 1, &mean, nullptr);
  return mean;
}

std::vector<double> GaussianProcess::predict(const Matrix& x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.cols() == train_.cols(), "feature count mismatch");
  std::vector<double> out(x.rows());
  predict_rows(x, out.data(), nullptr);
  return out;
}

std::pair<double, double> GaussianProcess::predict_with_variance(
    std::span<const double> x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.size() == train_.cols(), "feature count mismatch");
  double mean = 0.0;
  double variance = 0.0;
  predict_block(x.data(), 1, &mean, &variance);
  return {mean, variance};
}

void GaussianProcess::predict_with_variance(
    const Matrix& x, std::vector<double>& means,
    std::vector<double>& variances) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.cols() == train_.cols(), "feature count mismatch");
  means.resize(x.rows());
  variances.resize(x.rows());
  predict_rows(x, means.data(), variances.data());
}

void GaussianProcess::predict_with_variance(const Matrix& x,
                                            std::vector<double>& means,
                                            std::vector<double>& variances,
                                            std::size_t num_threads) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.cols() == train_.cols(), "feature count mismatch");
  means.resize(x.rows());
  variances.resize(x.rows());
  if (x.rows() == 0) return;
  // Each block's math reads only fitted state and writes only its own
  // output slots, so sharding blocks across workers cannot change any
  // value — there is no cross-row accumulation to reorder.
  const std::size_t num_blocks = (x.rows() + kBlockRows - 1) / kBlockRows;
  ThreadPool pool(num_threads);
  pool.parallel_for(
      0, num_blocks,
      [&](std::size_t block) {
        const std::size_t r = block * kBlockRows;
        predict_block(x.row(r).data(), std::min(kBlockRows, x.rows() - r),
                      means.data() + r, variances.data() + r);
      },
      /*grain=*/2);
}

std::unique_ptr<Regressor> GaussianProcess::clone() const {
  return std::make_unique<GaussianProcess>(*this);
}

}  // namespace gmd::ml
