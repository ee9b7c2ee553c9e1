#include "gmd/ml/svr.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "gmd/common/error.hpp"

namespace gmd::ml {

Svr::Svr(const SvrParams& params) : params_(params) {
  GMD_REQUIRE(params.c > 0.0, "SVR C must be positive");
  GMD_REQUIRE(params.epsilon >= 0.0, "SVR epsilon must be non-negative");
  GMD_REQUIRE(params.max_passes >= 1, "SVR needs at least one pass");
}

void Svr::fit(const Matrix& x, std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  const std::size_t n = x.rows();
  support_ = x;
  beta_.assign(n, 0.0);

  // Gram matrix with the bias folded in: K~ = K + 1.
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = x.row(i);
    double* ki = k.row(i).data();
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(params_.kernel, xi, x.row(j)) + 1.0;
      ki[j] = v;
      k.at(j, i) = v;
    }
  }

  // f_i = sum_j beta_j K~(i, j), maintained incrementally.
  std::vector<double> f(n, 0.0);
  double* const fd = f.data();

  // Coordinate descent with soft-thresholding: for coordinate i the
  // objective restricted to beta_i is
  //   0.5 K_ii b^2 + b (f_i - beta_i K_ii - y_i) + eps |b|,
  // minimized in closed form, then clipped to [-C, C].
  passes_used_ = 0;
  for (unsigned pass = 0; pass < params_.max_passes; ++pass) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* ki = k.row(i).data();
      const double kii = ki[i];
      GMD_ASSERT(kii > 0.0, "kernel diagonal must be positive");
      const double g = f[i] - beta_[i] * kii - y[i];
      double b_new;
      if (-g - params_.epsilon > 0.0) {
        b_new = (-g - params_.epsilon) / kii;
      } else if (-g + params_.epsilon < 0.0) {
        b_new = (-g + params_.epsilon) / kii;
      } else {
        b_new = 0.0;
      }
      b_new = std::clamp(b_new, -params_.c, params_.c);
      const double delta = b_new - beta_[i];
      if (delta != 0.0) {
        beta_[i] = b_new;
        // Plain pointers keep this update free of calls and range
        // checks, so it vectorizes; each f[j] still gets one multiply
        // and one add, in the same order.
        for (std::size_t j = 0; j < n; ++j) fd[j] += delta * ki[j];
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    passes_used_ = pass + 1;
    if (max_delta < params_.tolerance) break;
  }
  fitted_ = true;
}

double Svr::predict_one(std::span<const double> x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.size() == support_.cols(), "feature count mismatch");
  double out = 0.0;
  for (std::size_t i = 0; i < support_.rows(); ++i) {
    if (beta_[i] == 0.0) continue;
    out += beta_[i] * (kernel(params_.kernel, support_.row(i), x) + 1.0);
  }
  return out;
}

std::vector<double> Svr::predict(const Matrix& x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  GMD_REQUIRE(x.cols() == support_.cols(), "feature count mismatch");
  const std::size_t n = support_.rows();
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (beta_[i] == 0.0) continue;
      v += beta_[i] * (kernel(params_.kernel, support_.row(i), row) + 1.0);
    }
    out[r] = v;
  }
  return out;
}

std::unique_ptr<Regressor> Svr::clone() const {
  return std::make_unique<Svr>(*this);
}

std::size_t Svr::num_support_vectors() const {
  return static_cast<std::size_t>(
      std::count_if(beta_.begin(), beta_.end(),
                    [](double b) { return b != 0.0; }));
}

void Svr::write(std::ostream& os) const {
  GMD_REQUIRE(fitted_, "cannot serialize an unfitted model");
  os.precision(17);
  os << "svr " << static_cast<int>(params_.kernel.type) << " "
     << params_.kernel.gamma << " " << params_.kernel.coef0 << " "
     << params_.kernel.degree << " " << num_support_vectors() << " "
     << support_.cols() << "\n";
  for (std::size_t i = 0; i < support_.rows(); ++i) {
    if (beta_[i] == 0.0) continue;
    os << beta_[i];
    for (const double v : support_.row(i)) os << " " << v;
    os << "\n";
  }
}

Svr Svr::read(std::istream& is) {
  std::string tag;
  int kernel_type = 0;
  SvrParams params;
  std::size_t vectors = 0;
  std::size_t features = 0;
  is >> tag >> kernel_type >> params.kernel.gamma >> params.kernel.coef0 >>
      params.kernel.degree >> vectors >> features;
  GMD_REQUIRE(is.good() && tag == "svr", "not a serialized SVR model");
  GMD_REQUIRE(kernel_type >= 0 && kernel_type <= 2,
              "serialized SVR has an unknown kernel");
  params.kernel.type = static_cast<KernelType>(kernel_type);

  Svr model(params);
  model.support_ = Matrix(vectors, features);
  model.beta_.resize(vectors);
  for (std::size_t i = 0; i < vectors; ++i) {
    is >> model.beta_[i];
    for (double& v : model.support_.row(i)) is >> v;
    GMD_REQUIRE(!is.fail(), "truncated serialized SVR model");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace gmd::ml
