#include "gmd/ml/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "gmd/common/error.hpp"

namespace gmd::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    GMD_REQUIRE(rows[r].size() == m.cols_,
                "ragged row " << r << ": " << rows[r].size() << " vs "
                              << m.cols_);
    for (std::size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

void Matrix::throw_out_of_range(const char* what) {
  GMD_ASSERT(false, what);
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    GMD_REQUIRE(indices[i] < rows_, "gather index out of range");
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

std::vector<double> Matrix::column(std::size_t c) const {
  GMD_REQUIRE(c < cols_, "column index out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = at(r, c);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  return out;
}

Matrix Matrix::multiply(const Matrix& other) const {
  GMD_REQUIRE(cols_ == other.rows_,
              "matrix product shape mismatch: " << cols_ << " vs "
                                                << other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += a * other.at(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  GMD_REQUIRE(v.size() == cols_, "matvec shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto rr = row(r);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += rr[c] * v[c];
    out[r] = sum;
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix out(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto rr = row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = rr[i];
      if (a == 0.0) continue;
      for (std::size_t j = i; j < cols_; ++j) out.at(i, j) += a * rr[j];
    }
  }
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) out.at(i, j) = out.at(j, i);
  return out;
}

std::vector<double> Matrix::transpose_multiply(
    std::span<const double> v) const {
  GMD_REQUIRE(v.size() == rows_, "transpose matvec shape mismatch");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double s = v[r];
    if (s == 0.0) continue;
    const auto rr = row(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += s * rr[c];
  }
  return out;
}

Matrix cholesky(Matrix a) {
  GMD_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double* aj = a.row(j).data();
    double d = aj[j];
    for (std::size_t k = 0; k < j; ++k) d -= aj[k] * aj[k];
    GMD_REQUIRE(d > 0.0, "matrix is not positive definite (pivot " << j
                                                                   << ")");
    const double l = std::sqrt(d);
    aj[j] = l;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* ai = a.row(i).data();
      double s = ai[j];
      for (std::size_t k = 0; k < j; ++k) s -= ai[k] * aj[k];
      ai[j] = s / l;
    }
    for (std::size_t c = j + 1; c < n; ++c) aj[c] = 0.0;  // zero upper
  }
  return a;
}

std::vector<double> cholesky_solve_factored(const Matrix& l,
                                            std::span<const double> b) {
  const std::size_t n = l.rows();
  GMD_REQUIRE(b.size() == n, "rhs size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row(i).data();
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l.at(k, i) * x[k];
    x[i] = s / l.at(i, i);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& a,
                                   std::span<const double> b) {
  return cholesky_solve_factored(cholesky(a), b);
}

}  // namespace gmd::ml
