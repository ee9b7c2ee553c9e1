#pragma once

/// \file matrix.hpp
/// Dense row-major matrix with the small amount of linear algebra the
/// ML library needs: products, transpose products, and a Cholesky
/// solver for SPD systems (normal equations, Gaussian processes).

#include <cstddef>
#include <span>
#include <vector>

namespace gmd::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from nested initializer rows; all rows must be equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // The accessors are inline so hot loops compile to plain loads that
  // can vectorize; the range check stays on in every build type and
  // throws gmd::Error from an out-of-line cold path.
  double& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  std::span<const double> row(std::size_t r) const {
    check_row(r);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> row(std::size_t r) {
    check_row(r);
    return {data_.data() + r * cols_, cols_};
  }

  /// Returns a new matrix holding the selected rows (e.g. a bootstrap
  /// sample or a train/test partition).
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// One column as a vector.
  std::vector<double> column(std::size_t c) const;

  Matrix transposed() const;

  /// this (r x c) * other (c x k) -> (r x k).
  Matrix multiply(const Matrix& other) const;

  /// this (r x c) * v (c) -> (r).
  std::vector<double> multiply(std::span<const double> v) const;

  /// this^T * this, the (c x c) Gram matrix of columns.
  Matrix gram() const;

  /// this^T * v for v of length rows().
  std::vector<double> transpose_multiply(std::span<const double> v) const;

 private:
  /// Throws gmd::Error with GMD_ASSERT's text for `what`; out of line,
  /// so this header need not pull in error.hpp.
  [[noreturn]] static void throw_out_of_range(const char* what);

  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) [[unlikely]]
      throw_out_of_range("matrix index out of range");
  }
  void check_row(std::size_t r) const {
    if (r >= rows_) [[unlikely]]
      throw_out_of_range("row index out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// In-place Cholesky factorization of an SPD matrix: A = L L^T, L
/// returned in the lower triangle.  Throws gmd::Error when A is not
/// positive definite (within `jitter` tolerance on the diagonal).
Matrix cholesky(Matrix a);

/// Solves A x = b for SPD A via Cholesky.  `a` is the original matrix.
std::vector<double> cholesky_solve(const Matrix& a, std::span<const double> b);

/// Solves L y = b (forward) then L^T x = y (backward) given a Cholesky
/// factor L (lower triangle).
std::vector<double> cholesky_solve_factored(const Matrix& l,
                                            std::span<const double> b);

}  // namespace gmd::ml
