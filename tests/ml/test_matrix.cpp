#include "gmd/ml/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gmd/common/error.hpp"

namespace gmd::ml {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), Error);
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(Matrix, RowSpanViewsData) {
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  m.row(1)[0] = 9.0;
  EXPECT_DOUBLE_EQ(m.at(1, 0), 9.0);
}

// The accessors are inline with a range check that stays on in every
// build type; a bad row or column throws gmd::Error from either
// overload, with the text GMD_ASSERT gives it.
TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix m(2, 3);
  const Matrix& cm = m;
  EXPECT_THROW((void)m.at(2, 0), Error);
  EXPECT_THROW((void)m.at(0, 3), Error);
  EXPECT_THROW((void)cm.at(2, 0), Error);
  EXPECT_THROW((void)cm.at(0, 3), Error);
  EXPECT_THROW((void)m.row(2), Error);
  EXPECT_THROW((void)cm.row(2), Error);
  EXPECT_NO_THROW((void)m.at(1, 2));
  EXPECT_NO_THROW((void)cm.row(1));

  const Matrix empty;
  EXPECT_THROW((void)empty.at(0, 0), Error);
  EXPECT_THROW((void)empty.row(0), Error);

  try {
    (void)cm.at(0, 3);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "internal invariant violated: matrix index out of range"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)m.row(5);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "internal invariant violated: row index out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(Matrix, GatherRows) {
  const Matrix m = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const std::vector<std::size_t> idx{2, 0, 2};
  const Matrix g = m.gather_rows(idx);
  ASSERT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.at(2, 0), 3.0);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(m.gather_rows(bad), Error);
}

TEST(Matrix, Transpose) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
}

TEST(Matrix, MultiplyMatrices) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
  EXPECT_THROW(a.multiply(Matrix(3, 3)), Error);
}

TEST(Matrix, MultiplyVector) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const std::vector<double> v{1.0, -1.0};
  const auto out = a.multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
}

TEST(Matrix, GramIsXtX) {
  const Matrix x = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const Matrix g = x.gram();
  const Matrix expected = x.transposed().multiply(x);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(g.at(i, j), expected.at(i, j), 1e-12);
}

TEST(Matrix, TransposeMultiply) {
  const Matrix x = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const std::vector<double> v{1.0, 1.0, 1.0};
  const auto out = x.transpose_multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 12.0);
}

TEST(Cholesky, FactorizesKnownSpd) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Matrix l = cholesky(a);
  EXPECT_NEAR(l.at(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l.at(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(l.at(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(cholesky(a), Error);
  EXPECT_THROW(cholesky(Matrix(2, 3)), Error);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  // x = [1, -2] -> b = A x = [0, -4].
  const std::vector<double> b{0.0, -4.0};
  const auto x = cholesky_solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
}

TEST(Cholesky, SolveLargerSystem) {
  // SPD via B^T B + I.
  const Matrix b = Matrix::from_rows(
      {{1.0, 2.0, 0.5}, {0.0, 1.0, -1.0}, {2.0, 0.0, 1.0}, {1.0, 1.0, 1.0}});
  Matrix a = b.gram();
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) += 1.0;
  const std::vector<double> x_true{0.3, -1.2, 2.5};
  const auto rhs = a.multiply(x_true);
  const auto x = cholesky_solve(a, rhs);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

}  // namespace
}  // namespace gmd::ml
