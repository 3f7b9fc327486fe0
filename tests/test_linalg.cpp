// Tests for icvbe/linalg: Matrix, LU, QR, solve2x2.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/solve.hpp"

namespace icvbe::linalg {
namespace {

TEST(MatrixTest, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((void)m.at(2, 0), Error);
}

TEST(MatrixTest, RaggedInitializerRejected) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(MatrixTest, MultiplyMatrixAndVector) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);

  Vector v = a.multiply(Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, TransposeAndMaxAbs) {
  Matrix a{{1.0, -5.0}, {2.0, 3.0}};
  Matrix t = a.transposed();
  EXPECT_DOUBLE_EQ(t(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
}

TEST(VectorOps, Dot) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_THROW((void)dot(a, Vector{1.0}), Error);
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector x = LuFactorization(a).solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuTest, PivotingHandlesZeroDiagonal) {
  // Leading zero forces a row swap; solution is x = (1, 1).
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  Vector x = LuFactorization(a).solve(Vector{1.0, 1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
}

TEST(LuTest, SingularMatrixThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuFactorization{a}, NumericalError);
}

TEST(LuTest, SolveManyRhsAfterOneFactor) {
  Matrix a{{4.0, 1.0, 0.0}, {1.0, 4.0, 1.0}, {0.0, 1.0, 4.0}};
  LuFactorization lu(a);
  for (int k = 0; k < 3; ++k) {
    Vector e(3, 0.0);
    e[static_cast<std::size_t>(k)] = 1.0;
    Vector x = lu.solve(e);
    Vector ax = a.multiply(x);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(ax[static_cast<std::size_t>(i)],
                  e[static_cast<std::size_t>(i)], 1e-12);
    }
  }
}

TEST(LuTest, RefactorDetectsExactZeroPivotAtDenormalScale) {
  // Regression: with every entry ~1e-310, pivot_tol * max|A| underflows
  // to exactly 0.0, so the old `best < tol` test accepted the exactly
  // singular matrix and the first solve quietly divided 0/0. Detection
  // must be deterministic at refactor time.
  Matrix good{{2.0, 1.0}, {1.0, 3.0}};
  Matrix denormal_singular{{1e-310, 1e-310}, {1e-310, 1e-310}};
  LuFactorization lu(good);
  EXPECT_THROW(lu.refactor(denormal_singular), NumericalError);
}

TEST(LuTest, RefactorRejectsNonFiniteEntries) {
  // A NaN loses every pivot comparison (and max_abs skips it), so it used
  // to factor "successfully" and only surface as NaN in the first solve.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LuFactorization(Matrix{{nan, 1.0}, {1.0, 1.0}}),
               NumericalError);
  EXPECT_THROW(LuFactorization(Matrix{{1.0, inf}, {1.0, 1.0}}),
               NumericalError);
  // Off-pivot NaN: the pivots themselves stay clean, the solution would
  // not have.
  EXPECT_THROW(LuFactorization(Matrix{{2.0, nan}, {0.0, 1.0}}),
               NumericalError);
}

TEST(LuTest, ZeroMatrixIsANumericalError) {
  // A numerically zero Jacobian must surface as NumericalError so the
  // Newton fallback machinery (which catches exactly that) handles it as
  // a convergence failure rather than aborting the run.
  EXPECT_THROW(LuFactorization(Matrix(2, 2, 0.0)), NumericalError);
}

TEST(LuTest, WorkspaceSurvivesASingularRefactor) {
  // A refactor() that throws must leave the workspace reusable: the
  // SimSession Newton loop catches the error, falls back (gmin/source
  // stepping), and refactors the same instance again.
  Matrix good{{2.0, 1.0}, {1.0, 3.0}};
  Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  LuFactorization lu;
  lu.refactor(good);
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  lu.refactor(good);
  Vector x = lu.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuTest, ConditionEstimateLargeForNearSingular) {
  Matrix good{{1.0, 0.0}, {0.0, 1.0}};
  Matrix bad{{1.0, 1.0}, {1.0, 1.0 + 1e-9}};
  EXPECT_LT(LuFactorization(good).condition_estimate(), 10.0);
  EXPECT_GT(LuFactorization(bad).condition_estimate(), 1e6);
}

TEST(QrTest, ExactSolveSquare) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector x = QrFactorization(a).solve_least_squares(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(QrTest, OverdeterminedLeastSquares) {
  // y = 2x + 1 with exact data: residual must vanish.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  Vector y{1.0, 3.0, 5.0, 7.0};
  Vector x = QrFactorization(a).solve_least_squares(y);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QrTest, LeastSquaresMinimisesResidual) {
  // Inconsistent system: projection of b onto col(A).
  Matrix a{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  Vector y{1.0, 3.0, 5.0};
  Vector x = QrFactorization(a).solve_least_squares(y);
  EXPECT_NEAR(x[0], 2.0, 1e-12);  // mean of 1 and 3
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(QrTest, RankDeficientThrows) {
  Matrix a{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  QrFactorization qr(a);
  EXPECT_THROW((void)qr.solve_least_squares(Vector{1.0, 2.0, 3.0}),
               NumericalError);
}

TEST(Solve2x2Test, SolvesAndValidates) {
  auto [x, y] = solve2x2(2.0, 1.0, 1.0, 3.0, 3.0, 5.0);
  EXPECT_NEAR(x, 0.8, 1e-12);
  EXPECT_NEAR(y, 1.4, 1e-12);
  EXPECT_THROW((void)solve2x2(1.0, 2.0, 2.0, 4.0, 1.0, 2.0), NumericalError);
}

// Property-style sweep: random well-conditioned systems solve to machine
// precision through both LU and QR.
class RandomSystemTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemTest, LuAndQrAgree) {
  const int n = 5;
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = dist(gen);
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) += 4.0;
  }
  Vector b(n);
  for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = dist(gen);
  Vector xl = LuFactorization(a).solve(b);
  Vector xq = QrFactorization(a).solve_least_squares(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xl[static_cast<std::size_t>(i)],
                xq[static_cast<std::size_t>(i)], 1e-10);
  }
  Vector ax = a.multiply(xl);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace icvbe::linalg
