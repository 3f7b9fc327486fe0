// Tests for icvbe/fit: linear least squares and polynomial fit.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "icvbe/common/error.hpp"
#include "icvbe/fit/least_squares.hpp"

namespace icvbe::fit {
namespace {

TEST(LinearLeastSquares, ExactLineRecovered) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 - 2.0 * xi);
  LineFit f = fit_line(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.slope, -2.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearLeastSquares, NoisyLineWithinSigma) {
  std::mt19937 gen(99);
  std::normal_distribution<double> noise(0.0, 0.01);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const double xi = i * 0.05;
    x.push_back(xi);
    y.push_back(1.5 + 0.7 * xi + noise(gen));
  }
  LineFit f = fit_line(x, y);
  EXPECT_NEAR(f.intercept, 1.5, 5.0 * f.sigma_intercept);
  EXPECT_NEAR(f.slope, 0.7, 5.0 * f.sigma_slope);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(LinearLeastSquares, ResidualStatsConsistent) {
  linalg::Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  linalg::Vector y{0.0, 1.1, 1.9};
  LinearFitResult r = linear_least_squares(a, y);
  double rss = 0.0;
  for (double e : r.residuals) rss += e * e;
  EXPECT_NEAR(r.rss, rss, 1e-15);
  EXPECT_GT(r.r_squared, 0.9);
}

TEST(LinearLeastSquares, CorrelationDetectsCollinearBasis) {
  // Two nearly identical basis columns: parameter correlation -> -1.
  std::vector<double> x;
  for (int i = 0; i < 50; ++i) x.push_back(1.0 + i * 0.01);
  linalg::Matrix a(x.size(), 2);
  linalg::Vector y(x.size());
  std::mt19937 gen(7);
  std::normal_distribution<double> noise(0.0, 1e-4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    a(i, 0) = x[i];
    a(i, 1) = x[i] * (1.0 + 1e-3 * std::log(x[i]));
    y[i] = a(i, 0) + a(i, 1) + noise(gen);
  }
  LinearFitResult r = linear_least_squares(a, y);
  EXPECT_LT(r.param_correlation(0, 1), -0.99);
  EXPECT_GT(r.condition_number, 1e4);
}

TEST(WeightedLeastSquares, DownweightsOutlier) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  linalg::Matrix a(4, 1);
  for (std::size_t i = 0; i < 4; ++i) a(i, 0) = 1.0;
  linalg::Vector y{1.0, 1.0, 1.0, 100.0};
  linalg::Vector w{1.0, 1.0, 1.0, 1e-9};
  LinearFitResult r = weighted_linear_least_squares(a, y, w);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-3);
  EXPECT_THROW(
      (void)weighted_linear_least_squares(a, y, linalg::Vector{1, 1, 1, 0}),
      Error);
}

TEST(PolynomialFit, RecoversCubicExactly) {
  std::vector<double> x, y;
  for (int i = -5; i <= 5; ++i) {
    const double xi = i * 0.3;
    x.push_back(xi);
    y.push_back(1.0 - 2.0 * xi + 0.5 * xi * xi + 0.25 * xi * xi * xi);
  }
  LinearFitResult r = polynomial_fit(x, y, 3);
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-10);
  EXPECT_NEAR(r.parameters[1], -2.0, 1e-10);
  EXPECT_NEAR(r.parameters[2], 0.5, 1e-10);
  EXPECT_NEAR(r.parameters[3], 0.25, 1e-10);
}

TEST(PolynomialFit, PolyvalHorner) {
  linalg::Vector c{1.0, 0.0, 2.0};  // 1 + 2x^2
  EXPECT_DOUBLE_EQ(polyval(c, 3.0), 19.0);
}

TEST(DesignMatrix, BuildsFromBasisFunctions) {
  std::vector<double> x{1.0, 2.0};
  auto a = design_matrix(
      x, {[](double) { return 1.0; }, [](double v) { return v * v; }});
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
}

// Parameterised property: polynomial_fit of degree d reproduces any
// polynomial of that degree from exact samples.
class PolyDegreeTest : public ::testing::TestWithParam<int> {};

TEST_P(PolyDegreeTest, ExactRecovery) {
  const int degree = GetParam();
  std::mt19937 gen(static_cast<unsigned>(100 + degree));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Vector coeffs(static_cast<std::size_t>(degree) + 1);
  for (auto& c : coeffs) c = dist(gen);
  std::vector<double> x, y;
  for (int i = 0; i <= 2 * degree + 4; ++i) {
    const double xi = -1.0 + 2.0 * i / (2.0 * degree + 4.0);
    x.push_back(xi);
    y.push_back(polyval(coeffs, xi));
  }
  LinearFitResult r = polynomial_fit(x, y, degree);
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    EXPECT_NEAR(r.parameters[j], coeffs[j], 1e-8) << "degree " << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyDegreeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace icvbe::fit
