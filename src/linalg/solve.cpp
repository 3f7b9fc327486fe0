#include "icvbe/linalg/solve.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "icvbe/common/error.hpp"

namespace icvbe::linalg {

template <typename Scalar>
LuFactorizationT<Scalar>::LuFactorizationT(MatrixT<Scalar> a,
                                           double pivot_tol)
    : lu_(std::move(a)), piv_(lu_.rows()) {
  factor_in_place(pivot_tol);
}

template <typename Scalar>
void LuFactorizationT<Scalar>::refactor(const MatrixT<Scalar>& a,
                                        double pivot_tol) {
  lu_ = a;              // same-size assignment reuses the existing storage
  piv_.resize(lu_.rows());
  a_norm1_ = 0.0;
  factor_in_place(pivot_tol);
}

template <typename Scalar>
void LuFactorizationT<Scalar>::factor_in_place(double pivot_tol) {
  ICVBE_REQUIRE(lu_.rows() == lu_.cols(), "LU: matrix must be square");
  const std::size_t n = lu_.rows();
  ICVBE_REQUIRE(n > 0, "LU: empty matrix");

  // 1-norm of A, kept for the condition estimate. The column sums double
  // as a deterministic non-finite screen: a NaN loses every pivot
  // comparison and an Inf wins them all, so either would otherwise factor
  // "successfully" and only surface at the first solve. (Complex scalars:
  // scalar_abs of a non-finite component is NaN or Inf, so the same sum
  // catches them.) The per-column maxima feed the singularity test below:
  // AC systems legitimately span many decades across columns (a
  // loop-break inductor's j*omega*L next to microsiemens conductances),
  // so a pivot is judged against its own column's scale, never the global
  // max|A|. colmax_ is a member so the pass stays allocation-free on
  // workspace reuse.
  colmax_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    double col = 0.0;
    double cmax = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double v = scalar_abs(lu_(r, c));
      col += v;
      cmax = std::max(cmax, v);
    }
    if (!std::isfinite(col)) {
      throw NumericalError("LU: matrix has non-finite entries");
    }
    a_norm1_ = std::max(a_norm1_, col);
    colmax_[c] = cmax;
  }

  if (lu_.max_abs() == 0.0) {
    // A numerically zero matrix is a (maximally) singular system, not an
    // API misuse: NumericalError keeps it inside the Newton fallback
    // machinery, same as any other singular Jacobian.
    throw NumericalError("LU: zero matrix");
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    std::size_t p = k;
    double best = scalar_abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = scalar_abs(lu_(r, k));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    // Deterministic singularity detection at factor time, relative to the
    // pivot column's own original scale (see the colmax_ comment). The
    // inverted comparison (!(best > tol)) rejects a NaN pivot and,
    // because 0 > 0 is false, also closes the denormal-range hole where
    // pivot_tol * colmax underflows to 0.0 and an exactly zero pivot
    // would previously sail through (old test: best < tol) until the
    // first solve divided by it. An all-zero column has colmax 0, so
    // best = 0 still fails the test.
    if (!(best > pivot_tol * colmax_[k])) {
      throw NumericalError("LU: matrix is singular to working precision");
    }
    piv_[k] = p;
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(p, c));
    }
    const Scalar pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Scalar m = lu_(r, k) / pivot;
      lu_(r, k) = m;
      if (m == Scalar{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
}

template <typename Scalar>
VectorT<Scalar> LuFactorizationT<Scalar>::solve(
    const VectorT<Scalar>& b) const {
  VectorT<Scalar> x = b;
  solve_in_place(x);
  return x;
}

template <typename Scalar>
void LuFactorizationT<Scalar>::solve_in_place(VectorT<Scalar>& rhs) const {
  const std::size_t n = lu_.rows();
  ICVBE_REQUIRE(rhs.size() == n, "LU::solve: rhs size mismatch");
  VectorT<Scalar>& x = rhs;
  for (std::size_t k = 0; k < n; ++k) {
    if (piv_[k] != k) std::swap(x[k], x[piv_[k]]);
  }
  // Forward substitution with unit-lower L.
  for (std::size_t r = 1; r < n; ++r) {
    Scalar acc = x[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Back substitution with U.
  for (std::size_t ri = n; ri-- > 0;) {
    Scalar acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
}

template <typename Scalar>
double LuFactorizationT<Scalar>::condition_estimate() const {
  // Probe |A^-1| by solving against a handful of +/-1 vectors and taking
  // the largest column-sum growth. Cheap and adequate for diagnostics.
  const std::size_t n = lu_.rows();
  double inv_norm = 0.0;
  VectorT<Scalar> e(n, Scalar(1.0));
  for (int probe = 0; probe < 2; ++probe) {
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = (probe == 0) ? Scalar(1.0)
                          : ((i % 2) ? Scalar(-1.0) : Scalar(1.0));
    }
    VectorT<Scalar> x = solve(e);
    double s = 0.0;
    for (const Scalar& v : x) s += scalar_abs(v);
    inv_norm = std::max(inv_norm, s / static_cast<double>(n));
  }
  return a_norm1_ * inv_norm;
}

template class LuFactorizationT<double>;
template class LuFactorizationT<Complex>;

QrFactorization::QrFactorization(Matrix a) : qr_(std::move(a)) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  ICVBE_REQUIRE(m >= n && n > 0, "QR: need m >= n >= 1");
  beta_.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k.
    double norm = 0.0;
    for (std::size_t r = k; r < m; ++r) norm += qr_(r, k) * qr_(r, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      beta_[k] = 0.0;  // column already zero below (and at) the diagonal
      continue;
    }
    const double alpha = (qr_(k, k) >= 0.0) ? -norm : norm;
    double v0 = qr_(k, k) - alpha;
    // Normalise the Householder vector so its k-th entry is 1.
    beta_[k] = -v0 / alpha;  // = 2 / (v^T v) * v0^2 ... classic LAPACK form
    for (std::size_t r = k + 1; r < m; ++r) qr_(r, k) /= v0;
    qr_(k, k) = alpha;
    // Apply H_k = I - beta v v^T to the trailing columns.
    for (std::size_t c = k + 1; c < n; ++c) {
      double s = qr_(k, c);
      for (std::size_t r = k + 1; r < m; ++r) s += qr_(r, k) * qr_(r, c);
      s *= beta_[k];
      qr_(k, c) -= s;
      for (std::size_t r = k + 1; r < m; ++r) qr_(r, c) -= s * qr_(r, k);
    }
  }
}

Vector QrFactorization::apply_qt(const Vector& b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  ICVBE_REQUIRE(b.size() == m, "QR::apply_qt: size mismatch");
  Vector y = b;
  for (std::size_t k = 0; k < n; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t r = k + 1; r < m; ++r) s += qr_(r, k) * y[r];
    s *= beta_[k];
    y[k] -= s;
    for (std::size_t r = k + 1; r < m; ++r) y[r] -= s * qr_(r, k);
  }
  return y;
}

Vector QrFactorization::solve_r(const Vector& y, double rank_tol) const {
  const std::size_t n = qr_.cols();
  ICVBE_REQUIRE(y.size() >= n, "QR::solve_r: rhs too short");
  const double r00 = std::abs(qr_(0, 0));
  Vector x(n, 0.0);
  for (std::size_t ki = n; ki-- > 0;) {
    if (std::abs(qr_(ki, ki)) < rank_tol * std::max(r00, 1e-300)) {
      throw NumericalError("QR: rank-deficient system (|R(k,k)| ~ 0)");
    }
    double acc = y[ki];
    for (std::size_t c = ki + 1; c < n; ++c) acc -= qr_(ki, c) * x[c];
    x[ki] = acc / qr_(ki, ki);
  }
  return x;
}

Vector QrFactorization::solve_least_squares(const Vector& b,
                                            double rank_tol) const {
  return solve_r(apply_qt(b), rank_tol);
}

std::pair<double, double> solve2x2(double a11, double a12, double a21,
                                   double a22, double b1, double b2) {
  const double det = a11 * a22 - a12 * a21;
  const double scale = std::max({std::abs(a11), std::abs(a12), std::abs(a21),
                                 std::abs(a22)});
  if (scale == 0.0 || std::abs(det) < 1e-14 * scale * scale) {
    throw NumericalError("solve2x2: singular system");
  }
  return {(b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det};
}

}  // namespace icvbe::linalg
