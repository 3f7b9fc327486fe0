#pragma once
// Direct dense solvers: LU with partial pivoting (square systems --
// scalar-generic: the fitting code's normal equations, and the tests'
// dense reference for the sparse engine's DC and AC systems), Householder
// QR (least squares, fitting -- real-only) and the Meijer 2x2 solve.

#include "icvbe/linalg/matrix.hpp"

namespace icvbe::linalg {

/// LU factorisation with partial pivoting of a square matrix. Factor once,
/// solve for many right-hand sides. Generic over the scalar (double /
/// Complex): pivot selection and singularity screening compare magnitudes,
/// so the double instantiation's factorisation arithmetic is bit-for-bit
/// the historical real solver. One deliberate screening change applies to
/// both scalars: singularity is judged column-relatively (see the
/// constructor comment), so a solve that previously threw on a widely
/// column-scaled but nonsingular system now factors it -- the Newton
/// fallback machinery sees strictly fewer NumericalErrors, never more.
///
/// Two usage modes:
///  * one-shot: construct from a MatrixT and call solve();
///  * workspace reuse: default-construct (or keep an instance around) and
///    call refactor() with each new matrix of the same size -- after the
///    first call all storage is reused and refactor()/solve_in_place()
///    perform no heap allocation.
template <typename Scalar>
class LuFactorizationT {
 public:
  /// Empty workspace; call refactor() before solving.
  LuFactorizationT() = default;

  /// Factor A (square). Throws NumericalError if A is singular to working
  /// precision: the best pivot magnitude of some column falls below
  /// `pivot_tol` times that column's own max|A| (column-relative, so AC
  /// systems whose columns legitimately span many decades -- j*omega*L
  /// next to microsiemens conductances -- are not misdiagnosed).
  explicit LuFactorizationT(MatrixT<Scalar> a, double pivot_tol = 1e-14);

  /// Re-factor a new matrix, reusing the internal storage. Allocation-free
  /// when `a` has the same dimensions as the previous factorisation.
  /// Throws NumericalError if A is singular to working precision -- the
  /// detection is deterministic at refactor time (exact zero pivots in the
  /// denormal range and non-finite entries included; nothing survives to
  /// fail at the first solve). The workspace stays reusable after a throw.
  void refactor(const MatrixT<Scalar>& a, double pivot_tol = 1e-14);

  /// Solve A x = b.
  [[nodiscard]] VectorT<Scalar> solve(const VectorT<Scalar>& b) const;

  /// Solve A x = rhs with the solution overwriting `rhs`; allocation-free.
  void solve_in_place(VectorT<Scalar>& rhs) const;

  /// Rough 1-norm condition estimate via |A|_1 * |A^-1 e|_1 probing.
  [[nodiscard]] double condition_estimate() const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  /// Shared factorisation core: factors lu_ in place (piv_ already sized).
  void factor_in_place(double pivot_tol);

  MatrixT<Scalar> lu_;            // packed L (unit diag) and U
  std::vector<std::size_t> piv_;  // row permutation
  std::vector<double> colmax_;    // per-column max|A| for the pivot test
  double a_norm1_ = 0.0;          // 1-norm of original A for cond estimate
};

using LuFactorization = LuFactorizationT<double>;
using ComplexLuFactorization = LuFactorizationT<Complex>;

extern template class LuFactorizationT<double>;
extern template class LuFactorizationT<Complex>;

/// Householder QR of an m x n matrix (m >= n), for least squares.
class QrFactorization {
 public:
  /// Factor A. Throws NumericalError if numerically rank-deficient
  /// (|R(k,k)| < rank_tol * |R(0,0)|) when solving.
  explicit QrFactorization(Matrix a);

  /// Minimise |A x - b|_2; returns x of length n.
  [[nodiscard]] Vector solve_least_squares(const Vector& b,
                                           double rank_tol = 1e-12) const;

  /// Upper-triangular solve R x = y for the leading n x n block of R.
  [[nodiscard]] Vector solve_r(const Vector& y, double rank_tol) const;

  /// Apply Q^T to a vector of length m.
  [[nodiscard]] Vector apply_qt(const Vector& b) const;

  [[nodiscard]] std::size_t rows() const noexcept { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return qr_.cols(); }

 private:
  Matrix qr_;           // Householder vectors below diagonal, R on/above
  Vector beta_;         // Householder scalars
};

/// Solve a 2x2 system (used for the Meijer two-equation extraction). Throws
/// NumericalError if the determinant is ~0.
[[nodiscard]] std::pair<double, double> solve2x2(double a11, double a12,
                                                 double a21, double a22,
                                                 double b1, double b2);

}  // namespace icvbe::linalg
