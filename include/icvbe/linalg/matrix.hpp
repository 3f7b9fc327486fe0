#pragma once
// Dense row-major matrix and vector types for the fitting library and the
// MNA solver, generic over the scalar type.
//
// The linalg layer's dense matrices and the factorisations (MatrixT,
// LuFactorizationT, SparseLuFactorizationT) are templated on Scalar with
// exactly two sanctioned instantiations: double (DC / transient Newton
// systems) and std::complex<double> (small-signal .AC systems,
// G + j*omega*C assembled from real stamps). The sparse matrix is real:
// the complex sparse LU factors complex values on its pattern. All pivoting,
// singularity screening and convergence logic compares *magnitudes*
// (scalar_abs, a double for both instantiations), so the symbolic /
// decision-making half of every algorithm is real-valued and identical
// across scalars -- only the stored values and the arithmetic go complex.
// The real instantiations keep the pre-template factorisation arithmetic
// bit-for-bit (asserted by the golden tests); the one deliberate
// behavioural change that rode along for BOTH scalars is the
// column-relative singularity screen (see LuFactorizationT /
// SparseLuFactorizationT), which accepts widely column-scaled systems the
// old global-max test misdiagnosed. Heavy member functions live in the
// .cpp files behind explicit instantiation so the template refactor does
// not bloat every translation unit.

#include <cmath>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace icvbe::linalg {

using Complex = std::complex<double>;

template <typename Scalar>
using VectorT = std::vector<Scalar>;

using Vector = VectorT<double>;
using ComplexVector = VectorT<Complex>;

/// Magnitude of a scalar: |x| for double, |re| + |im| for complex (the
/// 1-norm of the pair, LAPACK's cabs1). Every pivot / tolerance comparison
/// in the linalg layer goes through this, so the decision logic stays
/// real-valued for both instantiations. For complex it is within a factor
/// sqrt(2) of the modulus -- tight enough for pivot and screen decisions --
/// and needs no hypot on the AC refactor's hot path.
inline double scalar_abs(double v) { return std::abs(v); }
inline double scalar_abs(const Complex& v) {
  return std::abs(v.real()) + std::abs(v.imag());
}

/// Finiteness screen (complex: both components must be finite).
inline bool scalar_is_finite(double v) { return std::isfinite(v); }
inline bool scalar_is_finite(const Complex& v) {
  return std::isfinite(v.real()) && std::isfinite(v.imag());
}

/// Dense row-major matrix of Scalar.
template <typename Scalar>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(std::size_t rows, std::size_t cols, Scalar fill = Scalar{});

  /// Construct from nested initializer list (row major); all rows must
  /// have identical length.
  MatrixT(std::initializer_list<std::initializer_list<Scalar>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] Scalar& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] Scalar operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws icvbe::Error).
  [[nodiscard]] Scalar& at(std::size_t r, std::size_t c);
  [[nodiscard]] Scalar at(std::size_t r, std::size_t c) const;

  /// Reset every element to the given value (used between Newton
  /// iterations / AC frequency points to re-stamp the MNA system).
  void fill(Scalar value);

  /// Resize, discarding contents.
  void resize(std::size_t rows, std::size_t cols, Scalar fill = Scalar{});

  [[nodiscard]] MatrixT transposed() const;

  /// this * other; dimension-checked.
  [[nodiscard]] MatrixT multiply(const MatrixT& other) const;

  /// this * v; dimension-checked.
  [[nodiscard]] VectorT<Scalar> multiply(const VectorT<Scalar>& v) const;

  /// Max element magnitude (infinity norm of vec(A)); always a double.
  [[nodiscard]] double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Scalar> data_;
};

using Matrix = MatrixT<double>;
using ComplexMatrix = MatrixT<Complex>;

extern template class MatrixT<double>;
extern template class MatrixT<Complex>;

/// Dot product (dimension-checked).
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// a - b element-wise (dimension-checked).
[[nodiscard]] Vector subtract(const Vector& a, const Vector& b);

}  // namespace icvbe::linalg
