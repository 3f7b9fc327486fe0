#include "icvbe/linalg/matrix.hpp"

#include <algorithm>

#include "icvbe/common/error.hpp"

namespace icvbe::linalg {

template <typename Scalar>
MatrixT<Scalar>::MatrixT(std::size_t rows, std::size_t cols, Scalar fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

template <typename Scalar>
MatrixT<Scalar>::MatrixT(
    std::initializer_list<std::initializer_list<Scalar>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    ICVBE_REQUIRE(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

template <typename Scalar>
Scalar& MatrixT<Scalar>::at(std::size_t r, std::size_t c) {
  ICVBE_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

template <typename Scalar>
Scalar MatrixT<Scalar>::at(std::size_t r, std::size_t c) const {
  ICVBE_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

template <typename Scalar>
void MatrixT<Scalar>::fill(Scalar value) {
  std::fill(data_.begin(), data_.end(), value);
}

template <typename Scalar>
void MatrixT<Scalar>::resize(std::size_t rows, std::size_t cols, Scalar fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

template <typename Scalar>
MatrixT<Scalar> MatrixT<Scalar>::transposed() const {
  MatrixT t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

template <typename Scalar>
MatrixT<Scalar> MatrixT<Scalar>::multiply(const MatrixT& other) const {
  ICVBE_REQUIRE(cols_ == other.rows_, "Matrix::multiply dimension mismatch");
  MatrixT out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Scalar a = (*this)(r, k);
      if (a == Scalar{}) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

template <typename Scalar>
VectorT<Scalar> MatrixT<Scalar>::multiply(const VectorT<Scalar>& v) const {
  ICVBE_REQUIRE(cols_ == v.size(), "Matrix::multiply(Vector) size mismatch");
  VectorT<Scalar> out(rows_, Scalar{});
  for (std::size_t r = 0; r < rows_; ++r) {
    Scalar acc{};
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

template <typename Scalar>
double MatrixT<Scalar>::max_abs() const {
  double m = 0.0;
  for (const Scalar& v : data_) m = std::max(m, scalar_abs(v));
  return m;
}

template class MatrixT<double>;
template class MatrixT<Complex>;

double dot(const Vector& a, const Vector& b) {
  ICVBE_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

Vector subtract(const Vector& a, const Vector& b) {
  ICVBE_REQUIRE(a.size() == b.size(), "subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

}  // namespace icvbe::linalg
