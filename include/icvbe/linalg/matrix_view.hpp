#pragma once
// MatrixViewT: a non-owning accumulate-only view over either a dense
// MatrixT or a (frozen or building) SparseMatrixT of the same scalar.
//
// This is the stamping contract: devices write their MNA entries through a
// Stamper that holds a MatrixViewT, so the same stamp() code serves the
// sessions' sparse engine and a dense reference solve with zero
// duplication. The only operation a stamp needs is `add` (+=), which
// keeps the view trivially cheap: one branch per entry, inlined. The view
// is scalar-generic: MatrixView (double) carries DC/transient Jacobians,
// ComplexMatrixView carries the AC small-signal admittance system -- one
// frozen sparse pattern per engine, stamped through the identical path.
//
// Coordinate contract: `add(r, c, v)` always addresses the *original* MNA
// coordinates. Row/column permutations -- the BTF block permutation, the
// AMD pre-ordering inside each block, threshold-pivoting column swaps --
// live entirely inside SparseLuFactorizationT's cached symbolic analysis;
// neither devices nor sessions ever see a permuted index, so the ordering
// can change without touching any stamping code.

#include <type_traits>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/sparse.hpp"

namespace icvbe::linalg {

template <typename Scalar>
class MatrixViewT {
 public:
  /*implicit*/ MatrixViewT(MatrixT<Scalar>& dense)          // NOLINT
      : dense_(&dense) {}
  /*implicit*/ MatrixViewT(SparseMatrixT<Scalar>& sparse)   // NOLINT
      : sparse_(&sparse) {}
  /// View over one lane of a K-wide value batch: the same device stamp()
  /// code fills lane planes for the batched lot solver (real systems
  /// only). The batch must be bound to a frozen pattern.
  MatrixViewT(SparseValueBatch& batch, std::size_t lane)
    requires std::is_same_v<Scalar, double>
      : batch_(&batch), lane_(lane) {}

  [[nodiscard]] std::size_t rows() const noexcept {
    if (dense_ != nullptr) return dense_->rows();
    return sparse_ != nullptr ? sparse_->rows() : batch_->rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    if (dense_ != nullptr) return dense_->cols();
    return sparse_ != nullptr ? sparse_->cols() : batch_->rows();
  }
  [[nodiscard]] bool is_sparse() const noexcept { return dense_ == nullptr; }

  /// Accumulate v at (r, c). On a frozen sparse target the slot must be
  /// inside the pattern (see SparseMatrixT::add).
  void add(std::size_t r, std::size_t c, Scalar v) {
    if (dense_ != nullptr) {
      (*dense_)(r, c) += v;
    } else if (sparse_ != nullptr) {
      sparse_->add(r, c, v);
    } else if constexpr (std::is_same_v<Scalar, double>) {
      batch_->add(r, c, v, lane_);
    }
  }

  /// Reset every stored entry (dense: all elements; sparse: the pattern;
  /// batch: this view's lane -- value must be zero there).
  void fill(Scalar value) {
    if (dense_ != nullptr) {
      dense_->fill(value);
    } else if (sparse_ != nullptr) {
      sparse_->fill(value);
    } else {
      ICVBE_REQUIRE(value == Scalar{},
                    "MatrixView: batch lanes only reset to zero");
      batch_->clear_lane(lane_);
    }
  }

 private:
  MatrixT<Scalar>* dense_ = nullptr;
  SparseMatrixT<Scalar>* sparse_ = nullptr;
  SparseValueBatch* batch_ = nullptr;
  std::size_t lane_ = 0;
};

using MatrixView = MatrixViewT<double>;
using ComplexMatrixView = MatrixViewT<Complex>;

}  // namespace icvbe::linalg
