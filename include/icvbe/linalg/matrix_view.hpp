#pragma once
// MatrixView: a non-owning accumulate-only view over a (frozen or
// building) SparseMatrix, or over one lane of a SparseValueBatch.
//
// This is the stamping contract: devices write their MNA entries through a
// Stamper that holds a MatrixView, so the same stamp() code serves the
// sessions' sparse engine, the batched lot solver's lane planes, the AC
// engine's reactive matrix C, and a test's reference solve (which stamps a
// building-mode matrix and densifies it). The only operation a stamp needs
// is `add` (+=), which keeps the view trivially cheap: one branch per
// entry, inlined. Every stamp is real: the small-signal system
// G + j*omega*C is assembled from two real stamps (sim_session.hpp).
//
// Coordinate contract: `add(r, c, v)` always addresses the *original* MNA
// coordinates. Row/column permutations -- the BTF block permutation, the
// AMD pre-ordering inside each block, threshold-pivoting column swaps --
// live entirely inside SparseLuFactorizationT's cached symbolic analysis;
// neither devices nor sessions ever see a permuted index, so the ordering
// can change without touching any stamping code.

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/sparse.hpp"

namespace icvbe::linalg {

class MatrixView {
 public:
  /*implicit*/ MatrixView(SparseMatrix& sparse)  // NOLINT
      : sparse_(&sparse) {}
  /// View over one lane of a K-wide value batch: the same device stamp()
  /// code fills lane planes for the batched lot solver. The batch must be
  /// bound to a frozen pattern.
  MatrixView(SparseValueBatch& batch, std::size_t lane)
      : batch_(&batch), lane_(lane) {}

  [[nodiscard]] std::size_t rows() const noexcept {
    return sparse_ != nullptr ? sparse_->rows() : batch_->rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    return sparse_ != nullptr ? sparse_->cols() : batch_->rows();
  }

  /// Accumulate v at (r, c). On a frozen sparse target the slot must be
  /// inside the pattern (see SparseMatrix::add).
  void add(std::size_t r, std::size_t c, double v) {
    if (sparse_ != nullptr) {
      sparse_->add(r, c, v);
    } else {
      batch_->add(r, c, v, lane_);
    }
  }

  /// Reset every stored entry (sparse: the pattern; batch: this view's
  /// lane -- value must be zero there).
  void fill(double value) {
    if (sparse_ != nullptr) {
      sparse_->fill(value);
    } else {
      ICVBE_REQUIRE(value == 0.0,
                    "MatrixView: batch lanes only reset to zero");
      batch_->clear_lane(lane_);
    }
  }

 private:
  SparseMatrix* sparse_ = nullptr;
  SparseValueBatch* batch_ = nullptr;
  std::size_t lane_ = 0;
};

}  // namespace icvbe::linalg
