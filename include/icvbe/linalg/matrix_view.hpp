#pragma once
// MatrixView: a non-owning accumulate-only view over a (frozen or
// building) SparseMatrix, or over one lane of a SparseValueBatch.
//
// This is the stamping contract: devices write their MNA entries through a
// Stamper that holds a MatrixView, so the same stamp() code serves the
// sessions' sparse engine, the batched lot solver's lane planes, the
// reactive matrix C, a test's reference solve (which stamps a
// building-mode matrix and densifies it), and -- through a discarding
// view -- the transient's RHS-only restamp of the sources. The only
// operation a stamp needs is `add` (+=), which keeps the view trivially
// cheap: a branch or two per entry, inlined. Every stamp is real: the small-signal system
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

  /// An n x n view that drops every add: a Stamper over it writes only
  /// the RHS.
  [[nodiscard]] static MatrixView discard(std::size_t n) noexcept {
    MatrixView v;
    v.discard_n_ = n;
    return v;
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    if (sparse_ != nullptr) return sparse_->rows();
    return batch_ != nullptr ? batch_->rows() : discard_n_;
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    return sparse_ != nullptr ? sparse_->cols() : rows();
  }

  /// Accumulate v at (r, c). On a frozen sparse target the slot must be
  /// inside the pattern (see SparseMatrix::add).
  void add(std::size_t r, std::size_t c, double v) {
    if (sparse_ != nullptr) {
      sparse_->add(r, c, v);
    } else if (batch_ != nullptr) {
      batch_->add(r, c, v, lane_);
    }
  }

  /// Reset every stored entry (sparse: the pattern; batch: this view's
  /// lane -- value must be zero there).
  void fill(double value) {
    if (sparse_ != nullptr) {
      sparse_->fill(value);
    } else if (batch_ != nullptr) {
      ICVBE_REQUIRE(value == 0.0,
                    "MatrixView: batch lanes only reset to zero");
      batch_->clear_lane(lane_);
    }
  }

 private:
  MatrixView() = default;

  SparseMatrix* sparse_ = nullptr;
  SparseValueBatch* batch_ = nullptr;
  std::size_t lane_ = 0;
  std::size_t discard_n_ = 0;
};

}  // namespace icvbe::linalg
