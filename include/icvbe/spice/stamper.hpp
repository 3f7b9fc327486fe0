#pragma once
// Stamper: the device-facing interface for assembling the MNA system
// G x = b during one Newton iteration (real scalar) or one AC frequency
// point (complex scalar).
//
// Conventions (classic MNA):
//  * KCL rows: sum of currents *leaving* a node through devices equals the
//    current *injected* into the node on the RHS.
//  * A conductance g between nodes a and b stamps +g on the diagonals and
//    -g off-diagonal (for AC, g generalises to a complex admittance y).
//  * A nonlinear branch I(v) linearised at v* stamps its small-signal g and
//    the companion current Ieq = I(v*) - g v* as an RHS extraction.
//  * Aux rows (branch-current unknowns) are stamped with raw add_entry /
//    add_rhs.

#include "icvbe/linalg/matrix_view.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

template <typename Scalar>
class StamperT {
 public:
  /// `node_unknowns` = number of non-ground nodes; aux rows follow.
  /// `a` views a SparseMatrixT (implicitly constructible from one) or one
  /// lane of a SparseValueBatch: every stamp goes through the same
  /// MatrixViewT contract (see matrix_view.hpp).
  StamperT(linalg::MatrixViewT<Scalar> a, linalg::VectorT<Scalar>& b,
           int node_unknowns);

  // The add methods are defined here, not in stamper.cpp, so each
  // device's stamp inlines down to the matrix's taped add.

  /// Linear conductance (complex: admittance) between nodes a and b.
  void add_conductance(NodeId a, NodeId b, Scalar g) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    add_entry(ia, ia, g);
    add_entry(ib, ib, g);
    add_entry(ia, ib, -g);
    add_entry(ib, ia, -g);
  }

  /// Independent current J injected into node n (flows from ground into n).
  void add_current_into(NodeId n, Scalar j) { add_rhs(node_index(n), j); }

  /// Companion model of a nonlinear branch from p to m: current I = g v +
  /// ieq flows p -> m. Stamps the conductance and moves ieq to the RHS.
  void stamp_companion(NodeId p, NodeId m, Scalar g, Scalar ieq) {
    add_conductance(p, m, g);
    // ieq flows p -> m: extract it from p's injection, add to m's.
    add_rhs(node_index(p), -ieq);
    add_rhs(node_index(m), ieq);
  }

  /// Raw matrix access for aux rows/columns. Row/col indices are unknown
  /// indices: nodes occupy [0, node_unknowns), aux rows follow. Negative
  /// index (ground) contributions are dropped.
  void add_entry(int row, int col, Scalar v) {
    if (row < 0 || col < 0) return;  // ground row/column is eliminated
    a_.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
  }
  void add_rhs(int row, Scalar v) {
    if (row < 0) return;
    b_[static_cast<std::size_t>(row)] += v;
  }

  /// Unknown index of a node (-1 for ground).
  [[nodiscard]] int node_index(NodeId n) const { return n - 1; }

  /// A junction device calls this when limiting moved one of its voltages
  /// off the iterate during this stamp: the stamp then linearises at a
  /// point that is not the iterate, and newton_update does not accept the
  /// iteration as converged (SPICE's noncon count).
  void note_limited() noexcept { ++limited_; }
  /// Calls of note_limited() since construction.
  [[nodiscard]] int limited() const noexcept { return limited_; }

 private:
  linalg::MatrixViewT<Scalar> a_;
  linalg::VectorT<Scalar>& b_;
  int limited_ = 0;
};

using Stamper = StamperT<double>;

extern template class StamperT<double>;
extern template class StamperT<linalg::Complex>;

/// The small-signal stamper one AC frequency point is assembled through:
/// the complex-scalar StamperT plus the angular frequency, so a device's
/// stamp_ac() can write its admittance (g + j*omega*C, 1/(j*omega*L), ...)
/// without extra plumbing. Conventions are identical to the DC Stamper;
/// only independent sources with an AC stimulus touch the RHS.
class AcStamper : public StamperT<linalg::Complex> {
 public:
  AcStamper(linalg::ComplexMatrixView a, linalg::ComplexVector& b,
            int node_unknowns, double omega)
      : StamperT<linalg::Complex>(a, b, node_unknowns), omega_(omega) {}

  /// Angular frequency of the point being stamped [rad/s].
  [[nodiscard]] double omega() const noexcept { return omega_; }

 private:
  double omega_;
};

}  // namespace icvbe::spice
