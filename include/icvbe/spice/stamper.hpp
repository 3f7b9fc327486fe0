#pragma once
// Stamper: the device-facing interface for assembling the real MNA system
// G x = b of one Newton iteration, and the reactive matrix C the AC
// engine pairs with G (DynamicDevice::stamp_reactive).
//
// Conventions (classic MNA):
//  * KCL rows: sum of currents *leaving* a node through devices equals the
//    current *injected* into the node on the RHS.
//  * A conductance g between nodes a and b stamps +g on the diagonals and
//    -g off-diagonal (a capacitance C stamps into C the same way).
//  * A nonlinear branch I(v) linearised at v* stamps its small-signal g and
//    the companion current Ieq = I(v*) - g v* as an RHS extraction.
//  * Aux rows (branch-current unknowns) are stamped with raw add_entry /
//    add_rhs.

#include "icvbe/linalg/matrix_view.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

class Stamper {
 public:
  /// `node_unknowns` = number of non-ground nodes; aux rows follow.
  /// `a` views a SparseMatrix (implicitly constructible from one) or one
  /// lane of a SparseValueBatch: every stamp goes through the same
  /// MatrixView contract (see matrix_view.hpp).
  Stamper(linalg::MatrixView a, linalg::Vector& b, int node_unknowns);

  // The add methods are defined here, not in stamper.cpp, so each
  // device's stamp inlines down to the matrix's taped add.

  /// Linear conductance between nodes a and b.
  void add_conductance(NodeId a, NodeId b, double g) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    add_entry(ia, ia, g);
    add_entry(ib, ib, g);
    add_entry(ia, ib, -g);
    add_entry(ib, ia, -g);
  }

  /// Independent current J injected into node n (flows from ground into n).
  void add_current_into(NodeId n, double j) { add_rhs(node_index(n), j); }

  /// Companion model of a nonlinear branch from p to m: current I = g v +
  /// ieq flows p -> m. Stamps the conductance and moves ieq to the RHS.
  void stamp_companion(NodeId p, NodeId m, double g, double ieq) {
    add_conductance(p, m, g);
    // ieq flows p -> m: extract it from p's injection, add to m's.
    add_rhs(node_index(p), -ieq);
    add_rhs(node_index(m), ieq);
  }

  /// Raw matrix access for aux rows/columns. Row/col indices are unknown
  /// indices: nodes occupy [0, node_unknowns), aux rows follow. Negative
  /// index (ground) contributions are dropped.
  void add_entry(int row, int col, double v) {
    if (row < 0 || col < 0) return;  // ground row/column is eliminated
    a_.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), v);
  }
  void add_rhs(int row, double v) {
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
  linalg::MatrixView a_;
  linalg::Vector& b_;
  int limited_ = 0;
};

}  // namespace icvbe::spice
