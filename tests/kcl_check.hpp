#pragma once
// Independent KCL check for the engine tests: at every node of a returned
// solution, the currents flowing from the node into device terminals
// (Device::terminals) plus the gmin_floor shunt the sessions leave on
// every node must sum to zero. It calls no stamp() and applies no
// junction limiting, so a defect of the Newton loop cannot hide from it.

#include <algorithm>
#include <cmath>
#include <vector>

#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice::kcl {

struct KclResult {
  bool ok = true;
  NodeId worst_node = kGround;  ///< node with the largest residual/bound
  double residual = 0.0;        ///< |sum of currents| at worst_node [A]
  double bound = 0.0;           ///< its tolerance [A]
};

/// A node fails if |sum I| > reltol * max|I| + i_abstol, where max|I| is
/// the largest single current at that node.
inline KclResult check_kcl(const Circuit& circuit, const Unknowns& x,
                           const NewtonOptions& options = {}) {
  const auto nodes = static_cast<std::size_t>(circuit.node_count());
  std::vector<double> sum(nodes, 0.0);
  std::vector<double> peak(nodes, 0.0);
  const auto add = [&](NodeId n, double amps) {
    const auto k = static_cast<std::size_t>(n);
    sum[k] += amps;
    peak[k] = std::max(peak[k], std::abs(amps));
  };
  for (const auto& dev : circuit.devices()) {
    const Terminals t = dev->terminals(x);
    for (int k = 0; k < t.count; ++k) add(t.pin[k].node, t.pin[k].amps);
  }
  KclResult r;
  double worst_ratio = -1.0;
  for (NodeId n = 1; n < circuit.node_count(); ++n) {
    add(n, options.gmin_floor * x.node_voltage(n));
    const auto k = static_cast<std::size_t>(n);
    const double residual = std::abs(sum[k]);
    const double bound = options.reltol * peak[k] + options.i_abstol;
    // A NaN residual fails too: the comparison below is written so that
    // it cannot pass one.
    const double ratio = std::isnan(residual) ? HUGE_VAL : residual / bound;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      r = {!(ratio > 1.0), n, residual, bound};
    }
  }
  return r;
}

}  // namespace icvbe::spice::kcl
