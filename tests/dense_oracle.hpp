#pragma once
// Dense reference solver for the engine tests: stamps a circuit through the
// ordinary Stamper into a building-mode linalg::SparseMatrix, densifies it
// with to_dense() and solves with the dense linalg::LuFactorizationT (its
// complex twin for AC) -- an independent assembly and linear-algebra path
// the sessions' sparse engine is checked against. Plain damped Newton with
// a gmin-ramp fallback; speed and allocations do not matter here.
//
// Bind the oracle to its own parse of the deck under test: unknown
// numbering is deterministic, so its solution vectors compare index by
// index with a session's on a second parse.

#include <algorithm>
#include <cmath>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/dynamic_devices.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::spice::oracle {

class DenseOracle {
 public:
  DenseOracle(Circuit& circuit, NewtonOptions options)
      : c_(circuit),
        opt_(options),
        n_(static_cast<std::size_t>(circuit.assign_unknowns())),
        nodes_(circuit.node_count() - 1),
        x_(n_) {}

  /// DC operating point at the circuit's current state, warm-started from
  /// the previous solution (cold the first time). Throws NumericalError if
  /// Newton fails even along the gmin ramp.
  const Unknowns& solve() {
    if (newton(opt_.gmin_floor, x_)) return x_;
    x_ = Unknowns(n_);
    for (double gmin = 1e-2;; gmin = std::max(0.1 * gmin, opt_.gmin_floor)) {
      for (const auto& dev : c_.devices()) dev->reset_state();
      if (!newton(gmin, x_)) {
        throw NumericalError("dense oracle: DC did not converge");
      }
      if (gmin == opt_.gmin_floor) return x_;
    }
  }

  [[nodiscard]] const Unknowns& solution() const { return x_; }

  /// Small-signal phasors at angular frequency `omega` about `op` (pass a
  /// session's solved operating point, so a comparison measures assembly
  /// and LU, not two Newton endpoints): the dense G + j*omega*C from the
  /// device methods the engine uses -- stamp() at `op` plus gmin on every
  /// node, stamp_reactive(), add_ac_stimulus() -- solved by dense complex
  /// LU. The devices are stamped at `op` until no junction limits there,
  /// so G is the Jacobian at `op` whatever limiting state they held.
  [[nodiscard]] linalg::ComplexVector solve_ac(const Unknowns& op,
                                               double omega) {
    linalg::SparseMatrix g;
    linalg::Vector b(n_, 0.0);
    for (int pass = 0;; ++pass) {
      g = linalg::SparseMatrix(n_, n_);
      Stamper st(g, b, nodes_);
      for (const auto& dev : c_.devices()) dev->stamp(st, op);
      if (st.limited() == 0) break;
      if (pass == 100) {
        throw NumericalError("dense oracle: junctions still limit at op");
      }
    }
    linalg::SparseMatrix c(n_, n_);
    Stamper reactive(c, b, nodes_);
    linalg::ComplexVector x(n_, linalg::Complex{});
    for (const auto& dev : c_.devices()) {
      if (const auto* d = dynamic_cast<const DynamicDevice*>(dev.get())) {
        d->stamp_reactive(reactive);
      } else if (const auto* s =
                     dynamic_cast<const IndependentSource*>(dev.get())) {
        s->add_ac_stimulus(x);
      }
    }
    g.freeze_pattern();
    c.freeze_pattern();
    const linalg::Matrix gd = g.to_dense();
    const linalg::Matrix cd = c.to_dense();
    linalg::ComplexMatrix a(n_, n_);
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t k = 0; k < n_; ++k) {
        a(r, k) = linalg::Complex(gd(r, k), omega * cd(r, k));
      }
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(nodes_); ++i) {
      a(i, i) += opt_.gmin_floor;
    }
    linalg::ComplexLuFactorization lu;
    lu.refactor(a);
    lu.solve_in_place(x);
    return x;
  }

  /// Fixed-step transient (spec.adaptive == false, no UIC or .IC): the
  /// TransientSolver sequence without step control -- operating point at
  /// t = 0, companion state from it, then per step the waveforms at t + h,
  /// begin_step(method, alpha/h), a solve of the DC stamp plus (alpha/h)
  /// times the dense C from stamp_reactive(), and commit. Returns the solution
  /// at t = 0 and after every step.
  [[nodiscard]] std::vector<Unknowns> fixed_step_transient(
      const TransientSpec& spec) {
    std::vector<DynamicDevice*> dynamic;
    std::vector<IndependentSource*> waves;
    for (const auto& dev : c_.devices()) {
      if (auto* d = dynamic_cast<DynamicDevice*>(dev.get())) {
        d->set_dc_mode();
        dynamic.push_back(d);
      } else if (auto* s = dynamic_cast<IndependentSource*>(dev.get())) {
        if (s->has_waveform()) waves.push_back(s);
      }
    }
    const auto apply_sources = [&](double t) {
      for (IndependentSource* s : waves) {
        s->set_value(s->waveform().value_at(t));
      }
    };
    const double tmax = spec.tmax > 0.0 ? spec.tmax : spec.tstep;
    const double teps = 1e-9 * std::max(spec.tstop, tmax);

    linalg::SparseMatrix c(n_, n_);
    linalg::Vector unused(n_, 0.0);
    Stamper reactive(c, unused, nodes_);
    for (const DynamicDevice* d : dynamic) d->stamp_reactive(reactive);
    c.freeze_pattern();
    c_dense_ = c.to_dense();

    apply_sources(0.0);
    std::vector<Unknowns> out{solve()};
    for (DynamicDevice* d : dynamic) d->init_state(x_);
    for (double t = 0.0; t < spec.tstop - teps;) {
      const double h = std::min({spec.tstep, tmax, spec.tstop - t});
      t += h;
      apply_sources(t);
      c_scale_ =
          (spec.method == IntegrationMethod::kTrapezoidal ? 2.0 : 1.0) / h;
      for (DynamicDevice* d : dynamic) d->begin_step(spec.method, c_scale_);
      out.push_back(solve());
      for (DynamicDevice* d : dynamic) d->commit(x_);
    }
    c_scale_ = 0.0;
    for (DynamicDevice* d : dynamic) d->set_dc_mode();
    return out;
  }

 private:
  /// Damped Newton at fixed gmin from `x` (in/out); true on convergence.
  bool newton(double gmin, Unknowns& x) {
    for (int iter = 0; iter < opt_.max_iterations; ++iter) {
      linalg::SparseMatrix a(n_, n_);
      linalg::Vector b(n_, 0.0);
      Stamper st(a, b, nodes_);
      for (const auto& dev : c_.devices()) dev->stamp(st, x);
      for (int i = 0; i < nodes_; ++i) st.add_entry(i, i, gmin);
      a.freeze_pattern();
      linalg::Matrix ad = a.to_dense();
      if (c_scale_ != 0.0) {
        for (std::size_t r = 0; r < n_; ++r) {
          for (std::size_t k = 0; k < n_; ++k) {
            ad(r, k) += c_scale_ * c_dense_(r, k);
          }
        }
      }
      linalg::LuFactorization lu;
      try {
        lu.refactor(ad);
      } catch (const NumericalError&) {
        return false;
      }
      lu.solve_in_place(b);

      double max_node_dx = 0.0;
      for (int i = 0; i < nodes_; ++i) {
        const auto k = static_cast<std::size_t>(i);
        max_node_dx = std::max(max_node_dx, std::abs(b[k] - x.raw()[k]));
      }
      const double scale =
          max_node_dx > kMaxStepVolts ? kMaxStepVolts / max_node_dx : 1.0;
      // The sessions' noncon rule: an iteration whose stamps limited a
      // junction is not converged.
      bool converged = iter > 0 && scale == 1.0 && st.limited() == 0;
      for (std::size_t i = 0; i < n_; ++i) {
        const double xi = x.raw()[i];
        const double xn = xi + scale * (b[i] - xi);
        const double abstol = static_cast<int>(i) < nodes_ ? opt_.v_abstol
                                                           : opt_.i_abstol;
        if (std::abs(xn - xi) >
            abstol + opt_.reltol * std::max(std::abs(xi), std::abs(xn))) {
          converged = false;
        }
        if (!std::isfinite(xn)) return false;
        x.raw()[i] = xn;
      }
      if (converged) return true;
    }
    return false;
  }

  Circuit& c_;
  NewtonOptions opt_;
  std::size_t n_;
  int nodes_;
  Unknowns x_;
  /// alpha/h of the transient step being solved (0: a DC solve) and the
  /// dense C it multiplies.
  double c_scale_ = 0.0;
  linalg::Matrix c_dense_;
};

}  // namespace icvbe::spice::oracle
