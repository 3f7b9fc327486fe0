#include "icvbe/spice/sim_session.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::spice {

SimSession::SimSession(Circuit& circuit, NewtonOptions options)
    : circuit_(&circuit), options_(options) {
  rebind();
}

void SimSession::rebind() {
  n_unknowns_ = circuit_->assign_unknowns();
  node_unknowns_ = circuit_->node_count() - 1;
  ICVBE_REQUIRE(n_unknowns_ > 0, "SimSession: circuit has no unknowns");
  bound_device_count_ = circuit_->devices().size();

  // The linear prefix: the devices before the first nonlinear one, which
  // newton_attempt stamps once per attempt (see there). Parsed decks
  // instantiate semiconductors last, so there it is every linear device.
  const auto& devices = circuit_->devices();
  linear_prefix_ = linear_prefix(*circuit_);

  const auto n = static_cast<std::size_t>(n_unknowns_);
  b_.assign(n, 0.0);
  b_linear_.assign(n, 0.0);
  x_ = Unknowns(n);
  x_stage_ = Unknowns(n);
  result_.solution = Unknowns(n);
  have_last_ = false;

  slu_ = linalg::SparseLuFactorization();
  // Pattern discovery: one stamp pass registers every (row, col) a device
  // can touch -- stamped values are irrelevant (a zero value still
  // registers its slot), so the zero iterate works. The gmin diagonal
  // slots are part of the pattern too.
  sa_.resize(n, n);
  Stamper st(sa_, b_, node_unknowns_);
  for (const auto& dev : devices) dev->stamp(st, x_);
  for (int i = 0; i < node_unknowns_; ++i) st.add_entry(i, i, 0.0);
  sa_.freeze_pattern();
  // The discovery pass ran device limiting at the zero iterate; wipe that
  // memory and the scratch RHS so the first real solve starts clean.
  for (const auto& dev : circuit_->devices()) dev->reset_state();
  std::fill(b_.begin(), b_.end(), 0.0);

  // Release the complex AC engine; the next solve_ac() rebuilds it at the
  // new size (and re-discovers the pattern).
  ac_ready_ = false;
  cb_ = linalg::ComplexVector();
  csa_ = linalg::ComplexSparseMatrix();
  cslu_ = linalg::ComplexSparseLuFactorization();

  sources_.clear();
  for (const auto& dev : circuit_->devices()) {
    if (auto* s = dynamic_cast<IndependentSource*>(dev.get())) {
      sources_.push_back(s);
    }
  }
  source_base_.assign(sources_.size(), 0.0);
}

void SimSession::begin_variant() {
  invalidate_warm_start();
  for (auto& d : circuit_->devices()) d->reset_state();
}

void SimSession::prime() {
  std::fill(x_.raw().begin(), x_.raw().end(), 0.0);
  try {
    pin_analysis(*circuit_, linear_prefix_, node_unknowns_,
                 options_.gmin_floor, have_last_ ? result_.solution : x_, sa_,
                 b_, slu_);
  } catch (const NumericalError&) {
    // Left invalidated: deterministic too (see the declaration).
  }
}

void pin_analysis(Circuit& circuit, std::size_t linear_prefix,
                  int node_unknowns, double gmin, const Unknowns& x,
                  linalg::SparseMatrix& a, linalg::Vector& b,
                  linalg::SparseLuFactorization& lu) {
  a.fill(0.0);
  std::fill(b.begin(), b.end(), 0.0);
  Stamper st(a, b, node_unknowns);
  const auto& devices = circuit.devices();
  for (std::size_t d = 0; d < linear_prefix; ++d) devices[d]->stamp(st, x);
  stamp_gmin(st, node_unknowns, gmin);
  for (std::size_t d = linear_prefix; d < devices.size(); ++d) {
    devices[d]->stamp(st, x);
  }
  for (const auto& dev : devices) dev->reset_state();
  lu.invalidate_analysis();
  lu.refactor(a);
}

void SimSession::seed_warm_start(const Unknowns& x) {
  if (x.size() == static_cast<std::size_t>(n_unknowns_)) {
    x_ = x;  // same-size copy, no reallocation
    result_.solution = x;
    have_last_ = true;
  }
}

std::size_t linear_prefix(const Circuit& circuit) {
  const auto& devices = circuit.devices();
  return static_cast<std::size_t>(
      std::find_if(devices.begin(), devices.end(),
                   [](const auto& d) { return d->is_nonlinear(); }) -
      devices.begin());
}

NewtonStep newton_update(const NewtonOptions& opt, int node_unknowns,
                         bool first_iteration, const double* x_new,
                         std::size_t stride, Unknowns& x) {
  const auto n_unknowns = x.size();
  const auto nodes = static_cast<std::size_t>(node_unknowns);
  double* xv = x.raw().data();

  double max_node_dx = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    max_node_dx = std::max(max_node_dx, std::abs(x_new[i * stride] - xv[i]));
  }
  double scale = 1.0;
  if (max_node_dx > opt.max_step_volts) {
    scale = opt.max_step_volts / max_node_dx;
  }

  // Finiteness is tested on every entry: a NaN fails no max() and no
  // `dx > tol`, so neither the step scale nor the tolerance test sees it.
  bool converged = !first_iteration;
  bool finite = true;
  for (std::size_t i = 0; i < n_unknowns; ++i) {
    const double xi = xv[i];
    const double xn = xi + scale * (x_new[i * stride] - xi);
    const double dx = std::abs(xn - xi);
    const double abstol = (i < nodes) ? opt.v_abstol : opt.i_abstol;
    const double tol =
        abstol + opt.reltol * std::max(std::abs(xi), std::abs(xn));
    if (dx > tol) converged = false;
    finite &= std::isfinite(xn);
    xv[i] = xn;
  }
  if (!finite) return NewtonStep::kDiverged;
  return converged && scale == 1.0 ? NewtonStep::kConverged
                                   : NewtonStep::kContinue;
}

bool SimSession::newton_attempt(double gmin, Unknowns& x, int& iterations,
                                bool repivot) {
  const int node_unknowns = node_unknowns_;
  const NewtonOptions& opt = options_;
  const auto& devices = circuit_->devices();
  Stamper st(sa_, b_, node_unknowns);

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    ++iterations;
    // A linear device stamps the same values at every iterate, and what
    // changes those values (a source value, the timestep, a temperature,
    // a PATCH) changes only between attempts; so does the gmin diagonal.
    // So iteration 0 stamps the linear prefix and the gmin diagonal and
    // checkpoints the system; later iterations restore it. Either way the
    // remaining devices follow in device order, so every slot sums its
    // adds as a full restamp in that order would (BatchDcSession stamps
    // gmin at the same position).
    if (iter == 0) {
      sa_.fill(0.0);
      std::fill(b_.begin(), b_.end(), 0.0);
      for (std::size_t d = 0; d < linear_prefix_; ++d) {
        devices[d]->stamp(st, x);
      }
      stamp_gmin(st, node_unknowns, gmin);
      sa_.checkpoint();
      std::copy(b_.begin(), b_.end(), b_linear_.begin());
    } else {
      sa_.restore_checkpoint();
      std::copy(b_linear_.begin(), b_linear_.end(), b_.begin());
    }
    for (std::size_t d = linear_prefix_; d < devices.size(); ++d) {
      devices[d]->stamp(st, x);
    }

    try {
      if (repivot) slu_.invalidate_analysis();
      slu_.refactor(sa_);
    } catch (const NumericalError&) {
      return false;
    }
    slu_.solve_in_place(b_);
    const NewtonStep step =
        newton_update(opt, node_unknowns, iter == 0, b_.data(), 1, x);
    if (step != NewtonStep::kContinue) return step == NewtonStep::kConverged;
  }
  return false;
}

void SimSession::scale_sources(double lambda) {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->set_value(lambda * source_base_[i]);
  }
}

const DcResult& SimSession::solve(const Unknowns* initial) {
  if (circuit_->devices().size() != bound_device_count_) {
    throw CircuitError("SimSession: circuit topology changed; call rebind()");
  }

  result_.converged = false;
  result_.iterations = 0;
  result_.strategy.clear();

  // Choose the start point: explicit initial > warm-start continuation >
  // cold (all zeros).
  const auto load_start = [&] {
    if (initial != nullptr &&
        initial->size() == static_cast<std::size_t>(n_unknowns_)) {
      x_ = *initial;
    } else if (have_last_) {
      x_ = result_.solution;
    } else {
      std::fill(x_.raw().begin(), x_.raw().end(), 0.0);
    }
  };
  load_start();

  // Strategy 1: plain Newton at the floor gmin, along the cached pivot
  // order. A pivot frozen at an earlier iterate can shrink by orders of
  // magnitude without failing the LU's singularity screen and leave the
  // solves too inaccurate to converge, so a failed attempt is retried
  // once from the same start with fresh pivots every iteration -- what a
  // dense partial-pivoting LU does -- before the gmin ladder.
  bool plain = newton_attempt(options_.gmin_floor, x_, result_.iterations);
  if (!plain) {
    load_start();
    for (const auto& dev : circuit_->devices()) dev->reset_state();
    plain = newton_attempt(options_.gmin_floor, x_, result_.iterations,
                           /*repivot=*/true);
  }
  if (plain) {
    result_.solution = x_;
    result_.converged = true;
    result_.strategy = "newton";
    have_last_ = true;
    return result_;
  }

  // Strategy 2: gmin stepping, warm-starting each stage.
  {
    std::fill(x_stage_.raw().begin(), x_stage_.raw().end(), 0.0);
    bool ok = true;
    double gmin = 1e-2;
    for (int step = 0; step <= options_.gmin_steps; ++step) {
      for (const auto& dev : circuit_->devices()) dev->reset_state();
      if (!newton_attempt(gmin, x_stage_, result_.iterations)) {
        ok = false;
        break;
      }
      if (gmin <= options_.gmin_floor) break;
      gmin = std::max(gmin * 0.04, options_.gmin_floor);
    }
    if (ok) {
      result_.solution = x_stage_;
      result_.converged = true;
      result_.strategy = "gmin";
      have_last_ = true;
      return result_;
    }
  }

  // Strategy 3: source stepping at floor gmin.
  {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      source_base_[i] = sources_[i]->value();
    }
    // Restore the nominal source values on every exit path, including an
    // exception escaping the loop (the guarantee the legacy RAII
    // SourceScaler gave): a long-lived session must never leak a scaled
    // circuit into subsequent solves.
    struct RestoreSources {
      SimSession* session;
      ~RestoreSources() { session->scale_sources(1.0); }
    } restore{this};
    std::fill(x_stage_.raw().begin(), x_stage_.raw().end(), 0.0);
    bool ok = true;
    for (int step = 1; step <= options_.source_steps; ++step) {
      const double lambda = static_cast<double>(step) /
                            static_cast<double>(options_.source_steps);
      scale_sources(lambda);
      for (const auto& dev : circuit_->devices()) dev->reset_state();
      if (!newton_attempt(options_.gmin_floor, x_stage_,
                          result_.iterations)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      result_.solution = x_stage_;
      result_.converged = true;
      result_.strategy = "source";
      have_last_ = true;
      return result_;
    }
  }

  return result_;  // converged == false
}

const linalg::ComplexVector& SimSession::solve_ac(double omega) {
  if (circuit_->devices().size() != bound_device_count_) {
    throw CircuitError("SimSession: circuit topology changed; call rebind()");
  }
  // The small-signal system linearises about a committed operating point:
  // the last converged solution, a seeded warm start (the parallel AC
  // sweep workers' path -- they inherit the parent's OP verbatim so every
  // thread count produces bit-identical phasors), or a fresh OP solve.
  if (!have_last_) (void)solve_or_throw();
  const Unknowns& op = result_.solution;

  const auto n = static_cast<std::size_t>(n_unknowns_);
  if (!ac_ready_) {
    cb_.assign(n, linalg::Complex{});
    // Pattern discovery, mirroring the real engine: one stamp_ac pass
    // registers every slot (zero values included), gmin diagonal too.
    csa_.resize(n, n);
    AcStamper st(csa_, cb_, node_unknowns_, omega);
    for (const auto& dev : circuit_->devices()) dev->stamp_ac(st, op);
    for (int i = 0; i < node_unknowns_; ++i) {
      st.add_entry(i, i, linalg::Complex{});
    }
    csa_.freeze_pattern();
    std::fill(cb_.begin(), cb_.end(), linalg::Complex{});
    ac_ready_ = true;
  }

  const auto stamp_at = [&](double w) {
    csa_.fill(linalg::Complex{});
    std::fill(cb_.begin(), cb_.end(), linalg::Complex{});
    AcStamper st(csa_, cb_, node_unknowns_, w);
    for (const auto& dev : circuit_->devices()) dev->stamp_ac(st, op);
    for (int i = 0; i < node_unknowns_; ++i) {
      st.add_entry(i, i, linalg::Complex(options_.gmin_floor));
    }
  };

  // Bit-identity discipline: the cached symbolic analysis belongs to the
  // first stamped frequency (the sweep's prime). If a previous point's
  // refactor collapsed the frozen pivots and re-analysed at its own
  // frequency, re-pin a fresh analysis at the prime before this point --
  // every point's factorisation then depends only on (op, omega, prime
  // omega), never on sweep order or which parallel worker tripped the
  // collapse.
  const bool primed = cslu_.analysis_count() > 0;
  if (primed && cslu_.analysis_count() != ac_pinned_analysis_) {
    cslu_.invalidate_analysis();
    stamp_at(ac_prime_omega_);
    cslu_.refactor(csa_);
    ac_pinned_analysis_ = cslu_.analysis_count();
  }
  stamp_at(omega);
  cslu_.refactor(csa_);
  if (!primed) {
    ac_prime_omega_ = omega;
    ac_pinned_analysis_ = cslu_.analysis_count();
  }
  cslu_.solve_in_place(cb_);
  return cb_;
}

const Unknowns& SimSession::solve_or_throw(const Unknowns* initial) {
  const DcResult& r = solve(initial);
  if (!r.converged) {
    throw NumericalError("DC operating point failed to converge after " +
                         std::to_string(r.iterations) + " iterations");
  }
  return r.solution;
}

}  // namespace icvbe::spice
