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

  // The linear prefix: the devices before the first nonlinear one, whose
  // stamp is the linear part (build_linear). Parsed decks instantiate
  // semiconductors last, so there it is every linear device.
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

  // Release the AC engine and C; the next solve_ac() or transient run
  // rebuilds them on the new pattern.
  c_ = linalg::SparseMatrix();
  linear_ = Linear();
  linear_.b.assign(n, 0.0);
  small_signal_ = SmallSignal();
  ac_linearised_ = false;
  ac_ = AcEngine();

  sources_.clear();
  dynamic_.clear();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    auto* source = dynamic_cast<IndependentSource*>(devices[d].get());
    auto* dynamic = dynamic_cast<DynamicDevice*>(devices[d].get());
    if (source != nullptr) sources_.push_back(source);
    if (dynamic != nullptr) dynamic_.push_back(dynamic);
    if (d >= linear_prefix_) continue;
    linear_.per_attempt.push_back(source != nullptr || dynamic != nullptr);
    if (source != nullptr) linear_.sources.push_back(source);
    if (dynamic != nullptr) linear_.history.push_back(dynamic);
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

void stamp_in_newton_order(Circuit& circuit, std::size_t linear_prefix,
                           int node_unknowns, double gmin, const Unknowns& x,
                           linalg::SparseMatrix& a, linalg::Vector& b) {
  a.fill(0.0);
  std::fill(b.begin(), b.end(), 0.0);
  Stamper st(a, b, node_unknowns);
  const auto& devices = circuit.devices();
  for (std::size_t d = 0; d < linear_prefix; ++d) devices[d]->stamp(st, x);
  stamp_gmin(st, node_unknowns, gmin);
  for (std::size_t d = linear_prefix; d < devices.size(); ++d) {
    devices[d]->stamp(st, x);
  }
}

void pin_analysis(Circuit& circuit, std::size_t linear_prefix,
                  int node_unknowns, double gmin, const Unknowns& x,
                  linalg::SparseMatrix& a, linalg::Vector& b,
                  linalg::SparseLuFactorization& lu) {
  stamp_in_newton_order(circuit, linear_prefix, node_unknowns, gmin, x, a,
                        b);
  for (const auto& dev : circuit.devices()) dev->reset_state();
  lu.invalidate_analysis();
  lu.refactor(a);
}

void SimSession::seed_warm_start(const Unknowns& x) {
  if (x.size() == static_cast<std::size_t>(n_unknowns_)) {
    x_ = x;  // same-size copy, no reallocation
    result_.solution = x;
    result_.converged = false;  // a start point, not an operating point
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
                         bool first_iteration, bool limited,
                         const double* x_new, std::size_t stride,
                         Unknowns& x) {
  const auto n_unknowns = x.size();
  const auto nodes = static_cast<std::size_t>(node_unknowns);
  double* xv = x.raw().data();

  double max_node_dx = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    max_node_dx = std::max(max_node_dx, std::abs(x_new[i * stride] - xv[i]));
  }
  double scale = 1.0;
  if (max_node_dx > kMaxStepVolts) {
    scale = kMaxStepVolts / max_node_dx;
  }

  // Finiteness is tested on every entry: a NaN fails no max() and no
  // `dx > tol`, so neither the step scale nor the tolerance test sees it.
  bool converged = !first_iteration && !limited;
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

bool SimSession::newton_attempt(double gmin, Unknowns& x, int& iterations) {
  const int node_unknowns = node_unknowns_;
  const NewtonOptions& opt = options_;
  const auto& devices = circuit_->devices();
  if (!linear_.transient || gmin != linear_.gmin) build_linear(gmin);
  const linalg::Vector& linear = linear_.transient ? linear_.a : linear_.g;
  Stamper st(sa_, b_, node_unknowns);

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    ++iterations;
    // Every iteration starts from the linear part and the tape cursor
    // after it, and the remaining devices follow in device order, so every
    // slot sums its adds as a full restamp in that order would
    // (BatchDcSession stamps gmin at the same position). What the linear
    // part leaves out of the RHS changes only between attempts: iteration
    // 0 writes the sources' RHS and, in a transient run, the dynamic
    // devices' history, and later iterations copy that RHS back.
    sa_.load_values(linear, linear_.cursor);
    if (iter == 0) {
      std::copy(linear_.b.begin(), linear_.b.end(), b_.begin());
      Stamper rhs(linalg::MatrixView::discard(b_.size()), b_, node_unknowns);
      for (Device* d : linear_.sources) d->stamp(rhs, x);
      if (linear_.transient) {
        for (const DynamicDevice* d : linear_.history) d->stamp_history(rhs);
      }
      std::copy(b_.begin(), b_.end(), b_linear_.begin());
    } else {
      std::copy(b_linear_.begin(), b_linear_.end(), b_.begin());
    }
    const int limited_before = st.limited();
    for (std::size_t d = linear_prefix_; d < devices.size(); ++d) {
      devices[d]->stamp(st, x);
    }

    try {
      slu_.refactor(sa_);
    } catch (const NumericalError&) {
      return false;
    }
    slu_.solve_in_place(b_);
    const NewtonStep step =
        newton_update(opt, node_unknowns, iter == 0,
                      st.limited() != limited_before, b_.data(), 1, x);
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
  ac_linearised_ = false;

  // Choose the start point: explicit initial > warm-start continuation >
  // cold (all zeros).
  if (initial != nullptr &&
      initial->size() == static_cast<std::size_t>(n_unknowns_)) {
    x_ = *initial;
  } else if (have_last_) {
    x_ = result_.solution;
  } else {
    std::fill(x_.raw().begin(), x_.raw().end(), 0.0);
  }

  // Strategy 1: plain Newton at the floor gmin, along the cached pivot
  // order.
  if (newton_attempt(options_.gmin_floor, x_, result_.iterations)) {
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
    for (int step = 0; step <= kGminSteps; ++step) {
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
    for (int step = 1; step <= kSourceSteps; ++step) {
      const double lambda =
          static_cast<double>(step) / static_cast<double>(kSourceSteps);
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

void SimSession::build_linear(double gmin) {
  // The linear prefix and the gmin diagonal from zero, so the tape cursor
  // after them is the one every iteration resumes the rest of the devices
  // at. The per-attempt devices' RHS lands in the scratch b_ and is
  // written again by each attempt; the other devices' RHS is kept in b.
  sa_.fill(0.0);
  std::fill(linear_.b.begin(), linear_.b.end(), 0.0);
  Stamper fixed(sa_, linear_.b, node_unknowns_);
  Stamper varying(sa_, b_, node_unknowns_);
  const auto& devices = circuit_->devices();
  for (std::size_t d = 0; d < linear_prefix_; ++d) {
    devices[d]->stamp(linear_.per_attempt[d] ? varying : fixed, x_);
  }
  stamp_gmin(fixed, node_unknowns_, gmin);
  linear_.g.assign(sa_.values().begin(), sa_.values().end());
  linear_.cursor = sa_.tape().cursor();
  linear_.gmin = gmin;
  if (linear_.transient) form_transient();
}

void SimSession::form_transient() {
  const std::vector<double>& c = c_.values();
  linear_.a.resize(c.size());
  for (std::size_t k = 0; k < c.size(); ++k) {
    linear_.a[k] = linear_.g[k] + linear_.s * c[k];
  }
}

void SimSession::begin_transient() {
  stamp_reactive();
  build_linear(options_.gmin_floor);
  linear_.transient = true;
  linear_.s = std::nan("");
}

void SimSession::transient_step(IntegrationMethod method, double h) {
  ICVBE_REQUIRE(linear_.transient,
                "SimSession::transient_step: begin_transient() first");
  const double s = companion_scale(method, h);
  for (DynamicDevice* d : dynamic_) d->begin_step(method, s);
  if (s == linear_.s) return;
  linear_.s = s;
  form_transient();
}

void SimSession::end_transient() noexcept {
  linear_.transient = false;
  for (DynamicDevice* d : dynamic_) d->set_dc_mode();
}

void SimSession::stamp_reactive() {
  // A copy of sa_ the first time, whose stamp tape re-records the
  // reactive sequence once.
  if (c_.pattern_stamp() != sa_.pattern_stamp()) c_ = sa_;
  c_.fill(0.0);
  Stamper st(c_, b_, node_unknowns_);
  for (const DynamicDevice* d : dynamic_) d->stamp_reactive(st);
}

const linalg::ComplexVector& SimSession::solve_ac(double omega) {
  if (circuit_->devices().size() != bound_device_count_) {
    throw CircuitError("SimSession: circuit topology changed; call rebind()");
  }
  if (!have_last_ || !result_.converged) (void)solve_or_throw();
  if (!ac_linearised_) linearise_ac();
  return ac_.solve(small_signal_, omega);
}

void SimSession::linearise_ac() {
  // G: the DC stamp at the OP, in a Newton iteration's order, its RHS
  // thrown away. A solved OP's stamp is not limited, so each junction's
  // limiting state ends where the next warm solve's first iteration would
  // put it; nothing is reset and nothing is refactored.
  stamp_in_newton_order(*circuit_, linear_prefix_, node_unknowns_,
                        options_.gmin_floor, result_.solution, sa_, b_);
  SmallSignal& ss = small_signal_;
  ss.g.assign(sa_.values().begin(), sa_.values().end());
  stamp_reactive();
  ss.c = &c_;

  ss.rhs.assign(static_cast<std::size_t>(n_unknowns_), linalg::Complex{});
  for (const IndependentSource* s : sources_) s->add_ac_stimulus(ss.rhs);
  ac_linearised_ = true;
}

const linalg::ComplexVector& SimSession::AcEngine::solve(
    const SmallSignal& system, double omega) {
  const std::vector<double>& c = system.c->values();
  a_.resize(c.size());
  const auto fill_at = [&](double w) {
    for (std::size_t k = 0; k < a_.size(); ++k) {
      a_[k] = linalg::Complex(system.g[k], w * c[k]);
    }
  };
  if (!prime_omega_) prime_omega_ = omega;
  if (lu_.analysis_count() != pinned_analysis_) {
    lu_.invalidate_analysis();
    fill_at(*prime_omega_);
    lu_.refactor(*system.c, a_);
    pinned_analysis_ = lu_.analysis_count();
  }
  fill_at(omega);
  lu_.refactor(*system.c, a_);
  x_.assign(system.rhs.begin(), system.rhs.end());
  lu_.solve_in_place(x_);
  return x_;
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
