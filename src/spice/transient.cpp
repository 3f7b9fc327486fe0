#include "icvbe/spice/transient.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/error.hpp"
#include "icvbe/common/table.hpp"
#include "rows.hpp"

namespace icvbe::spice {

TransientSolver::TransientSolver(SimSession& session, TransientSpec spec)
    : session_(session),
      spec_(std::move(spec)),
      dynamic_(session.dynamic_devices()) {
  ICVBE_REQUIRE(spec_.tstep > 0.0, "TransientSolver: tstep must be > 0");
  ICVBE_REQUIRE(spec_.tstart >= 0.0, "TransientSolver: tstart must be >= 0");
  ICVBE_REQUIRE(spec_.tstop > spec_.tstart,
                "TransientSolver: tstop must be > tstart");
  ICVBE_REQUIRE(spec_.tmax >= 0.0, "TransientSolver: tmax must be >= 0");
  // Bounds the run; the parser reports the same check with the card's
  // line.
  ICVBE_REQUIRE(spec_.grid_points() <= kMaxGridPoints,
                "TransientSolver: time grid of more than 1e7 steps");
  tmax_ = spec_.tmax > 0.0 ? spec_.tmax : spec_.tstep;
  teps_ = 1e-9 * std::max(spec_.tstop, tmax_);
  h0_ = spec_.adaptive ? std::min(spec_.tstep, tmax_) / 10.0 : spec_.tstep;
  hmin_ = std::max(spec_.tstop * 1e-12, 1e-18);
}

TransientSolver::~TransientSolver() {
  if (!began_ || restored_) return;
  session_.end_transient();
  const auto& sources = session_.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i]->set_value(source_t0_[i]);
  }
  restored_ = true;
}

void TransientSolver::apply_sources(double t) {
  for (IndependentSource* s : waves_) s->set_value(s->waveform().value_at(t));
}

void TransientSolver::begin() {
  if (began_) return;
  Circuit& circuit = session_.circuit();

  // The operating point solves the DC system with the dynamic devices in
  // DC mode; waveform-driven sources are found once.
  session_.end_transient();
  waves_.clear();
  source_t0_.clear();
  for (IndependentSource* s : session_.sources()) {
    source_t0_.push_back(s->value());
    if (s->has_waveform()) waves_.push_back(s);
  }
  began_ = true;  // from here on the destructor restores

  // Breakpoints: waveform corners, deduplicated within teps_.
  breakpoints_.clear();
  for (IndependentSource* s : waves_) {
    s->waveform().append_breakpoints(spec_.tstop, breakpoints_);
  }
  std::sort(breakpoints_.begin(), breakpoints_.end());
  breakpoints_.erase(
      std::unique(breakpoints_.begin(), breakpoints_.end(),
                  [this](double a, double b) { return b - a <= teps_; }),
      breakpoints_.end());
  bp_index_ = 0;

  // Start point: UIC vector or operating point, then .IC overrides.
  apply_sources(0.0);
  const auto n = static_cast<std::size_t>(session_.unknown_count());
  if (spec_.uic) {
    x_now_ = Unknowns(n);
  } else {
    x_now_ = session_.solve_or_throw();  // copy out of session storage
  }
  for (const auto& [node, volts] : spec_.initial_conditions) {
    const NodeId id = circuit.find_node(node);
    if (id <= kGround) {
      throw CircuitError(".IC V(" + node + "): no node with that name");
    }
    x_now_.raw()[static_cast<std::size_t>(id - 1)] = volts;
  }
  for (DynamicDevice* d : dynamic_) d->imprint_ic(x_now_);
  for (DynamicDevice* d : dynamic_) d->init_state(x_now_);
  // The run's linear system, G_lin and C, built once from the devices'
  // values now (sim_session.hpp).
  session_.begin_transient();
  session_.transient_step(spec_.method, h0_);
  session_.seed_warm_start(x_now_);

  t_ = 0.0;
  h_next_ = h0_;
  for (auto& h : hist_x_) h = Unknowns(n);
  pred_ = Unknowns(n);
  hist_head_ = 0;
  hist_count_ = 0;
  push_history(0.0, x_now_);
}

void TransientSolver::push_history(double t, const Unknowns& x) {
  hist_head_ = (hist_head_ + 1) % 3;
  hist_t_[hist_head_] = t;
  hist_x_[hist_head_] = x;  // same-size copy, no allocation
  if (hist_count_ < 3) ++hist_count_;
}

double TransientSolver::predict(double h) {
  // P interpolates the need_history() newest accepted points; with their
  // Lagrange weights w at tc, P(tc) = sum_k w_k x_k, unknown by unknown.
  // Backward Euler's line leaves the oldest weight at 0.
  const double tc = t_ + h;
  const std::size_t points = need_history();
  std::size_t slot[3];
  double t[3];
  for (std::size_t k = 0; k < 3; ++k) {
    slot[k] = (hist_head_ + 3 - k) % 3;
    t[k] = hist_t_[slot[k]];
  }
  double w[3] = {0.0, 0.0, 0.0};
  double span = 1.0;  // prod_k (tc - t_k)
  for (std::size_t k = 0; k < points; ++k) {
    w[k] = 1.0;
    for (std::size_t j = 0; j < points; ++j) {
      if (j != k) w[k] *= (tc - t[j]) / (t[k] - t[j]);
    }
    span *= tc - t[k];
  }
  const double* x0 = hist_x_[slot[0]].raw().data();
  const double* x1 = hist_x_[slot[1]].raw().data();
  const double* x2 = hist_x_[slot[2]].raw().data();
  double* p = pred_.raw().data();
  for (std::size_t i = 0; i < pred_.size(); ++i) {
    p[i] = w[0] * x0[i] + w[1] * x1[i] + w[2] * x2[i];
  }
  // x_c - P(tc) = f[tc, t0, ...] * span, with f the divided difference
  // over the candidate and the history points. Trapezoidal: LTE ~
  // (h^3 / 12) |x'''| with x''' ~ 6 f[tc, t0, t1, t2]; backward Euler:
  // LTE ~ (h^2 / 2) |x''| with x'' ~ 2 f[tc, t0, t1].
  return (order() == 2 ? 0.5 * h * h * h : h * h) / span;
}

double TransientSolver::lte_ratio(const Unknowns& candidate, double c) const {
  const double* xc = candidate.raw().data();
  const double* p = pred_.raw().data();
  const double* x0 = hist_x_[hist_head_].raw().data();  // the point at t_
  const auto nodes =
      static_cast<std::size_t>(session_.circuit().node_count() - 1);
  double worst = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    const double tol =
        kLteAbstol + kLteReltol * std::max(std::abs(xc[i]), std::abs(x0[i]));
    worst = std::max(worst, c * std::abs(xc[i] - p[i]) / tol);
  }
  return worst;
}

bool TransientSolver::advance() {
  ICVBE_REQUIRE(began_, "TransientSolver::advance: call begin() first");
  if (t_ >= spec_.tstop - teps_) return false;

  const double exponent = -1.0 / static_cast<double>(order() + 1);
  double h = h_next_;
  for (int tries = 0; tries < 64; ++tries) {
    h = std::min({h, tmax_, spec_.tstop - t_});
    h = std::max(h, hmin_);
    // Never integrate across a waveform corner: land the step on it.
    bool hit_breakpoint = false;
    if (spec_.adaptive && bp_index_ < breakpoints_.size()) {
      const double bp = breakpoints_[bp_index_];
      if (t_ + h >= bp - teps_) {
        h = bp - t_;
        hit_breakpoint = true;
      }
    }

    const double t_candidate = t_ + h;
    apply_sources(t_candidate);
    // Right after t = 0 and after every breakpoint the committed state
    // derivative is the pre-discontinuity one; trapezoidal would average
    // it in and halve the response. Take that one step with backward
    // Euler, which only uses the state itself (adaptive runs only --
    // fixed-step runs are pure-method by contract, for the closed-form
    // tests).
    const IntegrationMethod step_method =
        (spec_.adaptive && restart_) ? IntegrationMethod::kBackwardEuler
                                     : spec_.method;
    session_.transient_step(step_method, h);
    // The history polynomial at t_candidate gives the error estimate and,
    // except right after a restart, the Newton start.
    const bool predicted = spec_.adaptive && hist_count_ >= need_history();
    const double lte_scale = predicted ? predict(h) : 0.0;
    const DcResult& r =
        session_.solve(predicted && !restart_ ? &pred_ : nullptr);
    newton_iterations_ += r.iterations;
    if (!r.converged) {
      if (h <= hmin_ * 1.0001) {
        throw NumericalError(
            "transient: Newton failed to converge at t = " +
            format_sig(t_candidate, 6) + " s with the minimum step");
      }
      ++rejected_;
      h *= 0.125;
      continue;
    }

    double ratio = 0.0;
    if (predicted) {
      ratio = lte_ratio(r.solution, lte_scale);
      if (ratio > 1.0) {
        if (h <= hmin_ * 1.0001) {
          throw NumericalError("transient: timestep too small at t = " +
                               format_sig(t_, 6) + " s");
        }
        ++rejected_;
        const double f =
            std::clamp(0.9 * std::pow(ratio, exponent), 0.1, 0.9);
        h = std::max(h * f, hmin_);
        continue;
      }
    }

    // Accept.
    t_ = t_candidate;
    x_now_ = r.solution;  // same-size copy
    for (DynamicDevice* d : dynamic_) d->commit(x_now_);
    push_history(t_, x_now_);
    ++accepted_;
    restart_ = hit_breakpoint;
    if (!spec_.adaptive) {
      h_next_ = spec_.tstep;
    } else if (hit_breakpoint) {
      ++bp_index_;
      h_next_ = h0_;  // restart small after a slope discontinuity
    } else if (!predicted) {
      h_next_ = h0_;  // not enough history to trust the estimate yet
    } else {
      const double f =
          ratio > 0.0
              ? std::clamp(0.9 * std::pow(ratio, exponent), 0.5, 2.0)
              : 2.0;
      h_next_ = std::clamp(h * f, hmin_, tmax_);
    }
    return true;
  }
  throw NumericalError("transient: step control failed to find an "
                       "acceptable step at t = " +
                       format_sig(t_, 6) + " s");
}

SweepResult TransientSolver::run(const std::vector<Probe>& probes,
                                 RunObserver* observer) {
  ICVBE_REQUIRE(!probes.empty(), "TransientSolver::run: need >= 1 probe");
  begin();

  // Reserve for a typical run, at most kMaxReservedRows, and let longer
  // runs grow: memory then follows the steps a run takes, not its grid
  // (a grid near kMaxGridPoints would reserve ~320 MB per column).
  constexpr double kMaxReservedRows = 4096.0;
  const auto estimate = static_cast<std::size_t>(std::min(
      (spec_.tstop - spec_.tstart) / spec_.tstep * 4.0 + 16.0,
      kMaxReservedRows));
  SweepResult::RowSink sink("transient", {"TIME"}, probes, {}, {}, observer,
                            estimate);

  // Compile once: per-timepoint recording then does no name lookups
  // (same discipline as the DC plan path).
  const CompiledProbeSet compiled(probes, session_.circuit());
  const auto record = [&] {
    sink.append(t_, [&](std::size_t p) { return compiled.eval(p, x_now_); });
  };
  if (spec_.tstart <= teps_) record();
  while (advance()) {
    if (t_ >= spec_.tstart - teps_) record();
  }
  return std::move(sink).take();
}

}  // namespace icvbe::spice
