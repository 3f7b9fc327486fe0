#pragma once
// TransientSolver: time-domain (.TRAN) analysis on top of a SimSession.
//
// The solver initialises the companion state of every DynamicDevice
// (capacitor, inductor) of the bound circuit from an operating-point solve
// (or the UIC vector), has the session build the run's linear system
// G_lin and C once (SimSession::begin_transient), and then advances time
// with the session's allocation-free Newton inner loop: per timestep it
// applies the source waveforms at the candidate time, sets the step
// (SimSession::transient_step: the devices' history terms for (method, h)
// and the matrix G_lin + (alpha/h)*C), and calls SimSession::solve().
//
// One history polynomial serves each step twice (a predictor-corrector
// pair, Brayton, Gustavson and Hachtel, Proc. IEEE 60(1), 1972): P, the
// quadratic through the three newest accepted points for trapezoidal (the
// line through two for backward Euler), evaluated at the candidate time.
//  * Predictor: on adaptive runs the step's Newton starts from P, not
//    from the previous timepoint -- except on the first step after t = 0
//    or a breakpoint, where P would extrapolate across a slope
//    discontinuity. Fixed-step runs start from the previous timepoint.
//  * Error estimate: the candidate's local truncation error is
//    c |x_c - P| (order h^2 v'' for backward Euler, h^3 v''' for
//    trapezoidal; see lte_ratio). Steps whose error ratio exceeds 1 are
//    rejected and retried smaller, and accepted steps grow up to 2x while
//    the error stays low. A step still rejected at the minimum step
//    (tstop * 1e-12, at least 1e-18 s) ends the run with NumericalError ("timestep too
//    small", as SPICE3's DCtran): accepting it would march on at that
//    step, and a run whose estimate never passes would never end.
// Waveform corner times (PULSE edges, PWL knots) are breakpoints: a step
// never integrates across one, and stepping restarts small right after
// it. The whole sequence is plain double arithmetic with no time-of-day
// or RNG input, so the accepted-step sequence is deterministic (asserted
// by test_tran).
//
// Lifetime: the solver restores DC mode on the dynamic devices and the
// t = 0 source values when destroyed, so a session can go back to DC
// work afterwards.

#include <vector>

#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice {

/// Per-node LTE tolerance of the step control: an accepted step's error
/// estimate stays below kLteAbstol + kLteReltol * max(|x|) [V].
inline constexpr double kLteReltol = 1e-3;
inline constexpr double kLteAbstol = 1e-6;

class TransientSolver {
 public:
  /// Bind to a session. The spec is validated here (tstep > 0,
  /// tstop > tstart >= 0, ...); begin() does the heavy setup.
  /// \pre `session` outlives the solver; the circuit topology must not
  /// change while the solver is alive.
  TransientSolver(SimSession& session, TransientSpec spec);

  /// Restores DC mode on the dynamic devices and the t = 0 source values
  /// (only if begin() ran).
  ~TransientSolver();

  TransientSolver(const TransientSolver&) = delete;
  TransientSolver& operator=(const TransientSolver&) = delete;

  /// Set up the run: solve the operating point (or build the UIC start
  /// vector), apply .IC overrides, initialise companion state, collect
  /// waveform breakpoints, and preallocate the history buffers. All
  /// allocations of the run happen here. Idempotent once begun.
  /// Throws NumericalError if the operating point fails to converge.
  void begin();

  /// Advance one *accepted* timestep (internally retrying smaller steps on
  /// Newton failure or LTE rejection). Returns false once t has reached
  /// tstop. Allocation-free after begin().
  /// Throws NumericalError if the controller cannot find a working step:
  /// Newton fails, or the error estimate rejects, at the minimum step.
  [[nodiscard]] bool advance();

  /// Current time [s] (0 until the first accepted step).
  [[nodiscard]] double time() const noexcept { return t_; }
  /// Solution at the current time (valid after begin()).
  [[nodiscard]] const Unknowns& solution() const noexcept { return x_now_; }

  [[nodiscard]] long steps_accepted() const noexcept { return accepted_; }
  [[nodiscard]] long steps_rejected() const noexcept { return rejected_; }
  [[nodiscard]] long newton_iterations() const noexcept {
    return newton_iterations_;
  }

  /// Drive the whole run and record `probes` at every accepted timepoint
  /// with t >= tstart (plus the initial point when tstart == 0). The
  /// result's single axis is TIME.
  ///
  /// A non-null `observer` receives on_begin (expected_rows = 0: the
  /// adaptive controller does not know the accepted-point count up front)
  /// and one on_row per recorded timepoint, always from the calling
  /// thread. Cancellation (on_row -> false) throws CancelledError within
  /// one accepted step; the destructor still restores DC mode.
  [[nodiscard]] SweepResult run(const std::vector<Probe>& probes,
                                RunObserver* observer = nullptr);

 private:
  void apply_sources(double t);
  /// Evaluate the history polynomial P (see the header comment) at t_ + h
  /// into pred_, every unknown, and return the scale c that turns
  /// |x_c - P| into the LTE estimate. \pre hist_count_ >= need_history().
  [[nodiscard]] double predict(double h);
  /// Max over node voltages of c |x_c - P| / (abstol + reltol max(|x|))
  /// for the candidate solution, with P in pred_ and c from predict().
  [[nodiscard]] double lte_ratio(const Unknowns& candidate, double c) const;
  [[nodiscard]] int order() const noexcept {
    return spec_.method == IntegrationMethod::kTrapezoidal ? 2 : 1;
  }
  /// Accepted points the history polynomial runs through.
  [[nodiscard]] std::size_t need_history() const noexcept {
    return spec_.method == IntegrationMethod::kTrapezoidal ? 3u : 2u;
  }
  void push_history(double t, const Unknowns& x);

  SimSession& session_;
  TransientSpec spec_;
  double tmax_ = 0.0;   ///< resolved max internal step
  double teps_ = 0.0;   ///< time comparison tolerance
  double h0_ = 0.0;     ///< (re)start step after init / breakpoints
  double hmin_ = 0.0;   ///< controller floor before giving up
  bool began_ = false;
  bool restored_ = false;
  /// Next step is the first after t = 0 or a breakpoint: adaptive runs
  /// take it with backward Euler (the committed derivative is stale).
  bool restart_ = true;

  /// The session's capacitors and inductors (SimSession::dynamic_devices).
  const std::vector<DynamicDevice*>& dynamic_;
  std::vector<IndependentSource*> waves_;  ///< sources with a waveform
  std::vector<double> source_t0_;  ///< restore values (every source)

  std::vector<double> breakpoints_;
  std::size_t bp_index_ = 0;

  double t_ = 0.0;
  double h_next_ = 0.0;
  Unknowns x_now_;

  // Accepted-solution ring the history polynomial runs through:
  // hist_x_[(hist_head_ + 3 - k) % 3] is the k-th newest accepted point.
  Unknowns hist_x_[3];
  double hist_t_[3] = {0.0, 0.0, 0.0};
  std::size_t hist_head_ = 0;
  std::size_t hist_count_ = 0;
  Unknowns pred_;  ///< the history polynomial at the candidate time

  long accepted_ = 0;
  long rejected_ = 0;
  long newton_iterations_ = 0;
};

}  // namespace icvbe::spice
