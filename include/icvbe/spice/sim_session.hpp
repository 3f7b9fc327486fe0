#pragma once
// SimSession: a persistent solver session bound to one Circuit.
//
// The repository's workloads -- IC(VBE) families, VBE(T)/VREF(T) sweeps,
// trim searches, lot-level Monte Carlo -- are thousands of repeated DC
// solves of the *same* topology. A session assigns unknowns once, owns the
// preallocated MNA matrix / RHS / LU workspace, caches the independent
// sources (no dynamic_cast scans per solve), and carries warm-start
// continuation from solve to solve. After the first solve, the Newton
// inner loop performs zero heap allocations (asserted by test_session's
// alloc-hook tests).
//
// Every analysis runs on a session: solve()/solve_or_throw() for one
// operating point (a one-shot caller copies the result out of a temporary
// session), run() on an AnalysisPlan (plan.hpp) for every sweep, transient
// and AC analysis.

#include <optional>
#include <string>
#include <vector>

#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/circuit.hpp"

namespace icvbe::spice {

/// Damping: the most any node voltage moves in one Newton iteration [V].
inline constexpr double kMaxStepVolts = 2.0;
/// Steps of the gmin ramp after its 1e-2 start (25x smaller per step,
/// floored at NewtonOptions::gmin_floor).
inline constexpr int kGminSteps = 8;
/// Points of the source-stepping ramp (sources at k / kSourceSteps).
inline constexpr int kSourceSteps = 10;

/// A session's solver settings. They are given once, to the session's
/// constructor; every solve and every AnalysisPlan run on that session
/// (its per-thread clones included) uses them.
struct NewtonOptions {
  int max_iterations = 200;      ///< per Newton attempt
  double v_abstol = 1e-9;        ///< node voltage absolute tolerance [V]
  double i_abstol = 1e-12;       ///< aux current absolute tolerance [A]
  double reltol = 1e-6;          ///< relative tolerance on all unknowns
  double gmin_floor = 1e-12;     ///< final gmin left in the matrix
  /// Empty: the sparse engine has one symbolic path (AMD inside BTF).
  /// Kept only for the benchmark harness, which reads it.
  linalg::SparseOptions sparse_options{};
};

struct DcResult {
  Unknowns solution;
  bool converged = false;
  int iterations = 0;        ///< total Newton iterations spent
  std::string strategy;      ///< "newton", "gmin", or "source"
};

/// Outcome of one Newton iteration's update (newton_update).
enum class NewtonStep {
  kContinue,   ///< not converged yet; iterate again
  kConverged,  ///< undamped step within tolerance on every unknown
  kDiverged,   ///< the iterate went non-finite
};

/// The epilogue of one Newton iteration, shared by SimSession and
/// BatchDcSession: damp the step so no node voltage moves more than
/// kMaxStepVolts (junction limiting inside the devices already handles
/// the exponentials), move `x` to the damped iterate, then test
/// convergence and finiteness. The linear solve's result for unknown i is
/// read at `x_new[i * stride]`: stride 1 for a scalar solve buffer,
/// linalg::kBatchLanes for a batch's lane-fastest RHS planes. Both
/// sessions run this one function, so a lane's trajectory is
/// bit-identical to the scalar one by construction.
///
/// An iteration is never converged if it is the first (two iterations
/// are required) or `limited`: junction limiting moved a device voltage
/// off the iterate during this iteration's stamps (Stamper::note_limited,
/// Device::collect_exp_args). Such a stamp linearises at a point that is
/// not the iterate, so a small step proves nothing about KCL there -- a
/// limited stamp can be too weak to move the iterate at all (SPICE's
/// noncon rule, Nagel 1975).
[[nodiscard]] NewtonStep newton_update(const NewtonOptions& opt,
                                       int node_unknowns,
                                       bool first_iteration, bool limited,
                                       const double* x_new,
                                       std::size_t stride, Unknowns& x);

/// Devices before the first nonlinear one (all of them for a linear
/// circuit): the prefix a Newton attempt stamps once. Both sessions use
/// this one definition.
[[nodiscard]] std::size_t linear_prefix(const Circuit& circuit);

/// Add gmin to every node diagonal. Both sessions stamp it right after the
/// linear prefix, so it is part of SimSession's linear part (G_lin) and a
/// batched lane sums each diagonal slot in the scalar path's order.
inline void stamp_gmin(Stamper& st, int node_unknowns, double gmin) {
  for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, gmin);
}

/// Stamp `circuit` at iterate `x` into `a`, `b` in a Newton iteration's
/// order: linear prefix, gmin diagonal, the rest. pin_analysis stamps its
/// reference matrix this way, and the AC engine its G.
void stamp_in_newton_order(Circuit& circuit, std::size_t linear_prefix,
                           int node_unknowns, double gmin, const Unknowns& x,
                           linalg::SparseMatrix& a, linalg::Vector& b);

/// Both sessions' prime(): stamp_in_newton_order at `x`, wipe the devices'
/// limiting state, and run a fresh analysis on `lu`. Throws
/// NumericalError if singular there (`lu` is left invalidated).
void pin_analysis(Circuit& circuit, std::size_t linear_prefix,
                  int node_unknowns, double gmin, const Unknowns& x,
                  linalg::SparseMatrix& a, linalg::Vector& b,
                  linalg::SparseLuFactorization& lu);

// Declarative analysis values (plan.hpp); execution lives on the session.
struct AnalysisPlan;
class SweepResult;
class RunObserver;

/// Persistent solver session bound to one Circuit (see the header
/// comment for the motivation).
///
/// Thread-safety: a session is single-threaded -- it mutates its bound
/// circuit (device limiting state, source values) on every solve. The
/// sanctioned parallelism is run() with plan.threads != 1, which fans a
/// 2-axis plan's outer rows over per-thread Circuit::clone()s each owning
/// a private session, and an AC plan's frequency points over per-thread
/// complex engines that read the session's G, C and RHS; results are
/// bit-identical for any thread count.
class SimSession {
 public:
  /// Bind to `circuit`, assign unknowns, and preallocate every buffer the
  /// Newton loop needs (including the one-pass sparse pattern discovery).
  /// \pre `circuit` has at least one non-ground node or aux unknown, and
  ///      outlives the session.
  /// \post unknown indices are assigned; adding devices or nodes
  ///       afterwards requires rebind().
  explicit SimSession(Circuit& circuit, NewtonOptions options = {});

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Re-assign unknowns and re-size the workspace after a topology change.
  /// \post the warm start is invalidated, the sparse pattern is
  ///       re-discovered, and the AC engine is released.
  void rebind();

  [[nodiscard]] Circuit& circuit() noexcept { return *circuit_; }
  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
  [[nodiscard]] int unknown_count() const noexcept { return n_unknowns_; }
  /// The DC matrix and factorisation, for diagnostics (stamp-tape misses,
  /// refactor_stats(), analysis_count()).
  [[nodiscard]] const linalg::SparseMatrix& sparse_matrix() const noexcept {
    return sa_;
  }
  [[nodiscard]] const linalg::SparseLuFactorization& sparse_lu()
      const noexcept {
    return slu_;
  }
  /// The complex AC factorisation, for the same diagnostics.
  [[nodiscard]] const linalg::ComplexSparseLuFactorization&
  complex_sparse_lu() const noexcept {
    return ac_.lu();
  }

  /// Solve the DC operating point at the current circuit state. The result
  /// references session-owned storage and is valid until the next solve.
  /// Start point priority: `initial` if given, else the previous solution
  /// (warm-start continuation), else a cold start.
  /// If plain Newton fails it falls back to gmin stepping, then source
  /// stepping, like the legacy solver.
  /// \pre the circuit's device count is unchanged since bind/rebind()
  ///      (violations throw CircuitError rather than stamping into a
  ///      stale pattern).
  /// \post on convergence the solution doubles as the next warm start;
  ///       source values are restored on every exit path even when source
  ///       stepping was used.
  /// Allocation guarantee: after the first solve at a given size, the
  /// Newton inner loop performs zero heap allocations (asserted by
  /// test_session via the counting operator-new hook).
  const DcResult& solve(const Unknowns* initial = nullptr);

  /// Like solve() but throws NumericalError if not converged.
  const Unknowns& solve_or_throw(const Unknowns* initial = nullptr);

  /// Small-signal (.AC) solve at angular frequency `omega` [rad/s] about
  /// the operating point the last solve() converged on. If the session
  /// holds none (no solve yet, or a failed solve, a seed, a variant or a
  /// rebind since), the operating point is solved first (solve_or_throw):
  /// a seed is a Newton start point, never an operating point.
  ///
  /// The system is G + j*omega*C (see device.hpp): the first solve_ac
  /// after a solve builds G, C and the stimulus RHS once at the OP, on the
  /// DC matrix's own pattern, and every call then writes each CSR slot as
  /// (G, omega*C) into a complex matrix, factors it along one cached
  /// symbolic analysis and solves. The gmin_floor diagonal is part of G,
  /// as in the DC system. Building G stamps the devices at the OP, which
  /// moves no junction's limiting state off the OP: the next warm solve
  /// runs as if no AC solve had happened.
  ///
  /// Returns the complex unknown phasors (node voltages then aux branch
  /// currents), session-owned and valid until the next solve_ac call.
  /// Allocation guarantee: after the first solve_ac at a given size (which
  /// materialises the complex engine and runs the symbolic analysis),
  /// further calls perform zero heap allocations (asserted by
  /// test_ac via the counting operator-new hook).
  /// Throws NumericalError if the AC system is singular.
  const linalg::ComplexVector& solve_ac(double omega);

  /// The transient system, G + (alpha/h)*C (dynamic_devices.hpp), which
  /// TransientSolver drives. begin_transient(), after the run's operating
  /// point, builds C (stamp_reactive of every dynamic device, wherever it
  /// sits in device order) and the linear part at the gmin_floor, and
  /// marks the run: its Newton attempts at that gmin (source stepping
  /// included) reuse the part instead of rebuilding it. transient_step()
  /// puts the dynamic devices on the step and, when alpha/h changes, forms
  /// G_lin + (alpha/h)*C per CSR slot; a gmin-stepping attempt builds the
  /// part at its own gmin and adds (alpha/h)*C the same way.
  /// end_transient() returns the devices to DC mode, and nothing of the
  /// run's part outlives it. Allocation-free after begin_transient().
  void begin_transient();
  void transient_step(IntegrationMethod method, double h);
  void end_transient() noexcept;

  /// Warm-continuation solve with an analytic fallback -- the pattern the
  /// bandgap cells use. If no warm start is available, seed from
  /// make_guess(); if the continuation then fails to converge (e.g. it
  /// slid into a degenerate basin), retry once from a fresh make_guess()
  /// and throw NumericalError if that also fails.
  template <typename GuessFactory>
  const Unknowns& solve_warm_or(GuessFactory&& make_guess) {
    if (!has_warm_start()) seed_warm_start(make_guess());
    const DcResult& r = solve();
    if (r.converged) return r.solution;
    const Unknowns guess = make_guess();
    return solve_or_throw(&guess);
  }

  /// Start a new parameter variant (a Monte-Carlo die, a .STEP corner) on
  /// the *same* bound topology: forget the warm start and every device's
  /// limiting state, without paying rebind's pattern discovery. The cached
  /// sparse analysis is kept, so the next solve matches a fresh session's
  /// bit for bit only if that analysis holds the pivots a fresh session
  /// would pick at its first iterate; prime() pins it when that matters.
  void begin_variant();

  /// Pin the sparse analysis at the start point the next solve() would
  /// take (warm start, else cold), as BatchDcSession::prime does. If the
  /// matrix is singular there, the next solve analyses at its own iterate.
  void prime();

  /// True if a previous (or seeded) solution is available to warm-start.
  [[nodiscard]] bool has_warm_start() const noexcept { return have_last_; }
  /// Forget the previous solution (next solve is cold unless seeded).
  void invalidate_warm_start() noexcept { have_last_ = false; }
  /// Seed the continuation explicitly (e.g. from .NODESET hints or an
  /// analytic guess). Ignored if the size does not match.
  void seed_warm_start(const Unknowns& x);

  /// Execute a declarative AnalysisPlan (defined in plan.hpp).
  ///
  /// Points along the innermost axis warm-start from their predecessor.
  /// 1-axis plans run in place and inherit the session's current
  /// continuation state, exactly as successive solve() calls would. For
  /// 2-axis plans every outer row starts from a deterministic state --
  /// devices reset, warm start re-seeded from whatever seed was live when
  /// run() was called (e.g. .NODESET hints), or cold, and the sparse
  /// analysis pinned at row 0's first point -- so rows are independent of
  /// execution order: with plan.threads they fan out one row at a time
  /// over circuit clones and the result is bit-identical for any thread
  /// count (the LotCampaign discipline).
  /// Probes are compiled once per run: the steady-state per-point path
  /// performs no heap allocations and no name lookups.
  ///
  /// Plans with `plan.transient` set run the time-domain path instead
  /// (TransientSolver; axes must be empty, the result's single axis is
  /// TIME at the accepted timepoints).
  /// Every point solves under the session's NewtonOptions; the
  /// per-thread clones of a fanned-out run copy them.
  /// \pre every probe/axis name resolves against the bound circuit.
  /// Throws PlanError on malformed plans, NumericalError naming the axis
  /// value if a point fails to converge.
  ///
  /// A non-null `observer` streams the run incrementally: on_begin once
  /// with the grid shape, then on_row per completed point (see RunObserver
  /// in plan.hpp for the threading/cancellation contract). When the
  /// observer cancels, run() throws CancelledError within one point/step;
  /// the session stays warm and usable. With observer == nullptr the
  /// per-point path is unchanged (and stays allocation-free).
  [[nodiscard]] SweepResult run(const AnalysisPlan& plan,
                                RunObserver* observer = nullptr);

  /// Cached independent sources (discovered once at bind time).
  [[nodiscard]] const std::vector<IndependentSource*>& sources()
      const noexcept {
    return sources_;
  }
  /// Cached capacitors and inductors (discovered once at bind time).
  [[nodiscard]] const std::vector<DynamicDevice*>& dynamic_devices()
      const noexcept {
    return dynamic_;
  }

 private:
  /// One Newton attempt at fixed gmin; allocation-free. Returns true on
  /// convergence; x holds the final iterate either way.
  bool newton_attempt(double gmin, Unknowns& x, int& iterations);

  /// Build linear_ at `gmin` from the devices' current values.
  void build_linear(double gmin);
  /// linear_.a = G_lin + s*C per CSR slot (transient runs).
  void form_transient();

  /// C: every dynamic device's stamp_reactive into c_, on sa_'s pattern.
  void stamp_reactive();

  /// AC-plan execution (defined with the rest of the plan machinery in
  /// plan.cpp). \pre plan.ac is set and plan.axes is empty.
  [[nodiscard]] SweepResult run_ac(const AnalysisPlan& plan,
                                   RunObserver* observer);

  /// The small-signal system at the solved OP in result_ (see solve_ac):
  /// G, C and the RHS, on the pattern of sa_. Read-only during a sweep,
  /// so every AC executor shares it. c is the session's c_, a copy of sa_
  /// (same CSR, same pattern stamp), so it is also the pattern every
  /// executor factors G + j*omega*C against.
  struct SmallSignal {
    linalg::Vector g;          ///< the DC stamp at the OP, per CSR slot
    const linalg::SparseMatrix* c = nullptr;  ///< the session's C
    linalg::ComplexVector rhs;  ///< the sources' AC stimulus phasors
  };
  /// Build small_signal_ at result_.solution. \pre a solved OP.
  void linearise_ac();

  /// One AC executor: the values of G + j*omega*C, one per CSR slot of
  /// SmallSignal::c, their LU on that pattern and the frequency the
  /// analysis is pinned at. The session owns one; a parallel sweep gives
  /// each further worker its own. No executor copies the pattern.
  class AcEngine {
   public:
    /// Phasors at `omega` (see SimSession::solve_ac).
    const linalg::ComplexVector& solve(const SmallSignal& system,
                                       double omega);
    /// Pin the analysis at `omega`: re-analyse there before the next
    /// point (run_ac pins every executor at the sweep's first frequency).
    void pin_at(double omega) noexcept {
      prime_omega_ = omega;
      pinned_analysis_ = -1;
    }
    [[nodiscard]] const linalg::ComplexSparseLuFactorization& lu()
        const noexcept {
      return lu_;
    }

   private:
    linalg::ComplexVector a_;  ///< G + j*omega*C per slot of the pattern
    linalg::ComplexSparseLuFactorization lu_;
    linalg::ComplexVector x_;
    // The symbolic analysis is pinned to the "prime": the first frequency
    // the engine solved, or the one pin_at set. When the live analysis is
    // not the one pinned there (a new pin, or a later point's refactor
    // that collapsed the frozen pivots and re-analysed), the next solve
    // re-pins at the prime first, so every point's factorisation is a
    // pure function of (system, omega, prime omega) -- never of sweep
    // order or worker scheduling (the bit-identity discipline).
    std::optional<double> prime_omega_;
    int pinned_analysis_ = -1;  ///< analysis_count() at the last pin
  };

  /// Set every cached source to lambda times its nominal value in
  /// source_base_ (source stepping; 1 restores it).
  void scale_sources(double lambda);

  Circuit* circuit_;
  NewtonOptions options_;
  int n_unknowns_ = 0;
  int node_unknowns_ = 0;
  std::size_t bound_device_count_ = 0;

  /// Devices before the first nonlinear one: the linear part's devices.
  std::size_t linear_prefix_ = 0;
  linalg::Vector b_;  ///< RHS, then the linear solve's result
  linalg::Vector b_linear_;  ///< RHS after iteration 0's linear part
  linalg::SparseMatrix sa_;
  linalg::SparseLuFactorization slu_;

  /// C (stamp_reactive) on sa_'s pattern: a copy of sa_, so it shares the
  /// CSR and the pattern stamp. Rebuilt by every AC linearisation and
  /// every begin_transient().
  linalg::SparseMatrix c_;

  /// The linear part every Newton attempt starts from (build_linear): a
  /// linear device stamps the same values at every iterate, so its stamp
  /// is taken once and loaded per iteration. A DC attempt builds it anew
  /// (callers re-program devices between solves); a transient run keeps
  /// the one built at its gmin.
  struct Linear {
    bool transient = false;  ///< held by a transient run (begin_transient)
    double gmin = 0.0;       ///< the gmin diagonal in g
    linalg::Vector g;        ///< G_lin: prefix stamp + gmin, per CSR slot
    linalg::Vector a;        ///< G_lin + s*C (transient runs)
    double s = 0.0;          ///< the companion_scale `a` holds (NaN: none)
    std::size_t cursor = 0;  ///< stamp-tape position after G_lin's adds
    linalg::Vector b;        ///< RHS of the prefix's other devices
    /// Per prefix device: true for the sources and dynamic devices, whose
    /// RHS is written per attempt (sources through a discarding matrix
    /// view, dynamic devices by stamp_history in a transient run).
    std::vector<bool> per_attempt;
    std::vector<IndependentSource*> sources;
    std::vector<const DynamicDevice*> history;
  };
  Linear linear_;

  // The AC engine (solve_ac, run_ac). small_signal_ is current when
  // ac_linearised_ holds: any solve() or rebind() clears it.
  SmallSignal small_signal_;
  bool ac_linearised_ = false;
  AcEngine ac_;

  Unknowns x_;        ///< working iterate
  Unknowns x_stage_;  ///< gmin / source stepping iterate
  DcResult result_;

  std::vector<IndependentSource*> sources_;
  std::vector<double> source_base_;
  std::vector<DynamicDevice*> dynamic_;

  bool have_last_ = false;
};

}  // namespace icvbe::spice
