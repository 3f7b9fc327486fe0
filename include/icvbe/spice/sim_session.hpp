#pragma once
// SimSession: a persistent solver session bound to one Circuit.
//
// The repository's workloads -- IC(VBE) families, VBE(T)/VREF(T) sweeps,
// trim searches, lot-level Monte Carlo -- are thousands of repeated DC
// solves of the *same* topology. A session assigns unknowns once, owns the
// preallocated MNA matrix / RHS / LU workspace, caches the independent
// sources (no dynamic_cast scans per solve), and carries warm-start
// continuation from solve to solve. After the first solve, the Newton
// inner loop performs zero heap allocations (asserted by the alloc-hook
// test and the throughput bench).
//
// Every analysis runs on a session: solve()/solve_or_throw() for one
// operating point (a one-shot caller copies the result out of a temporary
// session), run() on an AnalysisPlan (plan.hpp) for every sweep, transient
// and AC analysis.

#include <string>
#include <vector>

#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/circuit.hpp"

namespace icvbe::spice {

struct NewtonOptions {
  int max_iterations = 200;      ///< per Newton attempt
  double v_abstol = 1e-9;        ///< node voltage absolute tolerance [V]
  double i_abstol = 1e-12;       ///< aux current absolute tolerance [A]
  double reltol = 1e-6;          ///< relative tolerance on all unknowns
  double max_step_volts = 2.0;   ///< damping: max node-voltage change/iter
  double gmin_floor = 1e-12;     ///< final gmin left in the matrix
  int gmin_steps = 8;            ///< decades of gmin ramp when needed
  int source_steps = 10;         ///< source-stepping ramp points when needed
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
/// max_step_volts (junction limiting inside the devices already handles
/// the exponentials), move `x` to the damped iterate, then test
/// convergence and finiteness. The linear solve's result for unknown i is
/// read at `x_new[i * stride]`: stride 1 for a scalar solve buffer,
/// linalg::kBatchLanes for a batch's lane-fastest RHS planes. Both
/// sessions run this one function, so a lane's trajectory is
/// bit-identical to the scalar one by construction. `first_iteration` is
/// never converged (two iterations are required).
[[nodiscard]] NewtonStep newton_update(const NewtonOptions& opt,
                                       int node_unknowns,
                                       bool first_iteration,
                                       const double* x_new,
                                       std::size_t stride, Unknowns& x);

/// Devices before the first nonlinear one (all of them for a linear
/// circuit): the prefix a Newton attempt stamps once. Both sessions use
/// this one definition.
[[nodiscard]] std::size_t linear_prefix(const Circuit& circuit);

/// Add gmin to every node diagonal. Both sessions stamp it right after the
/// linear prefix, so it rides in SimSession's once-per-attempt checkpoint
/// and a batched lane sums each diagonal slot in the scalar path's order.
inline void stamp_gmin(Stamper& st, int node_unknowns, double gmin) {
  for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, gmin);
}

/// Both sessions' prime(): stamp `circuit` at iterate `x` into `a`, `b` in
/// a Newton iteration's order (linear prefix, gmin diagonal, the rest),
/// wipe the devices' limiting state, and run a fresh analysis on `lu`.
/// Throws NumericalError if singular there (`lu` is left invalidated).
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
/// sanctioned parallelism is run() with plan.threads != 1, which fans
/// outer rows over per-thread Circuit::clone()s each owning a private
/// session; results are bit-identical for any thread count.
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
    return cslu_;
  }
  [[nodiscard]] NewtonOptions& options() noexcept { return options_; }
  [[nodiscard]] const NewtonOptions& options() const noexcept {
    return options_;
  }

  /// Solve the DC operating point at the current circuit state. The result
  /// references session-owned storage and is valid until the next solve.
  /// Start point priority: `initial` if given, else the previous solution
  /// (warm-start continuation), else a cold start.
  /// If plain Newton fails it is retried once from the same start with
  /// fresh pivots every iteration, then falls back to gmin stepping, then
  /// source stepping, like the legacy solver.
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
  /// the committed DC operating point -- the last converged solve() result
  /// or an explicitly seeded warm start (seed_warm_start); if neither
  /// exists, the operating point is solved first (solve_or_throw).
  ///
  /// Every device stamps its linearised complex admittance at the OP into
  /// a complex CSR matrix whose frozen pattern is discovered once and
  /// whose LU reuses one cached symbolic analysis across the whole
  /// frequency sweep. The gmin_floor diagonal is included, mirroring the
  /// DC system.
  ///
  /// Returns the complex unknown phasors (node voltages then aux branch
  /// currents), session-owned and valid until the next solve_ac call.
  /// Allocation guarantee: after the first solve_ac at a given size (which
  /// materialises the complex engine and runs the symbolic analysis),
  /// further calls perform zero heap allocations (asserted by
  /// test_ac via the counting operator-new hook).
  /// Throws NumericalError if the AC system is singular.
  const linalg::ComplexVector& solve_ac(double omega);

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
  /// \pre every probe/axis name resolves against the bound circuit.
  /// \post the session's NewtonOptions are restored on all exit paths
  ///       (the run executes under plan.options).
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

 private:
  /// One Newton attempt at fixed gmin; allocation-free unless `repivot`
  /// (a fresh symbolic analysis, hence fresh pivots, every iteration).
  /// Returns true on convergence; x holds the final iterate either way.
  bool newton_attempt(double gmin, Unknowns& x, int& iterations,
                      bool repivot = false);

  /// AC-plan execution (defined with the rest of the plan machinery in
  /// plan.cpp). \pre plan.ac is set and plan.axes is empty.
  [[nodiscard]] SweepResult run_ac(const AnalysisPlan& plan,
                                   RunObserver* observer);

  /// Set every cached source to lambda times its nominal value in
  /// source_base_ (source stepping; 1 restores it).
  void scale_sources(double lambda);

  Circuit* circuit_;
  NewtonOptions options_;
  int n_unknowns_ = 0;
  int node_unknowns_ = 0;
  std::size_t bound_device_count_ = 0;

  /// Devices before the first nonlinear one: stamped once per attempt.
  std::size_t linear_prefix_ = 0;
  linalg::Vector b_;  ///< RHS, then the linear solve's result
  linalg::Vector b_linear_;  ///< RHS checkpoint: the linear prefix's part
  linalg::SparseMatrix sa_;
  linalg::SparseLuFactorization slu_;

  // Complex twin of the DC engine for AC solves, materialised lazily by
  // the first solve_ac() (a DC-only session never pays for it) and
  // released at rebind(). The pattern is discovered by one stamp_ac pass,
  // then frozen -- the same build-once discipline as sa_.
  bool ac_ready_ = false;
  linalg::ComplexVector cb_;
  linalg::ComplexSparseMatrix csa_;
  linalg::ComplexSparseLuFactorization cslu_;
  // The symbolic analysis is pinned to the first frequency a
  // session stamped (the sweep's "prime"): if a later point's refactor
  // collapsed the frozen pivots and re-analysed, the next solve_ac
  // re-pins at this omega first, so every point's factorisation is a
  // pure function of (op, omega, prime omega) -- never of sweep order or
  // worker scheduling (the bit-identity discipline; see run_ac).
  double ac_prime_omega_ = 0.0;
  int ac_pinned_analysis_ = 0;

  Unknowns x_;        ///< working iterate
  Unknowns x_stage_;  ///< gmin / source stepping iterate
  DcResult result_;

  std::vector<IndependentSource*> sources_;
  std::vector<double> source_base_;

  bool have_last_ = false;
};

}  // namespace icvbe::spice
