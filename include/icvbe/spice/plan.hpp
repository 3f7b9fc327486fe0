#pragma once
// Declarative analysis plans: typed, serialisable descriptions of the one
// shape of work every figure and table of the paper is made of -- a grid of
// DC operating points over one or two swept parameters with a handful of
// probed quantities.
//
//   Probe        what is recorded: V(node), I(dev), IC/IB/IE/ISUB(bjt),
//                constants, and arithmetic expressions of those
//   SweepGrid    the point set of one axis: linear, log-decade, or list
//   SweepAxis    what is swept: source value, temperature, resistance
//   AnalysisPlan 1-2 nested axes (or a .TRAN/.AC spec) + N probes
//   SweepResult  the filled grid: axis values + one column per probe
//
// Because an analysis is a value rather than a set of capture-by-reference
// callbacks, it can be named, printed, parsed back (`parse_probe` /
// `to_string` round-trip), written into a netlist deck (.DC / .STEP /
// .PROBE), and sharded across threads. Execution lives on the session:
// `SimSession::run(plan)` warm-starts along the innermost axis and, for
// 2-axis plans, can fan outer-axis rows across worker threads using
// per-thread circuit clones (common::for_each_index, the work loop
// lab::LotCampaign shares -- results are bit-identical for any thread
// count).

#include <algorithm>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/common/series.hpp"
#include "icvbe/common/table.hpp"
#include "icvbe/spice/param.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice {

/// Raised on malformed plans (no axes, too many axes, empty probe list,
/// degenerate grids). Name-resolution failures raise CircuitError instead.
class PlanError : public Error {
 public:
  explicit PlanError(const std::string& what) : Error(what) {}
};

/// Raised by SimSession::run / TransientSolver::run when a RunObserver
/// requested cancellation (on_row returned false). The run stops with
/// bounded latency -- within one grid point / accepted timestep -- and the
/// session remains usable: warm state, frozen patterns, and cached
/// symbolic analyses all survive a cancelled run.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Incremental consumer of an executing plan, mirroring the sharedspice
/// callback shape (fnSendInitData -> on_begin, fnSendData -> on_row). The
/// SimServer streams probe rows to clients through one of these; tests
/// watch progress and drive cancellation the same way.
///
/// Threading contract: on_begin is called once from the thread that
/// entered run(), before any row. on_row may be called concurrently from
/// plan worker threads (2-axis outer fanout, AC frequency fanout) --
/// implementations must synchronise their own state. Rows are identified
/// by their result-grid index, so out-of-order delivery from parallel
/// workers is unambiguous; the serial paths deliver strictly in order.
///
/// Returning false from on_row requests cooperative cancellation: every
/// executor stops at its next point/step check and run() throws
/// CancelledError. The observer is never invoked again after the run
/// returns or throws.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Called once before any row with the result-grid shape.
  /// `expected_rows` is the grid size, or 0 when unknown up front (the
  /// adaptive transient path).
  virtual void on_begin(const std::vector<std::string>& axis_labels,
                        const std::vector<std::string>& probe_labels,
                        std::size_t expected_rows) {
    (void)axis_labels;
    (void)probe_labels;
    (void)expected_rows;
  }

  /// Row `row` of the result grid is complete. `axes` holds the axis
  /// values (outer first for 2-axis plans; TIME for transient; FREQ for
  /// AC), `probes` one value per plan probe, in plan order. The pointers
  /// are only valid during the call. Return false to cancel the run.
  virtual bool on_row(std::size_t row, const double* axes,
                      std::size_t axis_count, const double* probes,
                      std::size_t probe_count) {
    (void)row;
    (void)axes;
    (void)axis_count;
    (void)probes;
    (void)probe_count;
    return true;
  }
};

// --------------------------------------------------------------- Probe ---

/// A typed, serialisable measurement: maps a solved operating point (or,
/// for the AC kinds, one small-signal frequency point) to one scalar.
/// A Probe is a value: it can be printed, parsed, stored in a deck, and
/// compiled once per run into an allocation-free evaluator.
///
/// Grammar (parse_probe):
///   V(node)              node voltage
///   V(a,b)               differential voltage: V(a) - V(b) at a DC point,
///                        the differential *phasor's* magnitude in an .AC
///                        analysis (kept as one typed pair, not desugared
///                        to real arithmetic, exactly so the AC reading is
///                        |V(a)-V(b)| and not |V(a)|-|V(b)|)
///   I(dev)               terminal 0 of any device but a BJT: a branch
///                        current, or a MOSFET's drain current
///   IC(q) IB(q) IE(q)    BJT terminals 0-2 (ISUB(q): 3, the substrate)
///   VM(n) VDB(n) VP(n)   AC node phasor: magnitude, dB (20 log10 |V|),
///   VR(n) VI(n)          phase [deg], real, imaginary part; all accept a
///                        node pair (VDB(a,b) = of the differential
///                        phasor). Only meaningful in an .AC analysis;
///                        a bare V(node) there reads the magnitude.
///   1.25e-3, 2.5k        numeric literal (SPICE suffixes accepted)
///   expr + expr, -, *, / arithmetic, usual precedence, parentheses ok
class Probe {
 public:
  enum class Kind {
    kConstant,       ///< numeric literal
    kNodeVoltage,    ///< V(node)
    kBranchCurrent,  ///< I(dev)
    kBjtCurrent,     ///< IC/IB/IE/ISUB(dev)
    kAcVoltage,      ///< VM/VDB/VP/VR/VI(node[,node2])
    kExpression,     ///< lhs op rhs
  };
  enum class Op { kAdd, kSub, kMul, kDiv };

  /// BJT terminal selector for kBjtCurrent.
  enum class BjtTerminal { kCollector, kBase, kEmitter, kSubstrate };

  /// Scalarisation of a complex node phasor for kAcVoltage.
  enum class AcQuantity { kMagnitude, kDb, kPhaseDeg, kReal, kImag };

  Probe() = default;  ///< constant 0

  [[nodiscard]] static Probe constant(double value);
  /// Node voltage; a non-empty `node2` makes it differential (see the
  /// grammar comment for the DC vs AC semantics of the pair).
  [[nodiscard]] static Probe node_voltage(std::string node,
                                          std::string node2 = {});
  [[nodiscard]] static Probe branch_current(std::string device);
  [[nodiscard]] static Probe bjt_current(std::string device,
                                         BjtTerminal terminal);
  /// AC phasor probe; an empty `node2` means single-ended (vs ground).
  [[nodiscard]] static Probe ac_voltage(AcQuantity quantity, std::string node,
                                        std::string node2 = {});
  [[nodiscard]] static Probe expression(Op op, Probe lhs, Probe rhs);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] Op op() const noexcept { return op_; }
  [[nodiscard]] double value() const noexcept { return value_; }
  /// Node or device name (kNodeVoltage / kBranchCurrent / kBjtCurrent /
  /// kAcVoltage).
  [[nodiscard]] const std::string& target() const noexcept { return target_; }
  /// Second node of a differential kNodeVoltage / kAcVoltage ("" =
  /// single-ended).
  [[nodiscard]] const std::string& target2() const noexcept {
    return target2_;
  }
  [[nodiscard]] BjtTerminal terminal() const noexcept { return terminal_; }
  [[nodiscard]] AcQuantity ac_quantity() const noexcept { return quantity_; }
  [[nodiscard]] const Probe& lhs() const { return children_.at(0); }
  [[nodiscard]] const Probe& rhs() const { return children_.at(1); }

  /// Evaluate against a solved operating point. Resolves names on every
  /// call -- convenient for one-off use and the reference the compiled
  /// probes are tested against; SimSession::run compiles plans instead so
  /// the steady-state path does no lookups. AC probes (kAcVoltage) have no
  /// meaning at a DC point and throw PlanError here; they evaluate through
  /// the AC plan path instead.
  /// \pre every referenced node/device name exists in `circuit` (throws
  ///      CircuitError otherwise) and `x` is that circuit's solution.
  /// Allocation-free on the happy path; const and safe to share across
  /// threads (a Probe is an immutable value once built).
  [[nodiscard]] double eval(const Circuit& circuit, const Unknowns& x) const;

  /// Serialise in the parse_probe grammar; parse_probe(to_string()) yields
  /// a structurally identical probe.
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::kConstant;
  Op op_ = Op::kAdd;
  double value_ = 0.0;
  std::string target_;
  /// kNodeVoltage / kAcVoltage differential pair ("" = single-ended).
  std::string target2_;
  BjtTerminal terminal_ = BjtTerminal::kCollector;
  AcQuantity quantity_ = AcQuantity::kMagnitude;
  std::vector<Probe> children_;  ///< two entries for kExpression
};

/// Parse a probe expression ("V(out)", "IC(Q1)/IC(Q2)", "V(a)-V(b)").
/// Throws PlanError on malformed text.
[[nodiscard]] Probe parse_probe(std::string_view text);

/// Evaluation domain a probe set is compiled for: a DC/transient operating
/// point (real Unknowns) or one AC frequency point (complex phasors).
enum class ProbeDomain { kDc, kAc };

/// True if `probe` can evaluate in `domain` -- the name/topology-free
/// subset of the CompiledProbeSet compile-time rules: AC-quantity leaves
/// (VM/VDB/VP/VR/VI) exist only in kAc; current leaves (I/IC/IB/IE/ISUB)
/// only in kDc; node voltages and constants in both; an expression needs
/// every leaf supported. Multi-analysis decks use this to route each
/// .PROBE to the analyses that can evaluate it.
[[nodiscard]] bool probe_supported_in(const Probe& probe,
                                      ProbeDomain domain) noexcept;

/// Probes compiled once against one circuit: per-point evaluation is
/// allocation- and lookup-free (the same machinery SimSession::run uses
/// for its per-point path, exposed for other drivers -- TransientSolver
/// records through one of these).
///
/// Compiled for a domain: kDc evaluates with eval() against an Unknowns
/// vector (AC probes are rejected at compile time with PlanError); kAc
/// evaluates with eval_ac() against the complex phasor vector a
/// SimSession::solve_ac returned -- there, a bare V(node) reads the
/// phasor magnitude and current/BJT probes are rejected (PlanError).
/// \pre the circuit outlives the set and its topology does not change.
/// Not thread-safe: eval() uses an internal evaluation stack; compile one
/// set per thread (the parallel-plan-worker discipline).
class CompiledProbeSet {
 public:
  /// Resolve and compile. Throws CircuitError if a probe references an
  /// unknown node or device, PlanError if a probe kind does not exist in
  /// the requested domain.
  CompiledProbeSet(const std::vector<Probe>& probes, const Circuit& circuit,
                   ProbeDomain domain = ProbeDomain::kDc);
  ~CompiledProbeSet();
  CompiledProbeSet(CompiledProbeSet&&) noexcept;
  CompiledProbeSet& operator=(CompiledProbeSet&&) noexcept;

  [[nodiscard]] std::size_t size() const noexcept;
  /// Value of probe `i` at solution `x`; allocation-free (kDc domain).
  [[nodiscard]] double eval(std::size_t i, const Unknowns& x) const;
  /// Value of probe `i` at the AC phasor solution; allocation-free (kAc
  /// domain).
  [[nodiscard]] double eval_ac(std::size_t i,
                               const linalg::ComplexVector& x) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ----------------------------------------------------------- SweepGrid ---

/// The point set of one sweep axis.
class SweepGrid {
 public:
  enum class Spacing { kLinear, kLogDecades, kList };

  /// n evenly spaced points over [first, last], n >= 2.
  [[nodiscard]] static SweepGrid linear(double first, double last, int n);
  /// Logarithmic grid (0 < first < last), >= 1 points per decade.
  [[nodiscard]] static SweepGrid log_decades(double first, double last,
                                             int per_decade);
  /// Explicit point list (>= 1 point).
  [[nodiscard]] static SweepGrid list(std::vector<double> values);

  [[nodiscard]] Spacing spacing() const noexcept { return spacing_; }
  [[nodiscard]] std::size_t size() const;
  /// Materialise the grid points in sweep order.
  [[nodiscard]] std::vector<double> points() const;

 private:
  SweepGrid() = default;
  Spacing spacing_ = Spacing::kList;
  double first_ = 0.0;
  double last_ = 0.0;
  int n_ = 0;  ///< points (linear) or points per decade (log)
  std::vector<double> values_;
};

// ----------------------------------------------------------- SweepAxis ---

/// What one axis sweeps: a parameter (ParamRef, spice/param.hpp) and its
/// grid. Temperature axes carry their unit so deck-level Celsius
/// directives and engine-level Kelvin sweeps both round-trip; the
/// *recorded* axis value is always the grid value as given.
class SweepAxis {
 public:
  using Kind = ParamRef::Kind;

  SweepAxis(ParamRef param, SweepGrid grid)
      : param_(std::move(param)), grid_(std::move(grid)) {}

  [[nodiscard]] static SweepAxis vsource(std::string device, SweepGrid grid);
  [[nodiscard]] static SweepAxis isource(std::string device, SweepGrid grid);
  [[nodiscard]] static SweepAxis temperature_kelvin(SweepGrid grid);
  [[nodiscard]] static SweepAxis temperature_celsius(SweepGrid grid);
  /// Sweep a resistor's nominal value (trim curves). Values in ohms.
  [[nodiscard]] static SweepAxis resistor(std::string device, SweepGrid grid);

  [[nodiscard]] const ParamRef& param() const noexcept { return param_; }
  [[nodiscard]] Kind kind() const noexcept { return param_.kind; }
  /// Swept device name; empty for temperature axes.
  [[nodiscard]] const std::string& device() const noexcept {
    return param_.device;
  }
  /// True if a temperature axis is in Celsius.
  [[nodiscard]] bool celsius() const noexcept { return param_.celsius; }
  [[nodiscard]] const SweepGrid& grid() const noexcept { return grid_; }

  /// Column label: device name, "TEMP" (Celsius) or "TEMP_K" (Kelvin).
  [[nodiscard]] std::string label() const;

 private:
  ParamRef param_;
  SweepGrid grid_;
};

// ------------------------------------------------------- TransientSpec ---

/// Most points one analysis grid may describe: a .DC/.STEP/.AC grid's
/// point count, or a .TRAN spec's TransientSpec::grid_points(). The
/// parser checks it in double arithmetic before anything is allocated,
/// so an absurd card is a named error rather than a hang.
inline constexpr double kMaxGridPoints = 1e7;

/// Declarative description of one time-domain (.TRAN) analysis: the value
/// counterpart of the sweep axes. Executed by TransientSolver
/// (spice/transient.hpp) or, via AnalysisPlan::transient, by
/// SimSession::run.
struct TransientSpec {
  /// Output/step ceiling [s]: the controller never takes an internal step
  /// larger than tmax (default = tstep), so tstep doubles as the result's
  /// approximate time resolution. Must be > 0.
  double tstep = 0.0;
  double tstop = 0.0;   ///< simulate [0, tstop]; must be > tstart
  double tstart = 0.0;  ///< recording starts here (stepping starts at 0)
  double tmax = 0.0;    ///< max internal step; 0 = use tstep
  /// Skip the operating-point solve and start from all-zero node voltages
  /// plus the initial conditions (SPICE UIC).
  bool uic = false;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Local-truncation-error step control. When false every step is
  /// exactly tstep (uniform grid -- what the closed-form tests use).
  bool adaptive = true;
  /// .IC directives: node name -> initial voltage. Without UIC these
  /// override the solved operating point; with UIC they seed the start
  /// vector directly.
  std::vector<std::pair<std::string, double>> initial_conditions;

  /// Size of the time grid, tstop / min(tstep, tmax if set); must not
  /// exceed kMaxGridPoints. Stepping covers [0, tstop] whatever tstart
  /// is, so this is a fixed-step run's step count and the fewest steps
  /// an adaptive run can take.
  [[nodiscard]] double grid_points() const noexcept {
    return tstop / (tmax > 0.0 ? std::min(tstep, tmax) : tstep);
  }
};

// --------------------------------------------------------------- AcSpec ---

/// Declarative description of one small-signal (.AC) analysis: a frequency
/// grid swept about the committed DC operating point. The value
/// counterpart of the sweep axes, executed by SimSession::run via
/// solve_ac(2 pi f) per point.
struct AcSpec {
  /// Grid shape, mirroring the SPICE .AC forms.
  enum class Spacing {
    kDecade,  ///< `points` per decade, logarithmic
    kOctave,  ///< `points` per octave, logarithmic
    kLinear,  ///< `points` total, evenly spaced
  };
  Spacing spacing = Spacing::kDecade;
  int points = 10;      ///< per decade/octave, or total for kLinear
  double fstart = 1.0;  ///< first frequency [Hz]; > 0 for log grids
  double fstop = 1.0;   ///< last frequency [Hz]; >= fstart

  /// Materialise the frequency points [Hz] in sweep order. Throws
  /// PlanError on a degenerate spec (points < 1, fstart <= 0 on a log
  /// grid, fstop < fstart).
  [[nodiscard]] std::vector<double> frequencies() const;
};

// -------------------------------------------------------- AnalysisPlan ---

/// A complete declarative analysis: either 1-2 nested sweep axes
/// (axes.front() is the outer loop), a transient spec, or an AC spec, and
/// at least one probe. A plan carries no solver settings: it runs under
/// the NewtonOptions of the session that runs it. Plans are plain values:
/// build them in C++, parse them from deck directives, or generate them
/// programmatically.
struct AnalysisPlan {
  std::string name = "analysis";
  std::vector<SweepAxis> axes;
  /// Present = time-domain analysis (axes must then be empty; the result's
  /// single axis is TIME at the accepted timepoints).
  std::optional<TransientSpec> transient;
  /// Present = small-signal analysis (axes/transient must be absent; the
  /// result's single axis is FREQ in Hz). Probes are evaluated in the AC
  /// domain: VM/VDB/VP/VR/VI (and bare V = magnitude) over the node
  /// phasors, arithmetic and constants as usual.
  std::optional<AcSpec> ac;
  std::vector<Probe> probes;
  /// Worker threads for 2-axis plans (outer rows) and AC plans (frequency
  /// points): 1 = serial in-place (default), 0 = hardware_concurrency,
  /// N = N workers over per-thread circuit clones (rows) or complex AC
  /// engines (frequency points). Results are bit-identical for any value.
  unsigned threads = 1;
};

/// The analysis family a plan describes -- the selector decks, the CLI,
/// and the server RUN command share (a multi-analysis deck carries up to
/// one plan per family; see ParsedNetlist::plans).
enum class AnalysisKind {
  kDcSweep,    ///< .DC/.STEP sweep axes
  kTransient,  ///< .TRAN
  kAc,         ///< .AC
};

/// Classify a plan. Sweep plans are the default family (axes, or nothing
/// set yet); transient/AC plans are recognised by their spec.
[[nodiscard]] AnalysisKind analysis_kind(const AnalysisPlan& plan);

/// "DC", "TRAN", or "AC" -- the token the deck dialect, the CLI, and the
/// wire protocol all use.
[[nodiscard]] const char* to_token(AnalysisKind kind);

/// Parse a "DC"/"TRAN"/"AC" token (case-insensitive). Throws PlanError on
/// anything else.
[[nodiscard]] AnalysisKind analysis_kind_from_token(std::string_view token);

// --------------------------------------------------------- SweepResult ---

/// The executed grid. Point p of a 2-axis plan maps to
/// (outer index = p / inner_size, inner index = p % inner_size); 1-axis
/// plans have rows() == inner grid size. Transient results are 1-axis
/// with TIME as the axis and one row per accepted timepoint.
///
/// A SweepResult is a plain value, detached from the session that filled
/// it: copy, move, and read it from any thread.
class SweepResult {
 public:
  SweepResult() = default;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t probe_count() const noexcept {
    return probe_labels_.size();
  }
  [[nodiscard]] std::size_t axis_count() const noexcept {
    return outer_.empty() ? 1 : 2;
  }

  /// Grid values of the inner axis (the only one of a 1-axis plan).
  [[nodiscard]] const std::vector<double>& inner_values() const noexcept {
    return inner_;
  }

  [[nodiscard]] const std::vector<std::string>& axis_labels() const noexcept {
    return axis_labels_;
  }
  [[nodiscard]] const std::vector<std::string>& probe_labels() const noexcept {
    return probe_labels_;
  }

  /// Axis value at a row: axis 0 = outer (or the only axis), axis 1 = inner.
  [[nodiscard]] double axis_value(std::size_t axis, std::size_t row) const;
  /// Probe column value at a row.
  [[nodiscard]] double value(std::size_t probe, std::size_t row) const {
    ICVBE_REQUIRE(probe < probe_count() && row < rows_,
                  "SweepResult::value: index out of range");
    return values_[row * probe_count() + probe];
  }

  /// 1-axis plans: Series of one probe over the axis.
  [[nodiscard]] Series series(std::size_t probe = 0) const;
  /// 2-axis plans: one Series per outer point (inner value on x).
  [[nodiscard]] std::vector<Series> series_family(std::size_t probe = 0) const;
  /// Full grid as a Table (axis columns then probe columns).
  [[nodiscard]] Table table() const;
  /// CSV via the shared common/csv writer.
  void write_csv(std::ostream& os) const;

  /// The one writer of results: every analysis fills, streams and
  /// cancels its rows through it (internal; defined in src/spice/rows.hpp).
  class RowSink;

 private:
  std::size_t rows_ = 0;
  std::vector<double> outer_;  ///< empty for 1-axis plans
  std::vector<double> inner_;
  std::vector<std::string> axis_labels_;
  std::vector<std::string> probe_labels_;
  /// Row-major: probe p of row r at [r * probe_count() + p], so a finished
  /// row is one contiguous span (what RunObserver::on_row receives).
  std::vector<double> values_;
};

}  // namespace icvbe::spice
