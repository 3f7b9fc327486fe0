#pragma once
// Shared pieces of the icvbe benchmark runner: run options, the record a
// workload fills, the span tracer, and the closed loop.
//
// The runner only measures. It emits raw samples (op latencies, set-up
// times, spans, counts) as one JSON document; benchmark/stats.py turns
// them into the metrics, so all the arithmetic lives in one tested place.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "icvbe/spice/plan.hpp"

namespace icvbe_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the server sockets (relative, so the AF_UNIX path
  /// stays short wherever the checkout lives).
  std::string scratch = ".bench_build/run";
  /// Directory of the default-seed reference results.
  std::string reference = "benchmark/reference";
  /// Write the reference files instead of checking against them.
  bool record_reference = false;
};

/// Everything one workload run measured.
struct Record {
  std::string workload;
  std::vector<double> setup_s;       ///< set-up samples [s]
  std::vector<double> op_ms;         ///< untraced steady ops [ms]
  std::vector<int> op_window;        ///< their window
  std::vector<double> traced_op_ms;  ///< traced steady ops [ms]
  int window = -1;                   ///< current window of the steady loop
  std::size_t attempted = 0;
  std::size_t failed = 0;            ///< ops that failed or were wrong
  std::vector<std::string> problems; ///< failed checks, human-readable
  /// Named sample lists (eg_err_mev, first_row_ms, per-layer values).
  std::map<std::string, std::vector<double>> values;
  /// Named counts (per-layer work counts).
  std::map<std::string, double> counts;
  double peak_rss_mb = 0.0;

  void problem(std::string what) { problems.push_back(std::move(what)); }
  void add_setup(double seconds) { setup_s.push_back(seconds); }
};

/// One span: a named interval on the runner's thread, its enclosing span
/// and the op it belongs to (-1 outside the steady loop).
struct Span {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = -1;
};

/// In-memory span recorder. Spans nest by call order on one thread (every
/// call into icvbe the runner makes is on its main thread); they are kept
/// in memory and written out when the run ends. A disabled tracer records
/// nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool active() const noexcept { return enabled_ && active_; }
  /// Spans are recorded only while active (the traced half of a run).
  void set_active(bool on) noexcept { active_ = on; }
  void set_op(int op) noexcept { op_ = op; }

  /// Open a span; returns its id (-1 when inactive).
  int begin(const char* name);
  void end(int id);
  /// Record an already-closed interval under the innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

 private:
  int intern(const char* name);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  bool active_ = false;
  int op_ = -1;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::map<std::string, int, std::less<>> ids_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

struct OpOutcome {
  double ms = 0.0;
  bool ok = true;
};

/// Length of the windows the steady loop is cut into. On a shared host
/// the neighbours slow every op by up to 1.6x for seconds at a time;
/// stats.py reports the median of the windows' figures, so one such phase
/// moves a run's figures no more than one window's worth.
constexpr double kWindowSeconds = 5.0;

/// Closed loop, one client: run `op(index)` back to back for the run's
/// seconds, calling `on_window(w)` as each window begins (workloads
/// measure their set-up there). A traced run traces alternate blocks of
/// ten ops, so the untraced blocks interleaved with them are the baseline
/// of the tracing overhead (a block of ten holds serve_mixed's full op
/// mix, one cold LOAD included).
template <typename OnWindow, typename Op>
void steady_loop(const Options& opt, Tracer& tracer, Record& rec,
                 OnWindow&& on_window, Op&& op) {
  const int windows =
      std::max(1, static_cast<int>(opt.seconds / kWindowSeconds));
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  for (int index = 0; elapsed < opt.seconds; ++index) {
    const int w = std::min(windows - 1,
                           static_cast<int>(elapsed / opt.seconds * windows));
    if (w != rec.window) {
      rec.window = w;
      on_window(w);
    }
    const bool traced = opt.trace && (index / 10) % 2 == 1;
    tracer.set_active(traced);
    tracer.set_op(traced ? index : -1);
    const OpOutcome out = op(index);
    tracer.set_active(false);
    tracer.set_op(-1);
    if (traced) {
      rec.traced_op_ms.push_back(out.ms);
    } else {
      rec.op_ms.push_back(out.ms);
      rec.op_window.push_back(rec.window);
    }
    ++rec.attempted;
    if (!out.ok) ++rec.failed;
    elapsed = ms_since(t0) / 1e3;
  }
  rec.window = -1;
}

/// FNV-1a over the bit patterns of a result grid (row index, axis values,
/// probe values), so two results hash equal iff they are bit-identical.
class BitHash {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Per-row timing of a traced plan run: plan.first_row from construction
/// (just before run()) to the first row, one plan.row span per row since
/// the previous one.
class RowTimer : public icvbe::spice::RunObserver {
 public:
  explicit RowTimer(Tracer& tracer) : tracer_(tracer), last_(Clock::now()) {}

  bool on_row(std::size_t, const double*, std::size_t, const double*,
              std::size_t) override {
    const auto now = Clock::now();
    if (rows_ == 0) tracer_.add("plan.first_row", last_, now);
    tracer_.add("plan.row", last_, now);
    last_ = now;
    ++rows_;
    return true;
  }

 private:
  Tracer& tracer_;
  Clock::time_point last_;
  std::size_t rows_ = 0;
};

/// Bit hash of every row of a result, in row order.
[[nodiscard]] std::uint64_t hash_result(const icvbe::spice::SweepResult& r);

/// Replay a deck's MNA system through the public layer functions under
/// spans: parse, Circuit::assign_unknowns, a building-mode stamp of every
/// device plus freeze_pattern, a frozen restamp, the first refactor (the
/// symbolic analysis), a second refactor and a solve. Records the layer
/// counts (devices, unknowns, adds, nnz, BTF blocks, supernode columns,
/// analyses).
void replay_mna(const std::string& deck, Tracer& tracer, Record& rec);

// The workloads (one translation unit each).
void run_lot(const Options& opt, Tracer& tracer, Record& rec);
void run_grid_sweep(const Options& opt, Tracer& tracer, Record& rec);
void run_tree_load(const Options& opt, Tracer& tracer, Record& rec);
void run_serve_mixed(const Options& opt, Tracer& tracer, Record& rec);

}  // namespace icvbe_bench
