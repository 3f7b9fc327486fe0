#pragma once
// Sparse linear algebra for large MNA systems: a real CSR matrix with a
// build-once / restamp-many lifecycle and an LU factorisation with a
// reusable symbolic analysis. The matrix is real (the DC/transient Newton
// systems stamp it); the LU is generic over the scalar of the values it
// factors (double, or Complex for small-signal AC systems G + j*omega*C
// written slot by slot onto the real pattern).
//
// The dense workspace solver (matrix.hpp / solve.hpp) stores O(n^2) and
// refactors in O(n^3). The netlist parser happily ingests thousands of
// nodes, where an MNA matrix has a handful of entries per row; this header
// provides the engine every SimSession binds, at every size.
//
// Lifecycle, mirroring the dense workspace-reuse discipline:
//  1. building: SparseMatrix::add(r, c, v) records coordinates (one
//     pattern-discovery stamp of the circuit);
//  2. freeze_pattern(): coordinates are compiled to CSR, duplicates merged;
//  3. steady state: fill(0) + add() re-stamp values into the frozen
//     pattern through the stamp tape (the slot each add of the last
//     restamp hit, checked in three compares; a binary search over the
//     short sorted row only when the check fails -- allocation-free), and
//     SparseLuFactorizationT::refactor() re-factors numerically along a
//     cached pivot order and fill pattern from the first pivot step whose
//     row changed, also allocation-free. load_values() starts a restamp
//     part way: it sets the values a prefix of adds left and moves the
//     tape past that prefix, so the adds that follow replay their taped
//     slots (a Newton attempt loads its linear devices' part, built once,
//     and restamps only the rest per iteration).
//
// One pattern, numerics per scalar (KLU's shape): the LU factors a
// (pattern, values) pair -- the CSR arrays and pattern stamp of a frozen
// SparseMatrix, and one value per CSR slot of the scalar being factored.
// The pattern machinery (COO -> CSR compilation, fill-reducing ordering,
// BTF permutation, fill-pattern discovery) is purely structural; pivot
// *selection* compares magnitudes (scalar_abs -- |x| for double, |re| +
// |im| for complex, a double either way), so the symbolic analysis is
// real-valued for both scalars and only the numeric refactor / solve
// arithmetic is scalar-typed. An AC frequency sweep therefore runs the
// analysis once at its first frequency and re-factors allocation-free at
// every further point, exactly like a Newton loop.
//
// Symbolic path: one, KLU's default shape. A block-triangular (BTF)
// permutation first, then approximate minimum degree (AMD) on a quotient
// graph inside each diagonal block. Every numeric pass is the one sparse
// replay along the cached pattern: circuit factors stay too sparse for a
// dense trailing kernel to pay (KLU leaves supernodes out for the same
// reason). BTF stays because the serve deck's warm PATCH+RUN history is
// bit-identical to cold runs only with its block fences: without them the
// history runs a second analysis and 7 of its 60 runs print other bytes
// (test_server's WarmHistoryMatchesColdRunsOfThePatchedDeck).

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "icvbe/linalg/matrix.hpp"

namespace icvbe::linalg {

class SparseMatrix;

/// Slot tape of one restamp sequence over a frozen pattern. Devices stamp
/// the same sequence of (row, col) adds on every restamp (the MatrixView
/// stamping contract), so the k-th add of a restamp lands in the CSR slot
/// the k-th add of the previous one hit. The tape records those slots and
/// replays them: each add checks that the taped slot lies in row r with
/// column c -- three compares -- instead of binary-searching the row. An
/// entry that fails the check (a device stamping out of order, an add
/// beyond the taped length) falls back to the search and re-records that
/// entry, so a deviation costs a search, never a wrong entry.
///
/// One entry per pattern-discovery registration is reserved at freeze
/// time; the first restamp records them. Nothing allocates after that.
class StampTape {
 public:
  /// Reserve `entries` unrecorded entries and rewind. Allocates.
  void reset(std::size_t entries) {
    slots_.assign(entries, kUnrecorded);
    cursor_ = 0;
    misses_ = 0;
  }
  /// Start of a restamp: the next add replays entry 0.
  void rewind() noexcept { cursor_ = 0; }
  /// Index of the entry the next add replays.
  [[nodiscard]] std::size_t cursor() const noexcept { return cursor_; }
  /// Make the next add replay entry `cursor` (a position cursor() returned
  /// during an earlier restamp of the same sequence).
  void seek(std::size_t cursor) noexcept { cursor_ = cursor; }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  /// Adds that found a recorded entry failing its check, or ran past the
  /// tape, and so paid a search (diagnostic; 0 in a steady restamp loop).
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// CSR slot of (r, c) in the frozen matrix `m`, advancing the cursor.
  /// Throws Error like SparseMatrix::slot if (r, c) is outside the
  /// pattern.
  std::size_t next(const SparseMatrix& m, std::size_t r, std::size_t c);

 private:
  static constexpr std::uint32_t kUnrecorded = 0xffffffffu;

  /// The search fallback of next() (out of line, so the taped hit path
  /// stays small enough to inline into every device stamp).
  std::size_t miss(const SparseMatrix& m, std::size_t r, std::size_t c);

  std::vector<std::uint32_t> slots_;
  std::size_t cursor_ = 0;
  std::uint64_t misses_ = 0;
};

/// Compressed-sparse-row matrix with a two-phase lifecycle (see header
/// comment). All coordinate registrations happen while building -- value
/// zero still registers a pattern entry, so a stamp pass at an arbitrary
/// operating point discovers the full structural pattern.
///
/// Thread-safety: no internal synchronisation; one writer at a time.
/// Distinct instances are fully independent (parallel plan workers each
/// restamp their own copy).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  /// Reset to an empty building-phase matrix of the given dimensions.
  void resize(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// Number of stored entries (post-freeze: duplicates merged).
  [[nodiscard]] std::size_t nonzeros() const noexcept {
    return frozen_ ? values_.size() : coo_values_.size();
  }

  /// Accumulate v at (r, c). Building phase: registers the coordinate
  /// (allocates). Frozen phase: allocation-free accumulation into the
  /// slot the stamp tape replays (or searches); throws Error if (r, c) is
  /// outside the frozen pattern.
  /// \pre r < rows(), c < cols().
  void add(std::size_t r, std::size_t c, double v) {
    if (frozen_) {
      values_[tape_.next(*this, r, c)] += v;
    } else {
      add_building(r, c, v);
    }
  }

  /// Compile the recorded coordinates into CSR (sorted columns per row,
  /// duplicates merged by summation) and reserve one stamp-tape entry per
  /// registration. No-op if already frozen.
  void freeze_pattern();

  /// Set every stored value (frozen only); the pattern is untouched.
  /// fill(0.0) is the per-Newton-iteration re-stamp reset, so it also
  /// rewinds the stamp tape.
  void fill(double value);

  /// Set the values to `values` (one per CSR slot) and move the stamp
  /// tape to `cursor`, the tape position right after the adds those
  /// values hold, so the adds that follow replay the entries they
  /// replayed after that prefix. Frozen only; allocation-free.
  void load_values(const std::vector<double>& values, std::size_t cursor);

  /// Value at (r, c); zero outside the pattern (frozen only).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Process-unique pattern identity assigned by freeze_pattern(). The
  /// factorisation compares it to detect that its cached symbolic
  /// analysis still applies (copies share the stamp -- and the CSR -- so a
  /// copy's values, or any value array of one entry per CSR slot, factor
  /// against the same analysis).
  [[nodiscard]] std::uint64_t pattern_stamp() const noexcept {
    return pattern_stamp_;
  }

  // Raw CSR access (frozen only).
  [[nodiscard]] const std::vector<int>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<int>& col_index() const noexcept {
    return col_index_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Dense copy (tests and diagnostics; O(rows * cols)).
  [[nodiscard]] Matrix to_dense() const;

  /// this * v (frozen only; dimension-checked).
  [[nodiscard]] Vector multiply(const Vector& v) const;

  /// CSR slot of (r, c) (frozen only); throws Error if outside the
  /// pattern. Binary search over the (short, sorted) row -- the stamp
  /// tape's fallback.
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t c) const;

  /// The stamp tape frozen add() replays (its size is the registration
  /// count of pattern discovery; misses() is the search count since).
  [[nodiscard]] const StampTape& tape() const noexcept { return tape_; }

 private:
  void add_building(std::size_t r, std::size_t c, double v);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool frozen_ = false;
  std::uint64_t pattern_stamp_ = 0;

  // Building phase: COO triplets in registration order.
  std::vector<std::pair<int, int>> coo_coords_;
  std::vector<double> coo_values_;

  // Frozen phase: CSR.
  std::vector<int> row_ptr_;
  std::vector<int> col_index_;
  std::vector<double> values_;
  StampTape tape_;
};

inline std::size_t StampTape::next(const SparseMatrix& m, std::size_t r,
                                   std::size_t c) {
  if (cursor_ < slots_.size()) {
    // The slot must lie in row r and hold column c; an unrecorded entry
    // fails the first compare (kUnrecorded is never a valid slot).
    const std::size_t s = slots_[cursor_];
    const std::vector<int>& cols = m.col_index();
    if (s < cols.size() && static_cast<std::size_t>(cols[s]) == c &&
        r < m.rows()) {
      const std::vector<int>& rows = m.row_ptr();
      if (static_cast<std::size_t>(rows[r]) <= s &&
          s < static_cast<std::size_t>(rows[r + 1])) {
        ++cursor_;
        return s;
      }
    }
  }
  return miss(m, r, c);
}

/// Dies per batched refactor/solve: two DPacks of lanes (sparse.cpp
/// checks the pack width). The lot engine's one batch width.
inline constexpr std::size_t kBatchLanes = 8;

/// kBatchLanes value planes over one frozen real sparse pattern -- the SoA
/// side of the batched lot solver. Lane l of a lot group stamps its own
/// matrix values into plane l; all planes share the pattern (and
/// therefore the factorisation's one cached symbolic analysis and pivot
/// sequence).
///
/// Layout is lane-fastest: the kBatchLanes values of pattern slot i are
/// contiguous at values()[i * kBatchLanes + l], so the batched
/// refactor/solve inner loops walk unit-stride across the die lane and
/// vectorise.
///
/// The bound pattern matrix is referenced, not copied -- it must outlive
/// the batch and stay frozen (re-freezing changes the pattern stamp and
/// the batch must be re-bound).
class SparseValueBatch {
 public:
  SparseValueBatch() = default;

  /// Bind to a frozen pattern with kBatchLanes zeroed value planes.
  /// Allocation happens here (and only here): the per-die steady state --
  /// clear_lane / add / load_lane -- is allocation-free.
  void bind(const SparseMatrix& pattern);

  [[nodiscard]] bool bound() const noexcept { return pattern_ != nullptr; }
  [[nodiscard]] std::size_t rows() const noexcept {
    return pattern_ != nullptr ? pattern_->rows() : 0;
  }
  [[nodiscard]] std::size_t nonzeros() const noexcept {
    return pattern_ != nullptr ? pattern_->nonzeros() : 0;
  }
  [[nodiscard]] std::uint64_t pattern_stamp() const noexcept {
    return pattern_ != nullptr ? pattern_->pattern_stamp() : 0;
  }
  [[nodiscard]] const SparseMatrix& pattern() const;

  /// Zero every value of one lane (the per-Newton-iteration restamp reset
  /// of that lane) and rewind the stamp tape. Strided by kBatchLanes;
  /// allocation-free.
  void clear_lane(std::size_t lane);

  /// Accumulate v at (r, c) in `lane`, through the batch's own stamp tape
  /// (lanes stamp one after another, each after its clear_lane). Slot must
  /// be inside the frozen pattern (throws Error otherwise, like frozen
  /// SparseMatrix::add).
  void add(std::size_t r, std::size_t c, double v, std::size_t lane) {
    values_[tape_.next(*pattern_, r, c) * kBatchLanes + lane] += v;
  }

  /// Copy a scalar matrix's values into one lane. The matrix must share
  /// the bound pattern (same pattern stamp).
  void load_lane(std::size_t lane, const SparseMatrix& m);

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  [[nodiscard]] const StampTape& tape() const noexcept { return tape_; }

 private:
  const SparseMatrix* pattern_ = nullptr;
  std::vector<double> values_;  ///< nnz * kBatchLanes, lane-fastest
  StampTape tape_;
};

/// Kept only for the benchmark harness, which hands one to set_options():
/// the symbolic path has nothing to configure.
struct SparseOptions {};

/// Approximate minimum degree on a quotient graph over the symmetrised
/// pattern: supervariable detection (indistinguishable-node merging),
/// element absorption, and the external-degree approximation. It orders
/// each BTF block of the factorisation. Deterministic:
/// (degree, index) min-selection and index-ordered supervariable
/// emission. Exposed for the ordering test harness.
[[nodiscard]] std::vector<int> amd_order(const std::vector<int>& row_ptr,
                                         const std::vector<int>& col_index,
                                         std::size_t n);

/// Block-triangular decomposition of a square pattern: a maximum
/// transversal (row-perfect matching) followed by the SCC condensation of
/// the matched graph. Rows of block b have entries only in columns of
/// blocks >= b, so LU never creates fill across blocks and pivoting can
/// stay block-confined. Purely structural and deterministic.
struct BtfDecomposition {
  /// Rows concatenated block by block (within a block: ascending row id).
  std::vector<int> row_order;
  /// Offsets into row_order, size block_count() + 1.
  std::vector<int> block_ptr;
  /// Block id of each row (and of its matched column).
  std::vector<int> row_block;
  /// Matched column of each row (the maximum transversal).
  std::vector<int> match_col;

  [[nodiscard]] std::size_t block_count() const noexcept {
    return block_ptr.empty() ? 0 : block_ptr.size() - 1;
  }
};

/// Compute the BTF decomposition of a frozen square CSR pattern. Throws
/// NumericalError if the pattern is structurally singular (no perfect
/// matching exists -- no value assignment could make the matrix
/// non-singular).
[[nodiscard]] BtfDecomposition btf_decompose(const std::vector<int>& row_ptr,
                                             const std::vector<int>& col_index,
                                             std::size_t n);

/// What SparseLuFactorizationT::refactor() did with its frozen passes
/// (diagnostic; symbolic analyses are counted by analysis_count()).
struct RefactorStats {
  std::uint64_t full = 0;     ///< passes that replayed every pivot step
  std::uint64_t partial = 0;  ///< passes that kept an unchanged prefix
  std::uint64_t skipped = 0;  ///< calls whose matrix was bitwise unchanged
  std::uint64_t steps_replayed = 0;  ///< pivot steps recomputed, summed
};

/// Sparse LU with a reusable symbolic analysis, the SPICE-family engine
/// shape (Nagel's SPICE2 reordering, KLU-style refactorisation):
///
///  * analyse once: a block-triangular permutation plus a fill-reducing
///    row pre-ordering (AMD) per diagonal block, then an up-looking row
///    factorisation with threshold column pivoting (Markowitz-flavoured:
///    among numerically acceptable pivots the sparsest column wins),
///    pivots confined to the current BTF block. The pivot order and the
///    complete fill-in pattern of L and U are cached. Pivot acceptability
///    compares magnitudes, so the analysis decisions are real-valued for
///    both scalars.
///  * refactor() per Newton iteration / AC frequency point: if the matrix
///    pattern matches the cached analysis, a purely numeric
///    re-factorisation runs along the frozen pivot order and pattern -- no
///    allocation, no searching. It is incremental (KLU's frozen-pivot
///    refactor, replayed from the first changed row): pivot step k reads
///    only row rperm[k] of A and the factors of steps < k, so the steps
///    before the first step whose row differs bitwise from the values the
///    stored factors came from are kept, and only the rest is replayed --
///    none at all when nothing changed. The kept prefix is re-screened
///    against the current column maxima and growth cap, so the outcome is
///    bit-identical to a full pass. If a frozen pivot collapses
///    numerically the analysis is redone once with fresh pivoting
///    (allocates; rare), and NumericalError is thrown only if the matrix
///    is genuinely singular to working precision.
///
/// Thread-safety: refactor() mutates the cached factors; solve_in_place()
/// is const but uses an internal permutation buffer, so concurrent solves
/// on ONE instance are racy. One instance per thread (the plan-worker
/// discipline) is safe.
template <typename Scalar>
class SparseLuFactorizationT {
 public:
  SparseLuFactorizationT() = default;

  /// Factor the matrix A with `pattern`'s frozen CSR structure and
  /// `values` (one per CSR slot, in slot order; pattern.values() is
  /// ignored). First call (or pattern change) runs the symbolic analysis;
  /// later calls with the same pattern stamp are allocation-free. Throws
  /// NumericalError if A is singular to working precision: no pivot
  /// candidate of some elimination step reaches pivot_tol times its own
  /// column's original max|A| (column-relative, like the dense engine, so
  /// AC systems whose columns legitimately span many decades are not
  /// misdiagnosed).
  /// \pre pattern.frozen(), square and non-empty; values.size() ==
  ///      pattern.nonzeros() (checked); all values finite (checked:
  ///      non-finite input throws NumericalError deterministically here,
  ///      never surfacing at the first solve).
  /// \post the factors match these values; a frozen-pivot collapse or
  ///       runaway element growth re-ran the analysis with fresh pivoting
  ///       (allocates; analysis_count() increments).
  void refactor(const SparseMatrix& pattern, const std::vector<Scalar>& values,
                double pivot_tol = 1e-14);

  /// Factor a real matrix with its own values.
  void refactor(const SparseMatrix& a, double pivot_tol = 1e-14)
    requires std::is_same_v<Scalar, double>
  {
    refactor(a, a.values(), pivot_tol);
  }

  /// Solve A x = rhs with the solution overwriting rhs; allocation-free.
  /// \pre refactor() has succeeded; rhs.size() == size().
  void solve_in_place(VectorT<Scalar>& rhs) const;

  /// Solve A x = b.
  [[nodiscard]] VectorT<Scalar> solve(const VectorT<Scalar>& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Entries stored in L + U (including fill-in) plus the raw
  /// off-diagonal-block entries a BTF factorisation keeps unfactored
  /// (diagnostic).
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return l_step_.size() + u_step_.size() + n_ + off_step_.size();
  }

  /// How many times the symbolic analysis has run (diagnostic; a steady
  /// Newton loop or AC sweep should see exactly 1).
  [[nodiscard]] int analysis_count() const noexcept {
    return analysis_count_;
  }

  /// Full / partial / skipped frozen passes since construction.
  [[nodiscard]] const RefactorStats& refactor_stats() const noexcept {
    return stats_;
  }

  /// Drop the cached symbolic analysis: the next refactor() re-analyses
  /// with fresh pivoting (allocates). Lets a driver re-pin the analysis
  /// to a chosen reference matrix after a frozen-pivot collapse
  /// re-ordered it mid-sweep -- the discipline SimSession::solve_ac uses
  /// to keep every frequency point's factorisation a pure function of
  /// (operating point, frequency, prime frequency), independent of which
  /// sweep point (or parallel worker) tripped the collapse.
  void invalidate_analysis() noexcept {
    analyzed_ = false;
    replay_ok_ = false;
  }

  /// A no-op: there is one symbolic path. Kept only for the benchmark
  /// harness's call.
  void set_options(const SparseOptions&) noexcept {}

  /// Diagonal-block count of the analysed pattern (1 when the pattern is
  /// irreducible; diagnostic, valid after a refactor()).
  [[nodiscard]] std::size_t btf_block_count() const noexcept {
    return btf_blocks_;
  }
  /// Always 0: the factorisation has no dense supernode kernel. Kept only
  /// for the benchmark harness's `linalg.supernode_cols` counter.
  [[nodiscard]] std::size_t supernode_size() const noexcept { return 0; }

  /// Numeric refactorisation of the kBatchLanes value lanes along the one
  /// cached pivot order -- the batched lot kernel, for real systems only.
  /// Each lane runs exactly the frozen numeric pass refactor() would run
  /// on its values (bit-identical factors, same column-relative pivot
  /// screen, same growth guard), but the inner loops carry all lanes
  /// together through each elimination step (unit-stride across the lane,
  /// in DPack packs).
  ///
  /// \pre a cached analysis for batch.pattern() exists: refactor() a
  ///      reference matrix sharing the pattern first. The analysis is
  ///      never redone here -- a lane whose values reject the frozen
  ///      pivots is *flagged*, not re-pivoted, so one bad die can never
  ///      perturb its lane mates' factors.
  /// \param lane_ok in: lanes to factor (non-zero entries); out: 1 iff
  ///        that lane factored cleanly -- finite values, non-zero matrix,
  ///        every frozen pivot above pivot_tol times the lane's own
  ///        column max, bounded element growth. Size must equal
  ///        kBatchLanes. The caller re-runs failed lanes through the
  ///        scalar path (which may re-analyse with fresh pivoting).
  /// Allocation-free once called with a given analysis; the scalar
  /// factors from refactor() are left untouched.
  void refactor_batch(const SparseValueBatch& batch,
                      std::vector<unsigned char>& lane_ok,
                      double pivot_tol = 1e-14)
    requires std::is_same_v<Scalar, double>;

  /// Solve A_l x_l = rhs_l for every lane of the last refactor_batch().
  /// rhs is lane-fastest (entry i of lane l at rhs[i * kBatchLanes + l],
  /// kBatchLanes * size() total) and is overwritten by the solutions.
  /// Lanes that failed (or were inactive in) refactor_batch() receive
  /// unspecified values -- the arithmetic still runs branch-free across
  /// all lanes, and the reciprocal of a rejected pivot stays confined to
  /// its own lane. Allocation-free.
  void solve_batch(std::vector<double>& rhs) const
    requires std::is_same_v<Scalar, double>;

 private:
  /// Full factorisation with pivot search; caches order + pattern. Pivot
  /// acceptability is column-relative: pivot_tol * colmax_ (filled by
  /// refactor()).
  void analyze(const SparseMatrix& a, const std::vector<Scalar>& values,
               double pivot_tol);
  /// Numeric-only sparse replay along the cached order/pattern, replaying
  /// pivot steps [from, n) and keeping the stored factors of steps < from.
  /// Returns false on pivot breakdown (column-relative, via colmax_) or
  /// runaway element growth -- the frozen pivots were chosen for different
  /// numerics, e.g. a transient restamp whose companion conductances
  /// dwarf the values the analysis saw (caller re-analyses). The kept
  /// steps face the same two screens, judged on their stored pivots and
  /// growth_ against the current colmax_ and cap, so a pass fails exactly
  /// where a full pass would. `amax` = max|A| of the current matrix.
  [[nodiscard]] bool refactor_frozen(const SparseMatrix& pattern,
                                     const std::vector<Scalar>& values,
                                     double pivot_tol, double amax,
                                     std::size_t from);
  /// Fill growth_ from factors the analysis produced (the running max
  /// refactor_frozen would have recorded for them).
  void record_growth();
  [[nodiscard]] bool pattern_matches(const SparseMatrix& pattern) const;

  std::size_t n_ = 0;
  bool analyzed_ = false;
  int analysis_count_ = 0;
  std::size_t btf_blocks_ = 0;  ///< diagonal blocks of the analysed pattern
  /// Per-column max|A| of the matrix being refactored (the pivot test's
  /// column-relative scale); refilled by every refactor(), allocation-free
  /// once sized.
  std::vector<double> colmax_;

  // Identity of the analysed pattern (SparseMatrix::pattern_stamp is
  // process-unique per freeze, so equality means the same frozen CSR).
  std::uint64_t pattern_stamp_ = 0;

  // Permutations: step k processes row rperm_[k]; the pivot of step k is
  // column cperm_[k] (cstep_ is its inverse).
  std::vector<int> rperm_;
  std::vector<int> cperm_;
  std::vector<int> cstep_;
  std::vector<int> rstep_;  ///< inverse of rperm_: the step of each row

  // Incremental refactor state. While replay_ok_ holds, the stored
  // factors are exactly what a full frozen pass over last_values_ yields,
  // and growth_[k] is that pass's running growth max after step k. Sized
  // by analyze(); cleared by analyze(), invalidate_analysis() and any
  // failed pass.
  bool replay_ok_ = false;
  std::vector<Scalar> last_values_;
  std::vector<double> growth_;
  RefactorStats stats_;

  // Scatter map: A's CSR entry i lands in working slot astep_[i]. A
  // cross-block entry (see below) stays out of the scatter; its slot holds
  // ~s, negative, where s is the pivot step of its column.
  std::vector<int> astep_;

  // Frozen factor, indexed in pivot-step space. L has unit diagonal; U's
  // diagonal lives in udiag_, and rdiag_ holds its reciprocals, so the
  // solves multiply where they would divide. Every stored pivot has a
  // finite reciprocal (the pivot screens reject one that does not).
  std::vector<int> l_ptr_;
  std::vector<int> l_step_;
  std::vector<Scalar> l_val_;
  std::vector<int> u_ptr_;
  std::vector<int> u_step_;
  std::vector<Scalar> u_val_;
  std::vector<Scalar> udiag_;
  std::vector<Scalar> rdiag_;

  std::vector<Scalar> work_;          ///< dense scatter row (step space)
  mutable std::vector<Scalar> perm_;  ///< solve permutation buffer

  // Block-triangular structure. Blocks occupy contiguous step ranges
  // [bstep_ptr_[b], bstep_ptr_[b+1]); the factor above is block-diagonal,
  // and A entries crossing into a *later* block's columns stay unfactored:
  // they are copied raw each refactor (off_val_[t] = A value at CSR slot
  // off_a_idx_[t], astep_ is negative there so the scatter skips them) and
  // applied during block back-substitution in solve (x of later blocks is
  // final by then). That is what makes BTF a fill *win*: cross-block
  // columns never join any elimination pattern. An irreducible pattern
  // is one block: bstep_ptr_ = {0, n} and the off arrays are empty.
  std::vector<int> bstep_ptr_;
  std::vector<int> off_ptr_;    ///< per step: range into the off arrays
  std::vector<int> off_a_idx_;  ///< CSR value slot of each off entry
  std::vector<int> off_step_;   ///< pivot step of the entry's column
  std::vector<Scalar> off_val_;

  // Batched numeric state, kBatchLanes-wide lane-fastest planes
  // mirroring the scalar factor arrays (real systems only; empty under
  // Complex). Sized by refactor_batch on shape change only; independent
  // of the scalar factors so reference refactor() and batch passes
  // coexist.
  std::vector<double> l_val_b_;
  std::vector<double> u_val_b_;
  std::vector<double> udiag_b_;
  std::vector<double> rdiag_b_;
  std::vector<double> work_b_;            ///< step space * lanes
  std::vector<double> off_val_b_;         ///< off entries * lanes, raw copies
  std::vector<double> colmax_b_;          ///< cols * lanes
  std::vector<double> amax_b_;            ///< per-lane max|A|
  std::vector<double> gmax_b_;            ///< per-lane growth tracker
  mutable std::vector<double> perm_b_;    ///< batched solve buffer
};

using SparseLuFactorization = SparseLuFactorizationT<double>;
using ComplexSparseLuFactorization = SparseLuFactorizationT<Complex>;

extern template class SparseLuFactorizationT<double>;
extern template class SparseLuFactorizationT<Complex>;

}  // namespace icvbe::linalg
