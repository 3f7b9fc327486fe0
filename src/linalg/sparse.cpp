#include "icvbe/linalg/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <type_traits>

#include "icvbe/common/error.hpp"
#include "icvbe/common/simd.hpp"

namespace icvbe::linalg {

namespace {

/// Process-unique pattern stamps, shared across scalar instantiations so a
/// stamp value identifies one frozen CSR no matter which engine holds it.
std::atomic<std::uint64_t> g_next_pattern_stamp{1};

}  // namespace

// ---------------------------------------------------------- StampTape ---

template <typename Scalar>
std::size_t StampTape::miss(const SparseMatrixT<Scalar>& m, std::size_t r,
                            std::size_t c) {
  const std::size_t found = m.slot(r, c);  // throws outside the pattern
  if (cursor_ == slots_.size()) {
    ++misses_;  // an add beyond the taped length
    return found;
  }
  std::uint32_t& s = slots_[cursor_++];
  if (s != kUnrecorded) ++misses_;
  s = static_cast<std::uint32_t>(found);
  return found;
}

template std::size_t StampTape::miss(const SparseMatrixT<double>&,
                                     std::size_t, std::size_t);
template std::size_t StampTape::miss(const SparseMatrixT<Complex>&,
                                     std::size_t, std::size_t);

// ------------------------------------------------------ SparseMatrixT ---

template <typename Scalar>
void SparseMatrixT<Scalar>::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  frozen_ = false;
  coo_coords_.clear();
  coo_values_.clear();
  row_ptr_.clear();
  col_index_.clear();
  values_.clear();
  checkpoint_values_.clear();
  tape_.reset(0);
}

template <typename Scalar>
void SparseMatrixT<Scalar>::add_building(std::size_t r, std::size_t c,
                                         Scalar v) {
  ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::add: out of range");
  coo_coords_.emplace_back(static_cast<int>(r), static_cast<int>(c));
  coo_values_.push_back(v);
}

template <typename Scalar>
std::size_t SparseMatrixT<Scalar>::slot(std::size_t r, std::size_t c) const {
  ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::add: out of range");
  const int* first = col_index_.data() + row_ptr_[r];
  const int* last = col_index_.data() + row_ptr_[r + 1];
  const int* it = std::lower_bound(first, last, static_cast<int>(c));
  if (it == last || *it != static_cast<int>(c)) {
    throw Error("SparseMatrix::add: entry outside the frozen pattern");
  }
  return static_cast<std::size_t>(it - col_index_.data());
}

template <typename Scalar>
void SparseMatrixT<Scalar>::freeze_pattern() {
  if (frozen_) return;

  // Sort the registrations (row, col) and merge duplicates by summation.
  std::vector<std::size_t> order(coo_coords_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
              return coo_coords_[a] < coo_coords_[b];
            });

  row_ptr_.assign(rows_ + 1, 0);
  col_index_.clear();
  values_.clear();
  col_index_.reserve(order.size());
  values_.reserve(order.size());
  int last_r = -1;
  int last_c = -1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto [r, c] = coo_coords_[order[i]];
    const Scalar v = coo_values_[order[i]];
    if (r == last_r && c == last_c) {
      values_.back() += v;  // repeated registration of the same slot
      continue;
    }
    col_index_.push_back(c);
    values_.push_back(v);
    ++row_ptr_[static_cast<std::size_t>(r) + 1];  // per-row count for now
    last_r = r;
    last_c = c;
  }
  for (std::size_t r = 0; r < rows_; ++r) {  // counts -> offsets
    row_ptr_[r + 1] += row_ptr_[r];
  }

  tape_.reset(coo_coords_.size());
  coo_coords_.clear();
  coo_coords_.shrink_to_fit();
  coo_values_.clear();
  coo_values_.shrink_to_fit();
  frozen_ = true;
  pattern_stamp_ = g_next_pattern_stamp.fetch_add(1, std::memory_order_relaxed);
}

template <typename Scalar>
void SparseMatrixT<Scalar>::fill(Scalar value) {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::fill: freeze_pattern() first");
  std::fill(values_.begin(), values_.end(), value);
  tape_.rewind();
}

template <typename Scalar>
void SparseMatrixT<Scalar>::checkpoint() {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::checkpoint: freeze_pattern() first");
  checkpoint_values_.assign(values_.begin(), values_.end());
  checkpoint_cursor_ = tape_.cursor();
}

template <typename Scalar>
void SparseMatrixT<Scalar>::restore_checkpoint() {
  ICVBE_REQUIRE(frozen_ && checkpoint_values_.size() == values_.size(),
                "SparseMatrix::restore_checkpoint: no checkpoint of this "
                "pattern");
  std::copy(checkpoint_values_.begin(), checkpoint_values_.end(),
            values_.begin());
  tape_.seek(checkpoint_cursor_);
}

template <typename Scalar>
Scalar SparseMatrixT<Scalar>::at(std::size_t r, std::size_t c) const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::at: freeze_pattern() first");
  ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::at: out of range");
  const int* first = col_index_.data() + row_ptr_[r];
  const int* last = col_index_.data() + row_ptr_[r + 1];
  const int* it = std::lower_bound(first, last, static_cast<int>(c));
  if (it == last || *it != static_cast<int>(c)) return Scalar{};
  return values_[static_cast<std::size_t>(it - col_index_.data())];
}

template <typename Scalar>
MatrixT<Scalar> SparseMatrixT<Scalar>::to_dense() const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::to_dense: freeze_pattern() first");
  MatrixT<Scalar> m(rows_, cols_, Scalar{});
  for (std::size_t r = 0; r < rows_; ++r) {
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      m(r, static_cast<std::size_t>(col_index_[static_cast<std::size_t>(i)])) =
          values_[static_cast<std::size_t>(i)];
    }
  }
  return m;
}

template <typename Scalar>
VectorT<Scalar> SparseMatrixT<Scalar>::multiply(
    const VectorT<Scalar>& v) const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::multiply: freeze_pattern() first");
  ICVBE_REQUIRE(v.size() == cols_, "SparseMatrix::multiply: size mismatch");
  VectorT<Scalar> out(rows_, Scalar{});
  for (std::size_t r = 0; r < rows_; ++r) {
    Scalar acc{};
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      acc += values_[static_cast<std::size_t>(i)] *
             v[static_cast<std::size_t>(col_index_[static_cast<std::size_t>(i)])];
    }
    out[r] = acc;
  }
  return out;
}

template <typename Scalar>
double SparseMatrixT<Scalar>::max_abs() const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::max_abs: freeze_pattern() first");
  double m = 0.0;
  for (const Scalar& v : values_) m = std::max(m, scalar_abs(v));
  return m;
}

template class SparseMatrixT<double>;
template class SparseMatrixT<Complex>;

// -------------------------------------------------- SparseValueBatch ---

static_assert(kBatchLanes % common::kPackWidth == 0,
              "the batch width is a whole number of DPacks");

void SparseValueBatch::bind(const SparseMatrix& pattern) {
  ICVBE_REQUIRE(pattern.frozen(),
                "SparseValueBatch: freeze_pattern() before binding");
  pattern_ = &pattern;
  values_.assign(pattern.nonzeros() * kBatchLanes, 0.0);
  tape_.reset(pattern.tape().size());
}

const SparseMatrix& SparseValueBatch::pattern() const {
  ICVBE_REQUIRE(pattern_ != nullptr, "SparseValueBatch: bind() first");
  return *pattern_;
}

void SparseValueBatch::clear_lane(std::size_t lane) {
  ICVBE_REQUIRE(lane < kBatchLanes, "SparseValueBatch: lane out of range");
  // Blocked walk: one running pointer, four slots per trip, which is
  // measurably faster than re-deriving v[i * K] per element at campaign
  // nnz (~4e5 entries).
  constexpr std::size_t k = kBatchLanes;
  double* v = values_.data() + lane;
  const std::size_t nnz = values_.size() / k;
  std::size_t i = 0;
  for (; i + 4 <= nnz; i += 4, v += 4 * k) {
    v[0] = 0.0;
    v[k] = 0.0;
    v[2 * k] = 0.0;
    v[3 * k] = 0.0;
  }
  for (; i < nnz; ++i, v += k) *v = 0.0;
  tape_.rewind();
}

void SparseValueBatch::load_lane(std::size_t lane, const SparseMatrix& m) {
  ICVBE_REQUIRE(lane < kBatchLanes, "SparseValueBatch: lane out of range");
  ICVBE_REQUIRE(pattern_ != nullptr && m.pattern_stamp() == pattern_stamp(),
                "SparseValueBatch::load_lane: pattern mismatch");
  constexpr std::size_t k = kBatchLanes;
  const std::vector<double>& src = m.values();
  double* v = values_.data() + lane;
  std::size_t i = 0;
  for (; i + 4 <= src.size(); i += 4, v += 4 * k) {  // blocked, as above
    v[0] = src[i];
    v[k] = src[i + 1];
    v[2 * k] = src[i + 2];
    v[3 * k] = src[i + 3];
  }
  for (; i < src.size(); ++i, v += k) *v = src[i];
}

// -------------------------------------------- SparseLuFactorizationT ---

namespace {

/// Relative numeric threshold for the Markowitz-flavoured pivot choice:
/// among candidates within this factor of the largest available pivot the
/// structurally sparsest column wins. SPICE tradition uses 0.1; 0.5 buys
/// roughly two digits of factor accuracy on 1000-node meshes (measured
/// dense-vs-sparse agreement 1e-14 vs 1e-10) for a modest fill increase,
/// which the tight-tolerance equivalence suite relies on.
constexpr double kPivotRelThreshold = 0.5;

/// Symmetrised pattern as sorted, deduplicated adjacency lists (no self
/// loops) -- the graph amd_order runs on.
std::vector<std::vector<int>> symmetrized_adjacency(
    const std::vector<int>& row_ptr, const std::vector<int>& col_index,
    std::size_t n) {
  std::vector<std::vector<int>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (static_cast<std::size_t>(c) != r) {
        adj[r].push_back(c);
        adj[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
      }
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

/// Approximate minimum degree on a quotient graph (Amestoy/Davis/Duff
/// shape): eliminated pivots survive as *elements* (their neighbourhood
/// clique represented implicitly), indistinguishable variables merge into
/// *supervariables* (one elimination covers all members), and degrees are
/// the external-degree approximation computed with the |Le \ Lp| counter
/// trick -- each pivot costs work proportional to the size of the
/// structures it touches instead of the clique it would materialise.
///
/// Determinism: pivot selection is exact (degree, index) min via a
/// lazy-deletion heap, supervariable candidates are scanned in sorted
/// (hash, index) order, and each supervariable emits its members in
/// ascending index order. Input adjacency must be sorted/deduplicated
/// (symmetrized_adjacency's output); it is consumed in place.
std::vector<int> amd_graph_order(std::size_t n,
                                 std::vector<std::vector<int>> vadj) {
  std::vector<int> order;
  order.reserve(n);
  if (n == 0) return order;

  std::vector<long long> nv(n, 1);  ///< supervariable weight
  std::vector<char> is_elem(n, 0);
  std::vector<char> absorbed(n, 0);
  std::vector<char> dead_elem(n, 0);
  std::vector<std::vector<int>> eadj(n);   ///< live var -> adjacent elements
  std::vector<std::vector<int>> elist(n);  ///< element -> member variables
  std::vector<long long> esize(n, 0);      ///< element -> live member weight
  std::vector<long long> degree(n, 0);     ///< external-degree approximation
  std::vector<long long> wde(n, -1);       ///< |Le \ Lp| scratch per element
  std::vector<char> mark(n, 0);
  std::vector<int> merge_head(n, -1);      ///< absorbed-children chain...
  std::vector<int> merge_next(n, -1);      ///< ...for supervariable emission
  std::vector<std::uint64_t> hash(n, 0);

  using Entry = std::pair<long long, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = static_cast<long long>(vadj[v].size());
    pq.push({degree[v], static_cast<int>(v)});
  }

  // Sorted-list equality modulo {skip_a, skip_b} and absorbed entries --
  // the indistinguishability test (covers both adjacent supervariable
  // pairs, where each list holds the other, and non-adjacent twins).
  const auto filtered_equal = [&absorbed](const std::vector<int>& a,
                                          const std::vector<int>& b,
                                          int skip_a, int skip_b) {
    std::size_t x = 0;
    std::size_t y = 0;
    while (true) {
      while (x < a.size() &&
             (a[x] == skip_a || a[x] == skip_b ||
              absorbed[static_cast<std::size_t>(a[x])])) {
        ++x;
      }
      while (y < b.size() &&
             (b[y] == skip_a || b[y] == skip_b ||
              absorbed[static_cast<std::size_t>(b[y])])) {
        ++y;
      }
      if (x == a.size() || y == b.size()) {
        return x == a.size() && y == b.size();
      }
      if (a[x] != b[y]) return false;
      ++x;
      ++y;
    }
  };

  std::vector<int> lp;       ///< live neighbourhood of the pivot
  std::vector<int> touched;  ///< elements whose wde is set this round
  std::vector<int> emit;
  long long remaining = static_cast<long long>(n);

  while (order.size() < n) {
    // Lazy-deletion min-heap: entries are pushed on every degree change;
    // one is valid iff its node is live and the degree still matches.
    int p = -1;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      const std::size_t sv = static_cast<std::size_t>(v);
      if (!is_elem[sv] && !absorbed[sv] && d == degree[sv]) {
        p = v;
        break;
      }
    }
    ICVBE_REQUIRE(p >= 0, "amd_order: no live pivot left");
    const std::size_t sp = static_cast<std::size_t>(p);

    // Lp: the pivot's live neighbourhood -- its variable neighbours plus
    // every live member of its adjacent elements. Each such element's
    // members all land in Lp, so the element is absorbed by the new one.
    lp.clear();
    mark[sp] = 1;
    for (int v : vadj[sp]) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
      mark[sv] = 1;
      lp.push_back(v);
    }
    for (int e : eadj[sp]) {
      const std::size_t se = static_cast<std::size_t>(e);
      if (dead_elem[se]) continue;
      for (int v : elist[se]) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
        mark[sv] = 1;
        lp.push_back(v);
      }
      dead_elem[se] = 1;  // Le is a subset of Lp + pivot: absorbed
      elist[se].clear();
    }
    long long lpw = 0;
    for (int v : lp) lpw += nv[static_cast<std::size_t>(v)];

    // w[e] = |Le \ Lp| in weight for every element adjacent to Lp (the
    // counter trick: start at the element's live weight, subtract each Lp
    // member it contains).
    touched.clear();
    for (int i : lp) {
      for (int e : eadj[static_cast<std::size_t>(i)]) {
        const std::size_t se = static_cast<std::size_t>(e);
        if (dead_elem[se]) continue;
        if (wde[se] < 0) {
          wde[se] = esize[se];
          touched.push_back(e);
        }
        wde[se] -= nv[static_cast<std::size_t>(i)];
      }
    }

    // Per-member update: prune dead state from the quotient graph and
    // recompute the approximate external degree
    //   d(i) ~ |A_i \ Lp| + |Lp \ i| + sum_e |Le \ Lp|,
    // clamped by the exact bounds (remaining weight; old degree + new
    // element contribution).
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      auto& va = vadj[si];
      std::size_t wv = 0;
      long long aw = 0;
      for (int v : va) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
        va[wv++] = v;
        aw += nv[sv];
      }
      va.resize(wv);
      auto& ea = eadj[si];
      std::size_t we = 0;
      long long esum = 0;
      for (int e : ea) {
        const std::size_t se = static_cast<std::size_t>(e);
        if (dead_elem[se]) continue;
        if (wde[se] == 0) {
          // Everything the element covers is already in Lp: absorbed.
          dead_elem[se] = 1;
          elist[se].clear();
          continue;
        }
        ea[we++] = e;
        esum += wde[se];
      }
      ea.resize(we);
      ea.push_back(p);
      std::sort(ea.begin(), ea.end());
      long long d = aw + (lpw - nv[si]) + esum;
      d = std::min(d, remaining - nv[sp] - nv[si]);
      d = std::min(d, degree[si] + (lpw - nv[si]));
      degree[si] = std::max<long long>(d, 0);
    }

    // Supervariable detection among Lp's members: identical quotient-graph
    // adjacency (modulo each other) means the nodes are indistinguishable
    // and can be eliminated as one. Hash buckets keep the scan cheap; the
    // comparison itself is exact, so a hash miss only costs a merge.
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      std::uint64_t h =
          0x9e3779b97f4a7c15ull * (vadj[si].size() + 31 * eadj[si].size() + 1);
      for (int v : vadj[si]) {
        h += 0x100000001b3ull * static_cast<std::uint64_t>(v + 1);
      }
      for (int e : eadj[si]) {
        h += 0x100000001b3ull * static_cast<std::uint64_t>(e + 1);
      }
      hash[si] = h;
    }
    std::sort(lp.begin(), lp.end(), [&hash](int a, int b) {
      const std::uint64_t ha = hash[static_cast<std::size_t>(a)];
      const std::uint64_t hb = hash[static_cast<std::size_t>(b)];
      return ha != hb ? ha < hb : a < b;
    });
    for (std::size_t bi = 0; bi < lp.size();) {
      std::size_t bj = bi + 1;
      while (bj < lp.size() &&
             hash[static_cast<std::size_t>(lp[bj])] ==
                 hash[static_cast<std::size_t>(lp[bi])]) {
        ++bj;
      }
      for (std::size_t x = bi; x < bj; ++x) {
        const int i = lp[x];
        const std::size_t si = static_cast<std::size_t>(i);
        if (absorbed[si]) continue;
        for (std::size_t y = x + 1; y < bj; ++y) {
          const int j = lp[y];
          const std::size_t sj = static_cast<std::size_t>(j);
          if (absorbed[sj]) continue;
          if (eadj[si].size() != eadj[sj].size() ||
              !std::equal(eadj[si].begin(), eadj[si].end(),
                          eadj[sj].begin()) ||
              !filtered_equal(vadj[si], vadj[sj], i, j)) {
            continue;
          }
          // Merge j into i: i's one elimination will cover both.
          nv[si] += nv[sj];
          degree[si] -= nv[sj];
          absorbed[sj] = 1;
          merge_next[j] = merge_head[i];
          merge_head[i] = j;
          vadj[sj].clear();
          eadj[sj].clear();
        }
      }
      bi = bj;
    }

    // Re-queue the surviving members at their new degrees.
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      if (absorbed[si]) continue;
      pq.push({degree[si], i});
    }

    // The pivot becomes an element whose members are Lp's survivors (the
    // merges conserved the weight).
    is_elem[sp] = 1;
    elist[sp].clear();
    for (int v : lp) {
      if (!absorbed[static_cast<std::size_t>(v)]) elist[sp].push_back(v);
    }
    esize[sp] = lpw;
    vadj[sp].clear();
    eadj[sp].clear();

    // Reset the round's scratch.
    mark[sp] = 0;
    for (int v : lp) mark[static_cast<std::size_t>(v)] = 0;
    for (int e : touched) wde[static_cast<std::size_t>(e)] = -1;

    // Emit the pivot supervariable: p plus everything ever merged into it
    // (transitively), in ascending index order.
    emit.clear();
    emit.push_back(p);
    for (std::size_t head = 0; head < emit.size(); ++head) {
      for (int c = merge_head[emit[head]]; c >= 0; c = merge_next[c]) {
        emit.push_back(c);
      }
    }
    std::sort(emit.begin(), emit.end());
    order.insert(order.end(), emit.begin(), emit.end());
    remaining -= nv[sp];
  }
  return order;
}

}  // namespace

std::vector<int> amd_order(const std::vector<int>& row_ptr,
                           const std::vector<int>& col_index, std::size_t n) {
  return amd_graph_order(n, symmetrized_adjacency(row_ptr, col_index, n));
}

BtfDecomposition btf_decompose(const std::vector<int>& row_ptr,
                               const std::vector<int>& col_index,
                               std::size_t n) {
  // --- maximum transversal (Kuhn's augmenting paths, iterative) ---------
  std::vector<int> match_col(n, -1);  // column -> matched row
  std::vector<int> match_row(n, -1);  // row -> matched column
  // Cheap pass, diagonal first: MNA rows are structurally diagonal except
  // for source/aux equations, and an identity-heavy matching keeps the
  // row<->matched-column identification (which the per-block ordering
  // eliminates on) close to the matrix's natural symmetric structure.
  // Matching first-free-column instead shifts the whole matching by one
  // along chain topologies and costs ~10% factor fill on ladders.
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      if (col_index[static_cast<std::size_t>(i)] == static_cast<int>(r)) {
        match_col[r] = static_cast<int>(r);
        match_row[r] = static_cast<int>(r);
        break;
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {  // then first free column
    if (match_row[r] >= 0) continue;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (match_col[static_cast<std::size_t>(c)] < 0) {
        match_col[static_cast<std::size_t>(c)] = static_cast<int>(r);
        match_row[r] = c;
        break;
      }
    }
  }
  std::vector<int> visited(n, -1);  // column -> DFS stamp
  std::vector<std::pair<int, int>> stack;  // (row, entry cursor)
  std::vector<int> via;  // column linking stack[d-1] to stack[d]
  for (std::size_t r0 = 0; r0 < n; ++r0) {
    if (match_row[r0] >= 0) continue;
    const int stamp = static_cast<int>(r0);
    stack.assign(1, {static_cast<int>(r0), row_ptr[r0]});
    via.assign(1, -1);
    bool found = false;
    while (!stack.empty() && !found) {
      auto& fr = stack.back();
      const int r = fr.first;
      if (fr.second >= row_ptr[static_cast<std::size_t>(r) + 1]) {
        stack.pop_back();
        via.pop_back();
        continue;
      }
      const int c = col_index[static_cast<std::size_t>(fr.second++)];
      if (visited[static_cast<std::size_t>(c)] == stamp) continue;
      visited[static_cast<std::size_t>(c)] = stamp;
      if (match_col[static_cast<std::size_t>(c)] < 0) {
        // Free column: flip the alternating path along the DFS stack.
        int col = c;
        for (std::size_t d = stack.size(); d-- > 0;) {
          const int rr = stack[d].first;
          match_row[static_cast<std::size_t>(rr)] = col;
          match_col[static_cast<std::size_t>(col)] = rr;
          if (d > 0) col = via[d];
        }
        found = true;
      } else {
        const int rnext = match_col[static_cast<std::size_t>(c)];
        stack.emplace_back(rnext, row_ptr[static_cast<std::size_t>(rnext)]);
        via.push_back(c);
      }
    }
    if (!found) {
      throw NumericalError(
          "sparse BTF: pattern is structurally singular (no perfect "
          "matching covers row " +
          std::to_string(r0) + ")");
    }
  }

  // --- SCC condensation of the matched graph (iterative Tarjan) ---------
  // Node r's successors are the matched rows of r's columns; an SCC is a
  // diagonal block. Tarjan emits SCCs in reverse topological order, so
  // block id = (count - 1 - emission index) makes every cross-block entry
  // land in a *later* block: block upper triangular.
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> scc_stack;
  std::vector<int> comp(n, -1);
  std::vector<std::pair<int, int>> frames;  // (row, entry cursor)
  int index = 0;
  int ncomp = 0;
  for (std::size_t r0 = 0; r0 < n; ++r0) {
    if (disc[r0] >= 0) continue;
    disc[r0] = low[r0] = index++;
    scc_stack.push_back(static_cast<int>(r0));
    on_stack[r0] = 1;
    frames.assign(1, {static_cast<int>(r0), row_ptr[r0]});
    while (!frames.empty()) {
      auto& f = frames.back();
      const int r = f.first;
      if (f.second < row_ptr[static_cast<std::size_t>(r) + 1]) {
        const int c = col_index[static_cast<std::size_t>(f.second++)];
        const int s = match_col[static_cast<std::size_t>(c)];
        if (s == r) continue;
        if (disc[static_cast<std::size_t>(s)] < 0) {
          disc[static_cast<std::size_t>(s)] =
              low[static_cast<std::size_t>(s)] = index++;
          scc_stack.push_back(s);
          on_stack[static_cast<std::size_t>(s)] = 1;
          frames.emplace_back(s, row_ptr[static_cast<std::size_t>(s)]);
        } else if (on_stack[static_cast<std::size_t>(s)]) {
          low[static_cast<std::size_t>(r)] =
              std::min(low[static_cast<std::size_t>(r)],
                       disc[static_cast<std::size_t>(s)]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().first;
        low[static_cast<std::size_t>(parent)] =
            std::min(low[static_cast<std::size_t>(parent)],
                     low[static_cast<std::size_t>(r)]);
      }
      if (low[static_cast<std::size_t>(r)] ==
          disc[static_cast<std::size_t>(r)]) {
        while (true) {
          const int v = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<std::size_t>(v)] = 0;
          comp[static_cast<std::size_t>(v)] = ncomp;
          if (v == r) break;
        }
        ++ncomp;
      }
    }
  }

  BtfDecomposition btf;
  btf.row_block.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    btf.row_block[r] = ncomp - 1 - comp[r];
  }
  btf.block_ptr.assign(static_cast<std::size_t>(ncomp) + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    ++btf.block_ptr[static_cast<std::size_t>(btf.row_block[r]) + 1];
  }
  for (int b = 0; b < ncomp; ++b) {
    btf.block_ptr[static_cast<std::size_t>(b) + 1] +=
        btf.block_ptr[static_cast<std::size_t>(b)];
  }
  btf.row_order.resize(n);
  std::vector<int> cursor(btf.block_ptr.begin(), btf.block_ptr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {  // ascending row id within a block
    btf.row_order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(btf.row_block[r])]++)] =
        static_cast<int>(r);
  }
  btf.match_col = std::move(match_row);
  return btf;
}

template <typename Scalar>
bool SparseLuFactorizationT<Scalar>::pattern_matches(
    const SparseMatrixT<Scalar>& a) const {
  return analyzed_ && n_ == a.rows() && pattern_stamp_ == a.pattern_stamp();
}

namespace {

/// The incremental refactor's change test. Bitwise, not operator==: a
/// value that compares equal but differs in its bits (0.0 vs -0.0) still
/// counts as changed, so kept factors never depend on such a value.
template <typename Scalar>
bool same_bits(const Scalar& a, const Scalar& b) noexcept {
  return std::memcmp(&a, &b, sizeof(Scalar)) == 0;
}

bool is_negative_zero(double x) noexcept {
  return x == 0.0 && std::signbit(x);
}

bool is_negative_zero(const Complex& z) noexcept {
  return is_negative_zero(z.real()) || is_negative_zero(z.imag());
}

/// The pivot screen every factor pass applies: the pivot clears its
/// column-relative floor (the inverted comparison rejects NaN, and 0 > 0
/// being false keeps an exact zero out even when the floor underflows to
/// 0), and its reciprocal -- which the solves multiply by -- is finite, so
/// a subnormal pivot fails here instead of putting inf into a solution.
template <typename Scalar>
bool pivot_ok(const Scalar& d, const Scalar& rd, double tol) noexcept {
  return (scalar_abs(d) > tol) & scalar_is_finite(rd);
}

}  // namespace

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::refactor(const SparseMatrixT<Scalar>& a,
                                              double pivot_tol) {
  ICVBE_REQUIRE(a.frozen(),
                "sparse LU: freeze_pattern() before factoring");
  ICVBE_REQUIRE(a.rows() == a.cols(), "sparse LU: matrix must be square");
  ICVBE_REQUIRE(a.rows() > 0, "sparse LU: empty matrix");

  // Deterministic input screening: a NaN would otherwise win or lose every
  // pivot comparison silently and only surface at the first solve. The
  // same pass fills the per-column maxima the column-relative pivot test
  // uses (AC systems legitimately span many decades across columns, so a
  // global max|A| threshold would misdiagnose them as singular). When the
  // stored factors can be replayed it also compares every value bitwise
  // with the one they were computed from, and finds the first pivot step
  // whose row changed; cross-block entries never enter the elimination, so
  // they do not count.
  const bool replay = replay_ok_ && pattern_matches(a);
  replay_ok_ = false;  // re-established only by a pass that succeeds
  double amax = 0.0;
  bool finite = true;
  std::size_t from = replay ? n_ : 0;
  colmax_.assign(a.cols(), 0.0);
  const std::vector<int>& rows = a.row_ptr();
  const std::vector<int>& cols = a.col_index();
  const std::vector<Scalar>& vals = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    bool changed = false;
    for (int i = rows[r]; i < rows[r + 1]; ++i) {
      const std::size_t e = static_cast<std::size_t>(i);
      if (!scalar_is_finite(vals[e])) finite = false;
      const double v = scalar_abs(vals[e]);
      amax = std::max(amax, v);
      const std::size_t c = static_cast<std::size_t>(cols[e]);
      colmax_[c] = std::max(colmax_[c], v);
      if (replay && !same_bits(vals[e], last_values_[e])) {
        last_values_[e] = vals[e];
        changed = changed || astep_[e] >= 0;
      }
    }
    if (changed) from = std::min(from, static_cast<std::size_t>(rstep_[r]));
  }
  if (!finite) {
    throw NumericalError("sparse LU: matrix has non-finite entries");
  }
  if (amax == 0.0) {
    // Maximally singular, not API misuse: stay inside the Newton fallback
    // machinery like any other singular Jacobian (dense engine agrees).
    throw NumericalError("sparse LU: zero matrix");
  }

  bool factored = false;
  if (pattern_matches(a)) {
    ++(from == 0 ? stats_.full : from < n_ ? stats_.partial : stats_.skipped);
    stats_.steps_replayed += n_ - from;
    factored = refactor_frozen(a, pivot_tol, amax, from);
    // Without a replay the pass above did not track the values.
    if (factored && !replay) {
      std::copy(vals.begin(), vals.end(), last_values_.begin());
    }
    replay_ok_ = factored;
  }
  if (!factored) {
    // First factorisation, new pattern, or a frozen pivot collapsed: run
    // the full analysis with fresh pivoting. A failed replay fails at the
    // step a full pass would (the kept factors are the ones it would
    // recompute, under the same screens), so there is no full pass to
    // retry first.
    analyze(a, pivot_tol);
    // The analysis's pass is the frozen kernel's arithmetic step for
    // step, except that it copies A's values where the kernel adds them
    // to zero: a -0.0 entry would make the two differ in the sign of a
    // zero, so such a matrix is not replayed from.
    record_growth();
    replay_ok_ = std::none_of(vals.begin(), vals.end(), [](const Scalar& v) {
      return is_negative_zero(v);
    });
  }
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::record_growth() {
  double gmax = 0.0;
  for (std::size_t k = 0; k < n_; ++k) {
    gmax = std::max(gmax, scalar_abs(udiag_[k]));
    for (int ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
      gmax = std::max(gmax, scalar_abs(u_val_[static_cast<std::size_t>(ui)]));
    }
    growth_[k] = gmax;
  }
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::analyze(const SparseMatrixT<Scalar>& a,
                                             double pivot_tol) {
  const std::size_t n = a.rows();
  const std::vector<int>& row_ptr = a.row_ptr();
  const std::vector<int>& col_index = a.col_index();
  const std::vector<Scalar>& values = a.values();

  analyzed_ = false;
  replay_ok_ = false;
  n_ = n;

  // --- symbolic pre-order ------------------------------------------------
  // The matching rejects structurally singular patterns before any
  // numeric work, rows are grouped block by block (so LU never fills
  // across blocks), and AMD runs per diagonal block on the matched
  // row<->column identification.
  const BtfDecomposition btf = btf_decompose(row_ptr, col_index, n);
  btf_blocks_ = btf.block_count();
  const std::vector<int>& row_block = btf.row_block;  // pivot confinement
  std::vector<int> col_block(n, 0);                    // block id per column
  for (std::size_t r = 0; r < n; ++r) {
    col_block[static_cast<std::size_t>(btf.match_col[r])] = btf.row_block[r];
  }
  rperm_.clear();
  rperm_.reserve(n);
  std::vector<int> local_of_col(n, -1);
  std::vector<std::vector<int>> adj;
  std::vector<int> block_rows;
  for (std::size_t b = 0; b < btf.block_count(); ++b) {
    const int lo = btf.block_ptr[b];
    const int hi = btf.block_ptr[b + 1];
    const std::size_t m = static_cast<std::size_t>(hi - lo);
    if (m == 1) {
      rperm_.push_back(btf.row_order[static_cast<std::size_t>(lo)]);
      continue;
    }
    block_rows.assign(btf.row_order.begin() + lo, btf.row_order.begin() + hi);
    for (std::size_t k = 0; k < m; ++k) {
      local_of_col[static_cast<std::size_t>(
          btf.match_col[static_cast<std::size_t>(block_rows[k])])] =
          static_cast<int>(k);
    }
    // Local symmetrised graph: row k of the block is identified with
    // its matched column (the vertex the elimination merges them into).
    adj.assign(m, {});
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t r = static_cast<std::size_t>(block_rows[k]);
      for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
        const int lc = local_of_col[static_cast<std::size_t>(col_index[i])];
        if (lc >= 0 && lc != static_cast<int>(k)) {
          adj[k].push_back(lc);
          adj[static_cast<std::size_t>(lc)].push_back(static_cast<int>(k));
        }
      }
    }
    for (auto& al : adj) {
      std::sort(al.begin(), al.end());
      al.erase(std::unique(al.begin(), al.end()), al.end());
    }
    const std::vector<int> local = amd_graph_order(m, std::move(adj));
    for (int v : local) {
      rperm_.push_back(block_rows[static_cast<std::size_t>(v)]);
    }
    for (std::size_t k = 0; k < m; ++k) {
      local_of_col[static_cast<std::size_t>(
          btf.match_col[static_cast<std::size_t>(block_rows[k])])] = -1;
    }
  }
  // Blocks occupy contiguous step ranges (rperm_ was emitted block by
  // block), so the BTF block offsets are the solve-time step fences.
  bstep_ptr_.assign(btf.block_ptr.begin(), btf.block_ptr.end());

  cstep_.assign(n, -1);
  cperm_.assign(n, -1);
  udiag_.assign(n, Scalar{});
  rdiag_.assign(n, Scalar{});

  // Static column degrees of A: the sparsity half of the Markowitz cost.
  std::vector<int> coldeg(n, 0);
  for (int c : col_index) ++coldeg[static_cast<std::size_t>(c)];

  // Growing factor rows; frozen into flat arrays afterwards.
  std::vector<std::vector<std::pair<int, Scalar>>> lrows(n);  // (step, mult)
  std::vector<std::vector<std::pair<int, Scalar>>> urows(n);  // (col, val)

  std::vector<Scalar> w(n, Scalar{});  // dense scatter row, by column id
  std::vector<char> inpat(n, 0);
  std::vector<int> pattern;
  std::vector<char> step_seen(n, 0);
  std::vector<int> steps_touched;
  std::priority_queue<int, std::vector<int>, std::greater<int>> heap;

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = static_cast<std::size_t>(rperm_[k]);
    // Only the row's own BTF block participates: its columns are exactly
    // what its rows can eliminate (earlier blocks are fully pivoted, later
    // blocks belong to later rows), so filtering the scatter below
    // confines the pattern -- and hence the pivot search -- to the block.
    const int cur_block = row_block[r];
    // Scatter row r of A. Entries whose column belongs to a *later* BTF
    // block stay out of the elimination entirely (block-diagonal factor;
    // they are applied raw during block back-substitution), so neither
    // they nor any fill they would cascade ever enter the pattern.
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (col_block[static_cast<std::size_t>(c)] != cur_block) continue;
      inpat[static_cast<std::size_t>(c)] = 1;
      pattern.push_back(c);
      w[static_cast<std::size_t>(c)] = values[static_cast<std::size_t>(i)];
      const int js = cstep_[static_cast<std::size_t>(c)];
      if (js >= 0 && !step_seen[static_cast<std::size_t>(js)]) {
        step_seen[static_cast<std::size_t>(js)] = 1;
        steps_touched.push_back(js);
        heap.push(js);
      }
    }

    // Eliminate against earlier pivot rows in ascending step order. An
    // update from step j only reaches steps > j, so the heap pops each
    // dependency exactly when its value is final.
    while (!heap.empty()) {
      const int j = heap.top();
      heap.pop();
      const std::size_t cj = static_cast<std::size_t>(cperm_[j]);
      const Scalar lv = w[cj] / udiag_[static_cast<std::size_t>(j)];
      w[cj] = lv;  // L multiplier, kept in place for the gather below
      lrows[k].emplace_back(j, lv);
      for (const auto& [uc, uv] : urows[static_cast<std::size_t>(j)]) {
        const std::size_t u = static_cast<std::size_t>(uc);
        if (!inpat[u]) {
          inpat[u] = 1;
          pattern.push_back(uc);
          w[u] = Scalar{};
          const int us = cstep_[u];
          if (us >= 0 && !step_seen[static_cast<std::size_t>(us)]) {
            step_seen[static_cast<std::size_t>(us)] = 1;
            steps_touched.push_back(us);
            heap.push(us);
          }
        }
        w[u] -= lv * uv;
      }
    }

    // Pivot choice among the not-yet-pivoted columns: numerically
    // acceptable (column-relative magnitude floor, then threshold partial
    // pivoting against the largest acceptable candidate), then
    // structurally sparsest. A candidate must pass the frozen passes'
    // pivot screen (pivot_ok).
    const auto acceptable = [&](std::size_t ci) {
      return pivot_ok(w[ci], Scalar(1.0) / w[ci], pivot_tol * colmax_[ci]);
    };
    double umax = 0.0;
    for (int c : pattern) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (cstep_[ci] >= 0 || !acceptable(ci)) continue;
      umax = std::max(umax, scalar_abs(w[ci]));
    }
    if (!(umax > 0.0)) {
      throw NumericalError(
          "sparse LU: matrix is singular to working precision at "
          "elimination step " +
          std::to_string(k) + " of " + std::to_string(n));
    }
    int best_col = -1;
    for (int c : pattern) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (cstep_[ci] >= 0 || !acceptable(ci)) continue;
      if (scalar_abs(w[ci]) < kPivotRelThreshold * umax) continue;
      if (best_col < 0 ||
          coldeg[ci] < coldeg[static_cast<std::size_t>(best_col)] ||
          (coldeg[ci] == coldeg[static_cast<std::size_t>(best_col)] &&
           c < best_col)) {
        best_col = c;
      }
    }
    cstep_[static_cast<std::size_t>(best_col)] = static_cast<int>(k);
    cperm_[k] = best_col;
    udiag_[k] = w[static_cast<std::size_t>(best_col)];
    rdiag_[k] = Scalar(1.0) / udiag_[k];

    // Record this row's U part -- every pattern position, including exact
    // numeric zeros: the fill pattern must not depend on the operating
    // point the analysis happened to run at.
    for (int c : pattern) {
      if (cstep_[static_cast<std::size_t>(c)] < 0) {
        urows[k].emplace_back(c, w[static_cast<std::size_t>(c)]);
      }
    }

    // Reset scratch state for the next row.
    for (int c : pattern) {
      inpat[static_cast<std::size_t>(c)] = 0;
      w[static_cast<std::size_t>(c)] = Scalar{};
    }
    pattern.clear();
    for (int s : steps_touched) step_seen[static_cast<std::size_t>(s)] = 0;
    steps_touched.clear();
  }

  // Freeze into flat step-space arrays for the allocation-free refactor.
  l_ptr_.assign(n + 1, 0);
  u_ptr_.assign(n + 1, 0);
  std::size_t l_nnz = 0;
  std::size_t u_nnz = 0;
  for (std::size_t k = 0; k < n; ++k) {
    l_nnz += lrows[k].size();
    u_nnz += urows[k].size();
    l_ptr_[k + 1] = static_cast<int>(l_nnz);
    u_ptr_[k + 1] = static_cast<int>(u_nnz);
  }
  l_step_.resize(l_nnz);
  l_val_.resize(l_nnz);
  u_step_.resize(u_nnz);
  u_val_.resize(u_nnz);
  std::vector<std::pair<int, Scalar>> urow_steps;
  for (std::size_t k = 0; k < n; ++k) {
    // L rows were emitted in ascending step order already.
    for (std::size_t i = 0; i < lrows[k].size(); ++i) {
      l_step_[static_cast<std::size_t>(l_ptr_[k]) + i] = lrows[k][i].first;
      l_val_[static_cast<std::size_t>(l_ptr_[k]) + i] = lrows[k][i].second;
    }
    // U rows were recorded by column id; remap to the (now complete) pivot
    // steps and sort ascending.
    urow_steps.clear();
    for (const auto& [c, v] : urows[k]) {
      urow_steps.emplace_back(cstep_[static_cast<std::size_t>(c)], v);
    }
    std::sort(urow_steps.begin(), urow_steps.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t i = 0; i < urow_steps.size(); ++i) {
      u_step_[static_cast<std::size_t>(u_ptr_[k]) + i] = urow_steps[i].first;
      u_val_[static_cast<std::size_t>(u_ptr_[k]) + i] = urow_steps[i].second;
    }
  }

  // Scatter map: A entry i lands in step-space slot astep_[i]. Cross-block
  // entries get ~step, negative (the scatter skips them, and
  // condition_estimate still finds their column), and are indexed per
  // step for the raw copy + solve-time application instead.
  astep_.resize(col_index.size());
  for (std::size_t i = 0; i < col_index.size(); ++i) {
    astep_[i] = cstep_[static_cast<std::size_t>(col_index[i])];
  }
  off_ptr_.assign(n + 1, 0);
  off_a_idx_.clear();
  off_step_.clear();
  off_val_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = static_cast<std::size_t>(rperm_[k]);
    const int b = row_block[r];
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const std::size_t c = static_cast<std::size_t>(col_index[i]);
      if (col_block[c] == b) continue;
      astep_[static_cast<std::size_t>(i)] = ~cstep_[c];
      off_a_idx_.push_back(i);
      off_step_.push_back(cstep_[c]);
      off_val_.push_back(values[static_cast<std::size_t>(i)]);
    }
    off_ptr_[k + 1] = static_cast<int>(off_a_idx_.size());
  }

  work_.assign(n, Scalar{});
  perm_.assign(n, Scalar{});
  rstep_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    rstep_[static_cast<std::size_t>(rperm_[k])] = static_cast<int>(k);
  }
  last_values_.assign(values.begin(), values.end());
  growth_.assign(n, 0.0);
  pattern_stamp_ = a.pattern_stamp();
  analyzed_ = true;
  ++analysis_count_;
}

template <typename Scalar>
bool SparseLuFactorizationT<Scalar>::refactor_frozen(
    const SparseMatrixT<Scalar>& a, double pivot_tol, double amax,
    std::size_t from) {
  const std::size_t n = n_;
  const std::vector<int>& row_ptr = a.row_ptr();
  const std::vector<Scalar>& values = a.values();

  // Element-growth guard: with the pivot order frozen there is no
  // numerical pivoting left, so a restamp whose value distribution differs
  // wildly from the analysed one (a transient step's huge companion
  // conductances, or an AC restamp decades away in frequency, say) can
  // blow the factors up and yield a finite but garbage solution. Growth
  // beyond this factor over max|A| aborts the frozen pass; the caller
  // re-analyses with fresh pivoting (partial pivoting keeps growth within
  // ~2^n theory, single digits in practice).
  constexpr double kGrowthLimit = 1e8;
  const double growth_cap = kGrowthLimit * amax;
  double gmax = 0.0;

  // Cross-block entries never join the elimination: refresh their raw
  // copies for the solve's block back-substitution and skip them below
  // (their astep_ is negative).
  for (std::size_t t = 0; t < off_a_idx_.size(); ++t) {
    off_val_[t] = values[static_cast<std::size_t>(off_a_idx_[t])];
  }

  // Kept steps [0, from): their rows are unchanged, so their stored
  // factors are what the loop below would recompute bit for bit; only
  // their screens are re-judged, under this matrix's column maxima and
  // growth cap. growth_ is a running max, so its last kept entry stands
  // for every kept step.
  if (from > 0) {
    gmax = growth_[from - 1];
    if (gmax > growth_cap) return false;
    for (std::size_t k = 0; k < from; ++k) {
      const double tol =
          pivot_tol * colmax_[static_cast<std::size_t>(cperm_[k])];
      if (!(scalar_abs(udiag_[k]) > tol)) return false;
    }
  }

  // Sparse replay along the cached pattern.
  for (std::size_t k = from; k < n; ++k) {
    const std::size_t r = static_cast<std::size_t>(rperm_[k]);
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int s = astep_[static_cast<std::size_t>(i)];
      if (s >= 0) work_[static_cast<std::size_t>(s)] += values[static_cast<std::size_t>(i)];
    }
    for (int li = l_ptr_[k]; li < l_ptr_[k + 1]; ++li) {
      const std::size_t j =
          static_cast<std::size_t>(l_step_[static_cast<std::size_t>(li)]);
      const Scalar lv = work_[j] / udiag_[j];
      l_val_[static_cast<std::size_t>(li)] = lv;
      work_[j] = Scalar{};
      for (int ui = u_ptr_[j]; ui < u_ptr_[j + 1]; ++ui) {
        work_[static_cast<std::size_t>(
            u_step_[static_cast<std::size_t>(ui)])] -=
            lv * u_val_[static_cast<std::size_t>(ui)];
      }
    }
    const Scalar d = work_[k];
    work_[k] = Scalar{};
    gmax = std::max(gmax, scalar_abs(d));
    for (int ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
      const std::size_t us =
          static_cast<std::size_t>(u_step_[static_cast<std::size_t>(ui)]);
      const Scalar uv = work_[us];
      u_val_[static_cast<std::size_t>(ui)] = uv;
      gmax = std::max(gmax, scalar_abs(uv));
      work_[us] = Scalar{};
    }
    growth_[k] = gmax;
    const double tol =
        pivot_tol * colmax_[static_cast<std::size_t>(cperm_[k])];
    const Scalar rd = Scalar(1.0) / d;
    if (!pivot_ok(d, rd, tol) || gmax > growth_cap) {
      // Frozen pivot collapsed (judged against its own column's current
      // scale) or the factors are blowing up (the matrix may still be
      // fine under a different order); work_ is already clean for the
      // re-analysis -- both checks run after this row's gather.
      return false;
    }
    udiag_[k] = d;
    rdiag_[k] = rd;
  }
  return true;
}

namespace {

/// Lane-op policy of the batched kernels: explicit SIMD over the
/// lane-fastest planes. Each op is one of the kernels' inner loops over
/// one slot's kBatchLanes values, a fixed count of DPack packs that the
/// compiler unrolls flat -- at bandgap-cell sizes (n ~ 7, rows of 2-3
/// entries) runtime loop control would cost as much as the arithmetic.
/// All pack arithmetic is elementwise and FMA-free (see simd.hpp; under
/// ICVBE_SIMD=OFF DPack is the plain-array fallback), so every lane's FP
/// sequence is exactly the scalar refactor_frozen / solve_in_place one
/// and the planes come out bit-identical to scalar factors.
struct PackLaneOps {
  using P = common::DPack;
  static constexpr std::size_t W = common::kPackWidth;
  static constexpr std::size_t K = kBatchLanes;

  static void copy(double* dst, const double* src) noexcept {
    for (std::size_t p = 0; p < K; p += W) P::load(src + p).store(dst + p);
  }
  static void add(double* dst, const double* src) noexcept {
    for (std::size_t p = 0; p < K; p += W) {
      (P::load(dst + p) + P::load(src + p)).store(dst + p);
    }
  }
  static void div_take(double* lv, double* wj, const double* dj) noexcept {
    const P z = P::zero();
    for (std::size_t p = 0; p < K; p += W) {
      (P::load(wj + p) / P::load(dj + p)).store(lv + p);
      z.store(wj + p);
    }
  }
  static void submul(double* w, const double* lv, const double* uv) noexcept {
    for (std::size_t p = 0; p < K; p += W) {
      (P::load(w + p) - P::load(lv + p) * P::load(uv + p)).store(w + p);
    }
  }
  static void mul_inplace(double* p, const double* r) noexcept {
    for (std::size_t q = 0; q < K; q += W) {
      (P::load(p + q) * P::load(r + q)).store(p + q);
    }
  }
  static void take_absmax(double* dst, double* src, double* g) noexcept {
    const P z = P::zero();
    for (std::size_t p = 0; p < K; p += W) {
      const P v = P::load(src + p);
      v.store(dst + p);
      z.store(src + p);
      P::max(P::load(g + p), P::abs(v)).store(g + p);
    }
  }
  static void screen_input(unsigned char* ok, const double* v, double* amax,
                           double* cm) noexcept {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < K; p += W) {
      const P a = P::abs(P::load(v + p));
      P::max(P::load(amax + p), a).store(amax + p);
      P::max(P::load(cm + p), a).store(cm + p);
      for (std::size_t i = 0; i < W; ++i) {
        // |v| < inf is the finiteness test (|NaN| < inf is false).
        ok[p + i] = static_cast<unsigned char>(
            ok[p + i] & static_cast<unsigned char>(a[i] < kInf));
      }
    }
  }
  static void screen_pivot(unsigned char* ok, const double* dk, double* rd,
                           const double* cm, const double* g,
                           const double* cap, double pivot_tol) noexcept {
    // The reciprocals in packs; the byte-valued screen once per elimination
    // step, where scalar is the right tool.
    const P one = P::broadcast(1.0);
    for (std::size_t p = 0; p < K; p += W) {
      (one / P::load(dk + p)).store(rd + p);
    }
    for (std::size_t l = 0; l < K; ++l) {
      ok[l] = static_cast<unsigned char>(
          ok[l] &
          static_cast<unsigned char>(
              pivot_ok(dk[l], rd[l], pivot_tol * cm[l])) &
          static_cast<unsigned char>(!(g[l] > cap[l])));
    }
  }
};

}  // namespace

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::refactor_batch(
    const SparseValueBatch& batch, std::vector<unsigned char>& lane_ok,
    double pivot_tol)
  requires std::is_same_v<Scalar, double>
{
  using Ops = PackLaneOps;
  constexpr std::size_t K = kBatchLanes;
  ICVBE_REQUIRE(batch.bound(), "sparse LU batch: bind the value batch first");
  ICVBE_REQUIRE(analyzed_ && pattern_stamp_ == batch.pattern_stamp() &&
                    n_ == batch.rows(),
                "sparse LU batch: refactor() a reference matrix sharing the "
                "batch's pattern before refactor_batch()");
  ICVBE_REQUIRE(lane_ok.size() == K,
                "sparse LU batch: lane_ok size must equal kBatchLanes");

  // (Re)shape the lane planes; steady state re-enters with the same
  // analysis and never allocates.
  if (l_val_b_.size() != l_val_.size() * K ||
      u_val_b_.size() != u_val_.size() * K || udiag_b_.size() != n_ * K ||
      off_val_b_.size() != off_val_.size() * K) {
    l_val_b_.resize(l_val_.size() * K);
    u_val_b_.resize(u_val_.size() * K);
    udiag_b_.resize(n_ * K);
    rdiag_b_.resize(n_ * K);
    off_val_b_.resize(off_val_.size() * K);
    work_b_.resize(n_ * K);
    colmax_b_.resize(n_ * K);
    amax_b_.resize(K);
    gmax_b_.resize(K);
    perm_b_.resize(n_ * K);
  }
  // Failed lanes may have left garbage in the scatter planes last call
  // (the scalar pass keeps work_ clean by construction; an aborted lane
  // cannot).
  std::fill(work_b_.begin(), work_b_.end(), 0.0);
  std::fill(colmax_b_.begin(), colmax_b_.end(), 0.0);
  std::fill(amax_b_.begin(), amax_b_.end(), 0.0);
  std::fill(gmax_b_.begin(), gmax_b_.end(), 0.0);

  // Per-lane input screen: the batched twin of refactor()'s prologue.
  // Non-finite values or an all-zero matrix fail the lane (where the
  // scalar path throws); the same pass fills the per-lane column maxima
  // for the column-relative pivot test.
  const std::vector<int>& cols = batch.pattern().col_index();
  const std::vector<double>& vals = batch.values();
  const std::size_t nnz = vals.size() / K;
  for (std::size_t i = 0; i < nnz; ++i) {
    Ops::screen_input(
        lane_ok.data(), vals.data() + i * K, amax_b_.data(),
        colmax_b_.data() + static_cast<std::size_t>(cols[i]) * K);
  }
  for (std::size_t l = 0; l < K; ++l) {
    lane_ok[l] =
        static_cast<unsigned char>(lane_ok[l] & (amax_b_[l] > 0.0 ? 1 : 0));
    // The growth cap repurposes amax_b_ in place (amax is not needed
    // beyond this point).
    amax_b_[l] *= 1e8;  // kGrowthLimit, as in refactor_frozen
  }

  // Frozen numeric pass, all lanes per elimination step. Each lane's
  // per-slot operation sequence is exactly refactor_frozen's sparse
  // replay, so a lane that passes produces bit-identical factors to a
  // scalar refactor of the same values under this analysis. Lanes are
  // arithmetically independent: a rejected pivot only poisons its own
  // plane.
  const std::vector<int>& row_ptr = batch.pattern().row_ptr();
  // Raw per-lane copies of the unfactored cross-block entries.
  for (std::size_t t = 0; t < off_a_idx_.size(); ++t) {
    Ops::copy(off_val_b_.data() + t * K,
              vals.data() + static_cast<std::size_t>(off_a_idx_[t]) * K);
  }
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t r = static_cast<std::size_t>(rperm_[k]);
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int s = astep_[static_cast<std::size_t>(i)];
      if (s < 0) continue;
      Ops::add(work_b_.data() + static_cast<std::size_t>(s) * K,
               vals.data() + static_cast<std::size_t>(i) * K);
    }
    double* dk = udiag_b_.data() + k * K;
    for (int li = l_ptr_[k]; li < l_ptr_[k + 1]; ++li) {
      const std::size_t j =
          static_cast<std::size_t>(l_step_[static_cast<std::size_t>(li)]);
      double* lv = l_val_b_.data() + static_cast<std::size_t>(li) * K;
      Ops::div_take(lv, work_b_.data() + j * K, udiag_b_.data() + j * K);
      for (int ui = u_ptr_[j]; ui < u_ptr_[j + 1]; ++ui) {
        Ops::submul(work_b_.data() +
                        static_cast<std::size_t>(
                            u_step_[static_cast<std::size_t>(ui)]) *
                            K,
                    lv, u_val_b_.data() + static_cast<std::size_t>(ui) * K);
      }
    }
    Ops::take_absmax(dk, work_b_.data() + k * K, gmax_b_.data());
    for (int ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
      Ops::take_absmax(
          u_val_b_.data() + static_cast<std::size_t>(ui) * K,
          work_b_.data() +
              static_cast<std::size_t>(u_step_[static_cast<std::size_t>(ui)]) *
                  K,
          gmax_b_.data());
    }
    // Same acceptance as the scalar frozen pass: pivot above its own
    // column's scale with a finite reciprocal, growth bounded (amax_b_ now
    // holds the cap).
    Ops::screen_pivot(lane_ok.data(), dk, rdiag_b_.data() + k * K,
                      colmax_b_.data() +
                          static_cast<std::size_t>(cperm_[k]) * K,
                      gmax_b_.data(), amax_b_.data(), pivot_tol);
  }
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::solve_batch(std::vector<double>& rhs) const
  requires std::is_same_v<Scalar, double>
{
  using Ops = PackLaneOps;
  constexpr std::size_t K = kBatchLanes;
  ICVBE_REQUIRE(analyzed_ && udiag_b_.size() == n_ * K,
                "sparse LU batch: refactor_batch() first");
  ICVBE_REQUIRE(rhs.size() == n_ * K,
                "sparse LU batch solve: rhs size mismatch");
  // Per lane this is exactly solve_in_place's operation sequence (the
  // running accumulator becomes in-place updates applied in the same
  // order, which is the same FP sequence).
  for (std::size_t k = 0; k < n_; ++k) {
    Ops::copy(perm_b_.data() + k * K,
              rhs.data() + static_cast<std::size_t>(rperm_[k]) * K);
  }
  // Block back-substitution mirroring solve_in_place, all lanes per step.
  for (std::size_t b = bstep_ptr_.size() - 1; b-- > 0;) {
    const std::size_t lo = static_cast<std::size_t>(bstep_ptr_[b]);
    const std::size_t hi = static_cast<std::size_t>(bstep_ptr_[b + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      double* pk = perm_b_.data() + k * K;
      for (int t = off_ptr_[k]; t < off_ptr_[k + 1]; ++t) {
        Ops::submul(
            pk, off_val_b_.data() + static_cast<std::size_t>(t) * K,
            perm_b_.data() +
                static_cast<std::size_t>(
                    off_step_[static_cast<std::size_t>(t)]) *
                    K);
      }
    }
    for (std::size_t k = lo; k < hi; ++k) {
      double* pk = perm_b_.data() + k * K;
      for (int li = l_ptr_[k]; li < l_ptr_[k + 1]; ++li) {
        Ops::submul(
            pk, l_val_b_.data() + static_cast<std::size_t>(li) * K,
            perm_b_.data() +
                static_cast<std::size_t>(
                    l_step_[static_cast<std::size_t>(li)]) *
                    K);
      }
    }
    for (std::size_t ki = hi; ki-- > lo;) {
      double* pk = perm_b_.data() + ki * K;
      for (int ui = u_ptr_[ki]; ui < u_ptr_[ki + 1]; ++ui) {
        Ops::submul(
            pk, u_val_b_.data() + static_cast<std::size_t>(ui) * K,
            perm_b_.data() +
                static_cast<std::size_t>(
                    u_step_[static_cast<std::size_t>(ui)]) *
                    K);
      }
      Ops::mul_inplace(pk, rdiag_b_.data() + ki * K);
    }
  }
  for (std::size_t k = 0; k < n_; ++k) {
    Ops::copy(rhs.data() + static_cast<std::size_t>(cperm_[k]) * K,
              perm_b_.data() + k * K);
  }
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::solve_in_place(
    VectorT<Scalar>& rhs) const {
  ICVBE_REQUIRE(analyzed_, "sparse LU: refactor() before solving");
  ICVBE_REQUIRE(rhs.size() == n_, "sparse LU solve: rhs size mismatch");
  // z = P b (step space).
  for (std::size_t k = 0; k < n_; ++k) {
    perm_[k] = rhs[static_cast<std::size_t>(rperm_[k])];
  }
  // Block back-substitution, last block first: the factor is
  // block-diagonal, so each block is an independent L/U solve once the
  // raw cross-block entries (columns of *later* blocks, whose x is final
  // by then) are deducted from its right-hand side. A single block is
  // exactly the classic forward/backward pass.
  for (std::size_t b = bstep_ptr_.size() - 1; b-- > 0;) {
    const std::size_t lo = static_cast<std::size_t>(bstep_ptr_[b]);
    const std::size_t hi = static_cast<std::size_t>(bstep_ptr_[b + 1]);
    // Off-block deduction fused with forward substitution (unit-lower
    // L): step k's L entries reach only earlier steps of this block,
    // which are final by then, so each element sees the same operation
    // sequence as two separate passes would apply.
    for (std::size_t k = lo; k < hi; ++k) {
      Scalar acc = perm_[k];
      for (int t = off_ptr_[k]; t < off_ptr_[k + 1]; ++t) {
        acc -= off_val_[static_cast<std::size_t>(t)] *
               perm_[static_cast<std::size_t>(
                   off_step_[static_cast<std::size_t>(t)])];
      }
      for (int li = l_ptr_[k]; li < l_ptr_[k + 1]; ++li) {
        acc -= l_val_[static_cast<std::size_t>(li)] *
               perm_[static_cast<std::size_t>(
                   l_step_[static_cast<std::size_t>(li)])];
      }
      perm_[k] = acc;
    }
    // Back substitution with U.
    for (std::size_t ki = hi; ki-- > lo;) {
      Scalar acc = perm_[ki];
      for (int ui = u_ptr_[ki]; ui < u_ptr_[ki + 1]; ++ui) {
        acc -= u_val_[static_cast<std::size_t>(ui)] *
               perm_[static_cast<std::size_t>(
                   u_step_[static_cast<std::size_t>(ui)])];
      }
      perm_[ki] = acc * rdiag_[ki];
    }
  }
  // x = Q w (undo the column permutation).
  for (std::size_t k = 0; k < n_; ++k) {
    rhs[static_cast<std::size_t>(cperm_[k])] = perm_[k];
  }
}

template <typename Scalar>
VectorT<Scalar> SparseLuFactorizationT<Scalar>::solve(
    const VectorT<Scalar>& b) const {
  VectorT<Scalar> x = b;
  solve_in_place(x);
  return x;
}

template <typename Scalar>
double SparseLuFactorizationT<Scalar>::condition_estimate() const {
  ICVBE_REQUIRE(analyzed_, "sparse LU: refactor() before condition_estimate");
  // Probe |A^-1| by solving against the same +/-1 vectors the dense
  // LuFactorizationT uses and taking the largest column-sum growth; cheap
  // and adequate for diagnostics, and directly comparable across engines.
  double inv_norm = 0.0;
  VectorT<Scalar> e(n_, Scalar(1.0));
  for (int probe = 0; probe < 2; ++probe) {
    for (std::size_t i = 0; i < n_; ++i) {
      e[i] = (probe == 0) ? Scalar(1.0)
                          : ((i % 2) ? Scalar(-1.0) : Scalar(1.0));
    }
    const VectorT<Scalar> x = solve(e);
    double s = 0.0;
    for (const Scalar& v : x) s += scalar_abs(v);
    inv_norm = std::max(inv_norm, s / static_cast<double>(n_));
  }
  // |A|_1 of the values the factors came from. Each column is summed in
  // CSR order (a cross-block entry's astep_ holds ~step), the order a
  // refactor-time accumulation would use.
  std::vector<double> colsum(n_, 0.0);
  for (std::size_t i = 0; i < last_values_.size(); ++i) {
    const int s = astep_[i];
    colsum[static_cast<std::size_t>(s >= 0 ? s : ~s)] +=
        scalar_abs(last_values_[i]);
  }
  return *std::max_element(colsum.begin(), colsum.end()) * inv_norm;
}

template class SparseLuFactorizationT<double>;
template class SparseLuFactorizationT<Complex>;

}  // namespace icvbe::linalg
