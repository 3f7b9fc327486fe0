// Randomized property harness for the symbolic path: AMD ordering inside
// a BTF decomposition, checked against the dense LU on ~200 seeded
// patterns.
//
// Families: resistor-ladder shapes, 2-D meshes, random MNA shapes with
// zero-diagonal aux rows (voltage-source style), singular and
// near-singular value sets. Properties:
//  * amd_order() returns a valid permutation on every pattern;
//  * factor fill and BTF block counts equal committed values -- summed
//    over the seeded patterns, per generated netlist family, and on the
//    serve_mixed deck -- so an ordering change shows as a moved count;
//  * refactor/solve matches the dense LU to <= 1e-10 (residual-checked
//    when near-singular);
//  * batched lanes are bit-identical to scalar refactors per lane;
//  * structurally/numerically singular systems throw NumericalError on
//    every path;
//  * the incremental refactor (replay from the first changed pivot step,
//    none when nothing changed) solves bit-identically to a full frozen
//    pass on the same analysis, cross-block BTF entries included.
// A 1e4-node subset runs when ICVBE_SPARSE_STRESS=1 (CI stress job).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

#include "serve_deck.hpp"

namespace icvbe::linalg {
namespace {

constexpr double kAgreeTol = 1e-10;

struct TestSystem {
  std::size_t n = 0;
  SparseMatrix sparse;
  Matrix dense;
  bool expect_singular = false;
  bool near_singular = false;
};

using Entry = std::pair<std::pair<int, int>, double>;

TestSystem build(std::size_t n, const std::vector<Entry>& entries,
                 bool expect_singular = false, bool near_singular = false) {
  TestSystem sys;
  sys.n = n;
  sys.expect_singular = expect_singular;
  sys.near_singular = near_singular;
  sys.sparse.resize(n, n);
  sys.dense.resize(n, n);
  sys.dense.fill(0.0);
  for (const auto& [rc, v] : entries) {
    sys.sparse.add(static_cast<std::size_t>(rc.first),
                   static_cast<std::size_t>(rc.second), v);
    sys.dense(static_cast<std::size_t>(rc.first),
              static_cast<std::size_t>(rc.second)) += v;
  }
  sys.sparse.freeze_pattern();
  return sys;
}

double rnd(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// Series/shunt conductance ladder with a voltage-source style aux row
/// (zero structural diagonal at the aux position).
TestSystem make_ladder(std::mt19937_64& rng, int nodes) {
  const int n = nodes + 1;  // + aux current
  std::vector<double> diag(static_cast<std::size_t>(nodes), 0.0);
  std::vector<Entry> e;
  for (int i = 0; i + 1 < nodes; ++i) {  // series links
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, i + 1}, -g});
    e.push_back({{i + 1, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(i + 1)] += g;
  }
  for (int i = 0; i < nodes; ++i) {  // ground shunts keep it nonsingular
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)] +
                             rnd(rng, 0.05, 0.2)});
  }
  e.push_back({{0, nodes}, 1.0});  // voltage-source aux: zero diagonal
  e.push_back({{nodes, 0}, 1.0});
  return build(static_cast<std::size_t>(n), e);
}

/// g x g conductance grid, optionally with an aux row pinning one corner.
TestSystem make_mesh(std::mt19937_64& rng, int g, bool with_aux) {
  const int nn = g * g;
  const int n = nn + (with_aux ? 1 : 0);
  std::vector<double> diag(static_cast<std::size_t>(nn), 0.0);
  std::vector<Entry> e;
  auto idx = [g](int x, int y) { return x * g + y; };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      const int i = idx(x, y);
      diag[static_cast<std::size_t>(i)] += 1e-3 * rnd(rng, 0.5, 2.0);
      if (x + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        const int j = idx(x + 1, y);
        e.push_back({{i, j}, -c});
        e.push_back({{j, i}, -c});
        diag[static_cast<std::size_t>(i)] += c;
        diag[static_cast<std::size_t>(j)] += c;
      }
      if (y + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        const int j = idx(x, y + 1);
        e.push_back({{i, j}, -c});
        e.push_back({{j, i}, -c});
        diag[static_cast<std::size_t>(i)] += c;
        diag[static_cast<std::size_t>(j)] += c;
      }
    }
  }
  for (int i = 0; i < nn; ++i) {
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)]});
  }
  if (with_aux) {
    e.push_back({{0, nn}, 1.0});
    e.push_back({{nn, 0}, 1.0});
  }
  return build(static_cast<std::size_t>(n), e);
}

/// Random MNA shape: a random connected conductance graph over `nodes`
/// plus `naux` voltage-source style rows (zero structural diagonal,
/// coupling entries only). Diagonally dominant by construction, so the
/// result is comfortably nonsingular.
TestSystem make_random_mna(std::mt19937_64& rng, int nodes, int naux) {
  const int n = nodes + naux;
  std::vector<double> diag(static_cast<std::size_t>(nodes), 0.0);
  std::vector<Entry> e;
  for (int i = 1; i < nodes; ++i) {  // random spanning tree: connected
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, j}, -g});
    e.push_back({{j, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(j)] += g;
  }
  const int extra = nodes / 2;
  for (int k = 0; k < extra; ++k) {  // extra chords
    const int i = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    if (i == j) continue;
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, j}, -g});
    e.push_back({{j, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(j)] += g;
  }
  for (int i = 0; i < nodes; ++i) {
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)] +
                             1e-4 * rnd(rng, 0.5, 2.0)});
  }
  // Zero-diagonal aux rows on *distinct* nodes (two sources pinning the
  // same node would be genuinely structurally singular).
  std::vector<int> picks(static_cast<std::size_t>(nodes));
  std::iota(picks.begin(), picks.end(), 0);
  for (int a = 0; a < naux; ++a) {
    const std::size_t j =
        static_cast<std::size_t>(a) +
        rng() % static_cast<std::uint64_t>(nodes - a);
    std::swap(picks[static_cast<std::size_t>(a)], picks[j]);
    const int node = picks[static_cast<std::size_t>(a)];
    e.push_back({{node, nodes + a}, 1.0});
    e.push_back({{nodes + a, node}, 1.0});
  }
  return build(static_cast<std::size_t>(n), e);
}

/// Numerically singular: two rows with proportional values (rank
/// deficient, structurally fine).
TestSystem make_numerically_singular(std::mt19937_64& rng, int nodes) {
  TestSystem sys = make_random_mna(rng, nodes, 0);
  // Rebuild with row 1 = 2 * row 0's values on the union pattern.
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  for (std::size_t r = 0; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      if (r == 1) continue;
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   v[static_cast<std::size_t>(i)]});
    }
  }
  for (int i = rp[0]; i < rp[1]; ++i) {  // row 1 := 2 x row 0
    e.push_back({{1, ci[static_cast<std::size_t>(i)]},
                 2.0 * v[static_cast<std::size_t>(i)]});
  }
  return build(sys.n, e, /*expect_singular=*/true);
}

/// Structurally singular: two rows whose only entries share one column
/// (no perfect matching).
TestSystem make_structurally_singular(std::mt19937_64& rng, int nodes) {
  TestSystem sys = make_random_mna(rng, nodes, 0);
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  for (std::size_t r = 2; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   v[static_cast<std::size_t>(i)]});
    }
  }
  e.push_back({{0, 5}, rnd(rng, 0.5, 2.0)});
  e.push_back({{1, 5}, rnd(rng, 0.5, 2.0)});
  return build(sys.n, e, /*expect_singular=*/true);
}

/// Near-singular: a well-formed mesh with the last row and column scaled
/// down by 1e-4 each (the trailing diagonal lands at 1e-8 of its
/// neighbours). Solvable, but ill-conditioned enough that only the
/// residual (not the forward error vs dense) is a stable contract.
TestSystem make_near_singular(std::mt19937_64& rng, int g) {
  TestSystem sys = make_mesh(rng, g, /*with_aux=*/false);
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  const int last = static_cast<int>(sys.n) - 1;
  for (std::size_t r = 0; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      double val = v[static_cast<std::size_t>(i)];
      if (static_cast<int>(r) == last) val *= 1e-4;
      if (ci[static_cast<std::size_t>(i)] == last) val *= 1e-4;
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   val});
    }
  }
  return build(sys.n, e, /*expect_singular=*/false, /*near_singular=*/true);
}

Vector random_rhs(std::mt19937_64& rng, std::size_t n) {
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rnd(rng, -1.0, 1.0);
  return b;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// ||Ax - b||_inf / (||A||_1 max|x| + ||b||_inf): the scale-free residual.
double rel_residual(const TestSystem& sys, const Vector& x, const Vector& b) {
  double rmax = 0.0;
  double xmax = 0.0;
  for (std::size_t i = 0; i < sys.n; ++i) xmax = std::max(xmax, std::abs(x[i]));
  double anorm = 0.0;
  for (std::size_t r = 0; r < sys.n; ++r) {
    double row = 0.0;
    double ax = 0.0;
    for (std::size_t c = 0; c < sys.n; ++c) {
      ax += sys.dense(r, c) * x[c];
      row += std::abs(sys.dense(r, c));
    }
    anorm = std::max(anorm, row);
    rmax = std::max(rmax, std::abs(ax - b[r]));
  }
  return rmax / (anorm * xmax + 1.0 + std::abs(b[0]));
}

/// Factor entries and BTF blocks summed over the nonsingular systems.
struct FillTotals {
  std::size_t factor_nonzeros = 0;
  std::size_t blocks = 0;
};

/// One property check: order valid, solution agrees; fill is added up.
void check_system(const TestSystem& sys, std::mt19937_64& rng,
                  FillTotals& totals) {
  const std::size_t n = sys.n;

  // amd_order is a valid permutation on every pattern, singular or not.
  const std::vector<int> order =
      amd_order(sys.sparse.row_ptr(), sys.sparse.col_index(), n);
  ASSERT_EQ(order.size(), n);
  std::vector<char> seen(n, 0);
  for (int v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, static_cast<int>(n));
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate row in AMD";
    seen[static_cast<std::size_t>(v)] = 1;
  }

  SparseLuFactorization f;
  if (sys.expect_singular) {
    EXPECT_THROW(f.refactor(sys.sparse), NumericalError);
    return;
  }
  ASSERT_NO_THROW(f.refactor(sys.sparse));
  totals.factor_nonzeros += f.factor_nonzeros();
  totals.blocks += f.btf_block_count();

  const Vector b = random_rhs(rng, n);
  const Vector x = f.solve(b);

  // The residual holds even when near-singular.
  EXPECT_LT(rel_residual(sys, x, b), kAgreeTol);

  if (!sys.near_singular) {
    LuFactorization dl;
    dl.refactor(sys.dense);
    Vector xd = b;
    dl.solve_in_place(xd);
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      scale = std::max(scale, std::abs(xd[i]));
    }
    EXPECT_LT(max_abs_diff(x, xd) / scale, kAgreeTol)
        << "sparse LU diverged from dense LU";
  }

  // Cached analysis is reused across same-pattern refactors.
  const int analyses = f.analysis_count();
  f.refactor(sys.sparse);
  EXPECT_EQ(f.analysis_count(), analyses);
}

TEST(OrderingHarness, TwoHundredSeededPatterns) {
  std::mt19937_64 rng(20260808u);
  FillTotals totals;
  int case_id = 0;
  for (int rep = 0; rep < 25; ++rep) {
    {
      SCOPED_TRACE("ladder case " + std::to_string(case_id++));
      TestSystem s = make_ladder(rng, 8 + static_cast<int>(rng() % 90));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("mesh case " + std::to_string(case_id++));
      TestSystem s =
          make_mesh(rng, 3 + static_cast<int>(rng() % 8), (rep % 3) == 0);
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("random MNA case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 10 + static_cast<int>(rng() % 80),
                                     static_cast<int>(rng() % 4));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("random MNA (aux-heavy) case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 10 + static_cast<int>(rng() % 40),
                                     2 + static_cast<int>(rng() % 5));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("numerically singular case " + std::to_string(case_id++));
      TestSystem s =
          make_numerically_singular(rng, 12 + static_cast<int>(rng() % 30));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("structurally singular case " + std::to_string(case_id++));
      TestSystem s =
          make_structurally_singular(rng, 12 + static_cast<int>(rng() % 30));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("near-singular case " + std::to_string(case_id++));
      TestSystem s = make_near_singular(rng, 4 + static_cast<int>(rng() % 5));
      check_system(s, rng, totals);
    }
    {
      SCOPED_TRACE("tiny case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 4 + static_cast<int>(rng() % 5), 0);
      check_system(s, rng, totals);
    }
  }
  EXPECT_EQ(case_id, 200);
  EXPECT_EQ(totals.factor_nonzeros, 36597u);
  EXPECT_EQ(totals.blocks, 538u);
}

/// Factor entries and BTF blocks of a session's own factorization after a
/// cold operating-point solve of `deck`.
std::pair<std::size_t, std::size_t> session_fill(const std::string& deck) {
  auto parsed = spice::parse_netlist(deck);
  parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
  spice::SimSession session(*parsed.circuit);
  (void)session.solve_or_throw();
  return {session.sparse_lu().factor_nonzeros(),
          session.sparse_lu().btf_block_count()};
}

TEST(OrderingHarness, FillIsPinnedPerGeneratedFamily) {
  // Every generated family at 1000 nodes (seed 42), and the serve_mixed
  // deck, whose factor holds no fill at all: its 603 matrix entries. BTF
  // finds 3 blocks on each.
  const std::pair<spice::SyntheticTopology, std::size_t> pins[] = {
      {spice::SyntheticTopology::kResistorLadder, 3000},
      {spice::SyntheticTopology::kDiodeLadder, 3000},
      {spice::SyntheticTopology::kBjtLadder, 3000},
      {spice::SyntheticTopology::kMesh, 26577},
      {spice::SyntheticTopology::kRcLadder, 3000},
      {spice::SyntheticTopology::kGrid, 26577},
      {spice::SyntheticTopology::kClockTree, 3689},
  };
  for (const auto& [topology, factor_nonzeros] : pins) {
    SCOPED_TRACE(spice::topology_name(topology));
    spice::SyntheticNetlistSpec spec;
    spec.topology = topology;
    spec.nodes = 1000;
    spec.seed = 42;
    const auto [nnz, blocks] = session_fill(spice::generate_netlist(spec));
    EXPECT_EQ(nnz, factor_nonzeros);
    EXPECT_EQ(blocks, 3u);
  }
  const auto [nnz, blocks] = session_fill(spice::testdeck::serve_deck());
  EXPECT_EQ(nnz, 603u);
  EXPECT_EQ(blocks, 3u);
}

/// Block upper-triangular system: two random MNA blocks plus entries from
/// the first block's rows into the second block's columns, which the BTF
/// path keeps out of the elimination (applied raw at solve time).
TestSystem make_block_triangular(std::mt19937_64& rng, int n1, int n2) {
  const TestSystem a = make_random_mna(rng, n1, 0);
  const TestSystem b = make_random_mna(rng, n2, 1);
  std::vector<Entry> e;
  const auto append = [&e](const TestSystem& sys, int offset) {
    const auto& rp = sys.sparse.row_ptr();
    const auto& ci = sys.sparse.col_index();
    const auto& v = sys.sparse.values();
    for (std::size_t r = 0; r < sys.n; ++r) {
      for (int i = rp[r]; i < rp[r + 1]; ++i) {
        e.push_back({{static_cast<int>(r) + offset,
                      ci[static_cast<std::size_t>(i)] + offset},
                     v[static_cast<std::size_t>(i)]});
      }
    }
  };
  append(a, 0);
  append(b, n1);
  for (int k = 0; k < n1 / 2 + 1; ++k) {
    const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(n1));
    const int c = n1 + static_cast<int>(rng() % b.n);
    e.push_back({{r, c}, rnd(rng, -1.0, 1.0)});
  }
  return build(a.n + b.n, e);
}

/// A copy of m's pattern (and stamp) carrying f(row, col, value) values.
template <typename F>
SparseMatrix map_values(const SparseMatrix& m, F&& f) {
  SparseMatrix out = m;
  out.fill(0.0);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const auto& v = m.values();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      const auto c = static_cast<std::size_t>(ci[static_cast<std::size_t>(i)]);
      out.add(r, c, f(r, c, v[static_cast<std::size_t>(i)]));
    }
  }
  return out;
}

/// Counts of refactor outcomes across the incremental harness, so the
/// test can insist every path was exercised.
struct IncrementalCoverage {
  std::uint64_t partial = 0;
  std::uint64_t skipped = 0;
  int off_block_only = 0;
};

/// Drive `inc` through cumulative perturbations of sys -- random row
/// subsets, cross-block entries only, a single row, nothing -- and check
/// each incremental refactor against `full`, which shares the analysis but
/// reaches the same values through a matrix whose every row differs (all
/// values doubled: exact, and invisible to the scale-free pivot and growth
/// screens), so it replays every step.
void check_incremental(const TestSystem& sys, std::mt19937_64& rng,
                       IncrementalCoverage& cov) {
  SparseLuFactorization inc;
  SparseLuFactorization full;
  ASSERT_NO_THROW(inc.refactor(sys.sparse));
  full.refactor(sys.sparse);

  // Cross-block entries: row and column in different BTF blocks.
  const BtfDecomposition btf =
      btf_decompose(sys.sparse.row_ptr(), sys.sparse.col_index(), sys.n);
  std::vector<int> col_block(sys.n, 0);
  for (std::size_t r = 0; r < sys.n; ++r) {
    col_block[static_cast<std::size_t>(btf.match_col[r])] = btf.row_block[r];
  }
  const auto off_block = [&](std::size_t r, std::size_t c) {
    return btf.row_block[r] != col_block[c];
  };
  bool has_off_block = false;
  for (std::size_t r = 0; r < sys.n && !has_off_block; ++r) {
    for (int i = sys.sparse.row_ptr()[r]; i < sys.sparse.row_ptr()[r + 1];
         ++i) {
      if (off_block(r, static_cast<std::size_t>(sys.sparse.col_index()[
                           static_cast<std::size_t>(i)]))) {
        has_off_block = true;
      }
    }
  }

  SparseMatrix cur = sys.sparse;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int mode = round % 4;
    std::vector<char> rows(sys.n, 0);
    if (mode == 0) {
      for (auto& f : rows) f = (rng() % 4 == 0) ? 1 : 0;
    } else if (mode == 2) {
      rows[rng() % sys.n] = 1;
    }
    const bool off_only = mode == 1 && has_off_block;
    cur = map_values(cur, [&](std::size_t r, std::size_t c, double v) {
      const bool hit = off_only ? off_block(r, c) : rows[r] != 0;
      return hit ? v * (1.0 + 1e-3 * rnd(rng, 0.5, 1.5)) : v;
    });
    if (off_only) ++cov.off_block_only;

    const RefactorStats before = inc.refactor_stats();
    ASSERT_NO_THROW(inc.refactor(cur));
    full.refactor(map_values(cur, [](std::size_t, std::size_t, double v) {
      return 2.0 * v;
    }));
    full.refactor(cur);
    ASSERT_EQ(inc.analysis_count(), full.analysis_count());
    const RefactorStats& after = inc.refactor_stats();
    cov.partial += after.partial - before.partial;
    cov.skipped += after.skipped - before.skipped;
    if (mode == 3) {
      EXPECT_EQ(after.skipped, before.skipped + 1)
          << "an unchanged matrix must skip the replay";
    }

    for (int probe = 0; probe < 2; ++probe) {
      const Vector b = random_rhs(rng, sys.n);
      const Vector xi = inc.solve(b);
      const Vector xf = full.solve(b);
      for (std::size_t i = 0; i < sys.n; ++i) {
        ASSERT_EQ(std::memcmp(&xi[i], &xf[i], sizeof(double)), 0)
            << "row " << i << ": incremental refactor not bit-identical to "
               "a full pass";
      }
    }
    const double ci = inc.condition_estimate();
    const double cf = full.condition_estimate();
    EXPECT_EQ(std::memcmp(&ci, &cf, sizeof(double)), 0);
  }
  EXPECT_EQ(full.refactor_stats().partial, 0u);
  EXPECT_EQ(full.refactor_stats().skipped, 0u);
}

TEST(OrderingHarness, IncrementalRefactorMatchesAFullPass) {
  std::mt19937_64 rng(20261017u);
  IncrementalCoverage cov;
  int case_id = 0;
  for (int rep = 0; rep < 25; ++rep) {
    std::vector<TestSystem> systems;
    systems.push_back(make_ladder(rng, 8 + static_cast<int>(rng() % 90)));
    systems.push_back(
        make_mesh(rng, 3 + static_cast<int>(rng() % 8), (rep % 3) == 0));
    systems.push_back(make_random_mna(rng, 10 + static_cast<int>(rng() % 80),
                                      static_cast<int>(rng() % 4)));
    systems.push_back(make_random_mna(rng, 10 + static_cast<int>(rng() % 40),
                                      2 + static_cast<int>(rng() % 5)));
    systems.push_back(make_block_triangular(
        rng, 5 + static_cast<int>(rng() % 30),
        5 + static_cast<int>(rng() % 30)));
    systems.push_back(make_block_triangular(
        rng, 20 + static_cast<int>(rng() % 20),
        20 + static_cast<int>(rng() % 20)));
    systems.push_back(make_near_singular(rng, 4 + static_cast<int>(rng() % 5)));
    systems.push_back(make_random_mna(rng, 4 + static_cast<int>(rng() % 5), 0));
    for (const TestSystem& s : systems) {
      SCOPED_TRACE("incremental case " + std::to_string(case_id++));
      check_incremental(s, rng, cov);
    }
  }
  EXPECT_EQ(case_id, 200);
  EXPECT_GT(cov.partial, 0u);
  EXPECT_GT(cov.skipped, 0u);
  EXPECT_GT(cov.off_block_only, 0);
}

TEST(OrderingHarness, KeptPivotFailingOnARaisedColumnMaxReanalyses) {
  // A full 2x2 pattern is irreducible, so both rows share one BTF block:
  // step 0 takes row 0 and pivots on column 0 (value 1), step 1 takes
  // row 1. Raising row 1's column-0 entry to 1e20 leaves the kept step 0
  // untouched, but its pivot now sits below pivot_tol (1e-14) x the
  // column max: the replay from step 1 must fail over to a fresh analysis
  // -- exactly what a full pass does -- which pivots row 0 on column 1
  // instead.
  SparseMatrix a(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 3.0);
  a.freeze_pattern();
  SparseLuFactorization f;
  f.refactor(a);
  ASSERT_EQ(f.analysis_count(), 1);
  ASSERT_EQ(f.btf_block_count(), 1u);

  const SparseMatrix raised =
      map_values(a, [](std::size_t r, std::size_t c, double v) {
        return (r == 1 && c == 0) ? 1e20 : v;
      });
  f.refactor(raised);
  EXPECT_EQ(f.refactor_stats().partial, 1u) << "replay did not keep step 0";
  EXPECT_EQ(f.analysis_count(), 2);

  SparseLuFactorization fresh;
  fresh.refactor(raised);
  Vector b(2);
  b[0] = 1.0;
  b[1] = -2.0;
  const Vector x = f.solve(b);
  const Vector want = fresh.solve(b);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(std::memcmp(&x[i], &want[i], sizeof(double)), 0) << i;
  }
  // And the re-analysed state replays: the same matrix again is a skip.
  f.refactor(raised);
  EXPECT_EQ(f.refactor_stats().skipped, 1u);
  EXPECT_EQ(f.analysis_count(), 2);
}

TEST(OrderingHarness, KeptGrowthOverALoweredCapReanalyses) {
  // Rows 0-2 form one BTF block, row 3 another; (0, 3) is a cross-block
  // entry, outside the elimination. Step 1 is pinned to the column-1
  // pivot while it is benign; shrinking it to ~1e-11 then makes step 2
  // grow to ~1e10 -- within the 1e8 x max|A| cap while (0, 3) holds 1e3.
  // Lowering (0, 3) to 1 changes no eliminated value, so every step is
  // kept, but the kept growth now breaks the cap: the refactor must
  // re-analyse, as a full pass would.
  const auto make = [](double pivot_row_value, double cross) {
    SparseMatrix m(4, 4);
    m.add(0, 0, 1.0);
    m.add(0, 1, 1.0);
    m.add(0, 3, cross);
    m.add(1, 0, 1.0);
    m.add(1, 1, pivot_row_value);
    m.add(1, 2, 0.1);
    m.add(2, 1, 1.0);
    m.add(2, 2, 1.0);
    m.add(3, 3, 1.0);
    m.freeze_pattern();
    return m;
  };
  const SparseMatrix benign = make(2.0, 1e3);
  SparseLuFactorization f;
  f.refactor(benign);
  ASSERT_EQ(f.btf_block_count(), 2u);
  const auto with = [&benign](double pivot_row_value, double cross) {
    return map_values(benign, [=](std::size_t r, std::size_t c, double v) {
      if (r == 1 && c == 1) return pivot_row_value;
      if (r == 0 && c == 3) return cross;
      return v;
    });
  };
  const SparseMatrix grown = with(1.0 + 1e-11, 1e3);
  f.refactor(grown);
  ASSERT_EQ(f.analysis_count(), 1) << "the grown factors should pass";

  const SparseMatrix capped = with(1.0 + 1e-11, 1.0);
  f.refactor(capped);
  EXPECT_EQ(f.refactor_stats().skipped, 1u) << "nothing eliminated changed";
  EXPECT_EQ(f.analysis_count(), 2);
  SparseLuFactorization fresh;
  fresh.refactor(capped);
  Vector b(4, 1.0);
  const Vector x = f.solve(b);
  const Vector want = fresh.solve(b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::memcmp(&x[i], &want[i], sizeof(double)), 0) << i;
  }
}

TEST(OrderingHarness, NegativeZeroInputIsNotReplayedFromTheAnalysis) {
  // The analysis copies A's values where the frozen kernel adds them to
  // +0.0, so with a -0.0 entry the two may differ in the sign of a zero:
  // the refactor after such an analysis runs a full pass, and only the
  // one after that may skip.
  SparseMatrix m(2, 2);
  m.add(0, 0, 2.0);
  m.add(0, 1, -0.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 3.0);
  m.freeze_pattern();
  ASSERT_TRUE(std::signbit(m.at(0, 1)));
  SparseLuFactorization f;
  f.refactor(m);
  f.refactor(m);
  EXPECT_EQ(f.refactor_stats().full, 1u);
  EXPECT_EQ(f.refactor_stats().skipped, 0u);
  f.refactor(m);
  EXPECT_EQ(f.refactor_stats().skipped, 1u);
  EXPECT_EQ(f.analysis_count(), 1);
}

TEST(OrderingHarness, BatchLanesBitIdenticalToScalarRefactors) {
  // Each batched lane against the scalar factorization of that lane's
  // values: a fresh factorization pinned on the reference matrix refactors
  // the lane. The lane's ok bit must equal "the scalar refactor kept the
  // analysis" (neither re-pivoted nor threw), and an ok lane must solve to
  // the scalar solution bit for bit. With every lane active the last one
  // carries a NaN, which must fail that lane alone; with three active the
  // others sit out and must come back not ok. The steady-state batch calls
  // must also stay allocation-free (this binary links icvbe_alloc_hook).
  constexpr std::size_t K = kBatchLanes;
  std::mt19937_64 rng(20260808u ^ 0x51u);
  for (int rep = 0; rep < 8; ++rep) {
    TestSystem sys;
    switch (rep % 4) {
      case 0:
        sys = make_mesh(rng, 5 + rep, /*with_aux=*/true);
        break;
      case 1:
        sys = make_random_mna(rng, 30 + 10 * rep, 2);
        break;
      case 2:
        sys = make_ladder(rng, 20 + 10 * rep);
        break;
      default:
        sys = make_near_singular(rng, 5 + rep % 3);
        break;
    }
    const std::size_t n = sys.n;
    for (std::size_t active : {std::size_t{3}, K}) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " active lanes " +
                   std::to_string(active));

      SparseLuFactorization f;
      f.refactor(sys.sparse);

      SparseValueBatch batch;
      batch.bind(sys.sparse);
      std::vector<SparseMatrix> lanes;
      for (std::size_t l = 0; l < active; ++l) {
        lanes.push_back(sys.sparse);
        // Perturb each lane's values deterministically (pattern fixed).
        lanes[l].add(0, 0, 1e-3 * static_cast<double>(l));
        if (l == K - 1) {
          lanes[l].add(0, 0, std::numeric_limits<double>::quiet_NaN());
        }
        batch.load_lane(l, lanes[l]);
      }
      std::vector<unsigned char> ok(K, 0);
      std::fill(ok.begin(), ok.begin() + static_cast<long>(active), 1);
      f.refactor_batch(batch, ok);
      if (active == K) {
        ASSERT_EQ(ok[K - 1], 0) << "the NaN lane factored";
      }
      for (std::size_t l = active; l < K; ++l) {
        ASSERT_EQ(ok[l], 0) << "inactive lane " << l << " came back ok";
      }

      const Vector b = random_rhs(rng, n);
      std::vector<double> rhs(n * K);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < K; ++l) rhs[i * K + l] = b[i];
      }
      f.solve_batch(rhs);

      bool any_ok = false;
      for (std::size_t l = 0; l < active; ++l) {
        SparseLuFactorization g;
        g.refactor(sys.sparse);
        bool kept = true;
        try {
          g.refactor(lanes[l]);
          kept = g.analysis_count() == 1;
        } catch (const NumericalError&) {
          kept = false;
        }
        ASSERT_EQ(ok[l] != 0, kept)
            << "lane " << l << " ok bit disagrees with the scalar refactor";
        if (!kept) continue;
        any_ok = true;
        const Vector x = g.solve(b);
        for (std::size_t i = 0; i < n; ++i) {
          const double batched = rhs[i * K + l];
          ASSERT_EQ(std::memcmp(&x[i], &batched, sizeof(double)), 0)
              << "lane " << l << " row " << i
              << " not bit-identical to scalar refactor";
        }
      }
      if (rep % 4 != 3) {
        ASSERT_TRUE(any_ok);
      }
      EXPECT_EQ(f.analysis_count(), 1) << "the batch never re-analyses";

      // Steady state: re-running the batch at the same shape allocates
      // nothing.
      for (std::size_t l = 0; l < active; ++l) batch.load_lane(l, lanes[l]);
      std::fill(ok.begin(), ok.begin() + static_cast<long>(active), 1);
      const std::uint64_t a0 = testing::allocation_count();
      f.refactor_batch(batch, ok);
      f.solve_batch(rhs);
      const std::uint64_t a1 = testing::allocation_count();
      EXPECT_EQ(a1 - a0, 0u)
          << "batched refactor/solve steady state allocated on the heap";
    }
  }
}

TEST(OrderingHarness, BtfDecomposeBlockTriangularPattern) {
  // Hand-built 6x6 with two coupled pairs feeding a trailing pair:
  // rows {0,1} <-> cols {0,1}, rows {2,3} <-> cols {2,3} with a
  // dependency on block one, rows {4,5} close the chain.
  SparseMatrix m(6, 6);
  auto pair_block = [&](int r0) {
    m.add(r0, r0, 2.0);
    m.add(r0, r0 + 1, 1.0);
    m.add(r0 + 1, r0, 1.0);
    m.add(r0 + 1, r0 + 1, 2.0);
  };
  pair_block(0);
  pair_block(2);
  pair_block(4);
  m.add(0, 3, 0.5);  // block of rows {0,1} depends on block {2,3}
  m.add(2, 5, 0.5);  // block of rows {2,3} depends on block {4,5}
  m.freeze_pattern();

  const BtfDecomposition btf =
      btf_decompose(m.row_ptr(), m.col_index(), 6);
  ASSERT_EQ(btf.block_count(), 3u);
  // Every row maps to a block; each block has exactly the paired rows.
  EXPECT_EQ(btf.row_block[0], btf.row_block[1]);
  EXPECT_EQ(btf.row_block[2], btf.row_block[3]);
  EXPECT_EQ(btf.row_block[4], btf.row_block[5]);
  // Cross-block entries must point at *later* blocks (block upper
  // triangular): row 0 depends on rows {2,3}, which depend on {4,5}.
  EXPECT_LT(btf.row_block[0], btf.row_block[2]);
  EXPECT_LT(btf.row_block[2], btf.row_block[4]);
  // The diagonal is a perfect matching here.
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(btf.match_col[r], static_cast<int>(r));
  }

  // And the factorization solves it exactly like dense.
  Matrix d(6, 6, 0.0);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const auto& v = m.values();
  for (std::size_t r = 0; r < 6; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      d(r, static_cast<std::size_t>(ci[static_cast<std::size_t>(i)])) =
          v[static_cast<std::size_t>(i)];
    }
  }
  SparseLuFactorization f;
  f.refactor(m);
  EXPECT_EQ(f.btf_block_count(), 3u);
  LuFactorization dl;
  dl.refactor(d);
  Vector b(6);
  for (std::size_t i = 0; i < 6; ++i) b[i] = 0.25 * static_cast<double>(i + 1);
  const Vector xs = f.solve(b);
  Vector xd = b;
  dl.solve_in_place(xd);
  EXPECT_LT(max_abs_diff(xs, xd), kAgreeTol);
}

TEST(OrderingHarness, StructurallySingularThrowsBeforeNumericWork) {
  // A free column: no row ever touches column 2.
  SparseMatrix m(3, 3);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.add(2, 0, 1.0);
  m.add(2, 1, 1.0);
  m.freeze_pattern();
  EXPECT_THROW(
      btf_decompose(m.row_ptr(), m.col_index(), 3), NumericalError);
  SparseLuFactorization f;  // default path goes through BTF
  EXPECT_THROW(f.refactor(m), NumericalError);
}

TEST(OrderingHarness, StressSubsetAt1e4Nodes) {
  const char* env = std::getenv("ICVBE_SPARSE_STRESS");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') {
    GTEST_SKIP() << "set ICVBE_SPARSE_STRESS=1 for the 1e4-node subset";
  }
  std::mt19937_64 rng(99u);
  // 100 x 100 grid (10k nodes). Build without the dense mirror.
  const int g = 100;
  const std::size_t n = static_cast<std::size_t>(g) * g;
  SparseMatrix m(n, n);
  std::vector<double> diag(n, 0.0);
  auto idx = [g](int x, int y) {
    return static_cast<std::size_t>(x * g + y);
  };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      const std::size_t i = idx(x, y);
      diag[i] += 1e-3 * rnd(rng, 0.5, 2.0);
      if (x + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        m.add(i, idx(x + 1, y), -c);
        m.add(idx(x + 1, y), i, -c);
        diag[i] += c;
        diag[idx(x + 1, y)] += c;
      }
      if (y + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        m.add(i, idx(x, y + 1), -c);
        m.add(idx(x, y + 1), i, -c);
        diag[i] += c;
        diag[idx(x, y + 1)] += c;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) m.add(i, i, diag[i]);
  m.freeze_pattern();

  SparseLuFactorization f;
  f.refactor(m);
  // Fill sanity: a 100x100 grid factors at ~45 entries/row under a good
  // ordering; 80/row flags an ordering-quality regression.
  EXPECT_LT(f.factor_nonzeros(), 80 * n);

  const Vector b = random_rhs(rng, n);
  const Vector x = f.solve(b);
  // Residual check against the CSR directly (no dense mirror at 10k).
  double rmax = 0.0;
  double xmax = 0.0;
  double anorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) xmax = std::max(xmax, std::abs(x[i]));
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const auto& v = m.values();
  for (std::size_t r = 0; r < n; ++r) {
    double ax = 0.0;
    double row = 0.0;
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      ax += v[static_cast<std::size_t>(i)] *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(i)])];
      row += std::abs(v[static_cast<std::size_t>(i)]);
    }
    anorm = std::max(anorm, row);
    rmax = std::max(rmax, std::abs(ax - b[r]));
  }
  EXPECT_LT(rmax / (anorm * xmax), kAgreeTol);

  // Analysis reuse at scale.
  f.refactor(m);
  EXPECT_EQ(f.analysis_count(), 1);
}

}  // namespace
}  // namespace icvbe::linalg
