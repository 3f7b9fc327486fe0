// Unit tests for icvbe/linalg/sparse: the CSR SparseMatrix lifecycle and
// the SparseLuFactorization symbolic-reuse engine, checked against the
// dense LU on the same systems.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/matrix_view.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/device.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::linalg {
namespace {

TEST(SparseMatrixTest, BuildFreezeAccess) {
  SparseMatrix m(3, 3);
  EXPECT_FALSE(m.frozen());
  m.add(0, 0, 2.0);
  m.add(0, 2, 1.0);
  m.add(1, 1, 3.0);
  m.add(2, 0, -1.0);
  m.add(2, 2, 4.0);
  m.add(0, 0, 0.5);  // duplicate registration merges at freeze
  m.freeze_pattern();
  EXPECT_TRUE(m.frozen());
  EXPECT_EQ(m.nonzeros(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);  // outside pattern reads as zero
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
}

TEST(SparseMatrixTest, FrozenAddAccumulatesAndRejectsOutsidePattern) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  m.add(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_THROW(m.add(0, 1, 1.0), Error);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  m.add(0, 0, 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
}

TEST(SparseMatrixTest, ZeroValueRegistersPatternEntry) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 0.0);  // structural registration, value happens to be zero
  m.add(0, 1, 0.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  EXPECT_EQ(m.nonzeros(), 4u);
  m.add(0, 1, 5.0);  // must be inside the pattern
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
}

TEST(SparseMatrixTest, UnfreezeReopensPattern) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 2.0);
  m.freeze_pattern();
  const auto stamp = m.pattern_stamp();
  m.unfreeze();
  m.add(0, 1, 3.0);
  m.freeze_pattern();
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_NE(m.pattern_stamp(), stamp);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix m(3, 3);
  m.add(0, 0, 2.0);
  m.add(0, 1, -1.0);
  m.add(1, 0, -1.0);
  m.add(1, 1, 2.0);
  m.add(1, 2, -1.0);
  m.add(2, 1, -1.0);
  m.add(2, 2, 2.0);
  m.freeze_pattern();
  const Vector x{1.0, 2.0, 3.0};
  const Vector y = m.multiply(x);
  const Vector yd = m.to_dense().multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], yd[i]);
}

/// A device that breaks the fixed-stamp-sequence contract: every call
/// stamps the same ring of conductances (plus a leak per node), but the
/// order moves with `phase` -- odd phases swap the adds within each row
/// (same row, other column), and every second phase starts the ring at
/// another edge -- so its adds reach each diagonal slot in a different
/// order on every restamp.
class ScrambledConductances final : public spice::Device {
 public:
  explicit ScrambledConductances(int nodes)
      : Device("XSCRAMBLE"), nodes_(nodes) {}

  [[nodiscard]] std::unique_ptr<spice::Device> clone() const override {
    auto d = std::make_unique<ScrambledConductances>(nodes_);
    d->phase = phase;
    return d;
  }
  void stamp(spice::Stamper& st, const spice::Unknowns&) override {
    for (int k = 0; k < nodes_; ++k) {
      const int a = (phase / 2 + k) % nodes_;  // unknown indices
      const int b = (a + 1) % nodes_;
      const double g = 1.0 + 0.1 * a;
      if (phase % 2 == 0) {
        st.add_entry(a, a, g);
        st.add_entry(a, b, -g);
        st.add_entry(b, b, g);
        st.add_entry(b, a, -g);
      } else {
        st.add_entry(a, b, -g);
        st.add_entry(a, a, g);
        st.add_entry(b, a, -g);
        st.add_entry(b, b, g);
      }
      st.add_entry(a, a, 0.01 * (a + 1));  // leak to ground
    }
  }
  void stamp_ac(spice::AcStamper&, const spice::Unknowns&) const override {}

  int phase = 0;

 private:
  int nodes_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(StampTapeTest, OutOfOrderDeviceMatchesTheSearchPathBitwise) {
  // The tape replays the last restamp's slots; a device that reorders its
  // adds misses it, and every missed add must land where the binary
  // search puts it. The reference is the search path itself: a copy of the
  // freshly frozen pattern, whose tape has nothing recorded yet.
  constexpr int kNodes = 12;
  const auto n = static_cast<std::size_t>(kNodes);
  spice::Resistor r1("R1", 1, 2, 1e3);
  spice::Resistor r2("R2", 3, kNodes, 2.2e3);
  ScrambledConductances dev(kNodes);
  const spice::Unknowns x(n);
  Vector b(n, 0.0);
  const auto stamp_all = [&](MatrixView m) {
    spice::Stamper st(m, b, kNodes);
    r1.stamp(st, x);
    dev.stamp(st, x);
    r2.stamp(st, x);
  };
  SparseMatrix pattern(n, n);
  stamp_all(pattern);
  pattern.freeze_pattern();

  SparseMatrix taped = pattern;
  SparseValueBatch batch;
  batch.bind(pattern);
  SparseLuFactorization lu_taped;
  SparseLuFactorization lu_search;
  Vector ones(n, 1.0);
  for (int phase = 0; phase < 8; ++phase) {
    SCOPED_TRACE("phase " + std::to_string(phase));
    dev.phase = phase;
    taped.fill(0.0);
    stamp_all(taped);
    MatrixView lane(batch, 1);
    lane.fill(0.0);
    stamp_all(lane);
    SparseMatrix search = pattern;
    search.fill(0.0);
    stamp_all(search);
    EXPECT_EQ(search.tape().misses(), 0u);

    for (std::size_t i = 0; i < pattern.nonzeros(); ++i) {
      ASSERT_TRUE(same_bits(taped.values()[i], search.values()[i])) << i;
      ASSERT_TRUE(same_bits(batch.values()[i * kBatchLanes + 1],
                            search.values()[i]))
          << i;
    }
    lu_taped.refactor(taped);
    lu_search.refactor(search);
    const Vector xt = lu_taped.solve(ones);
    const Vector xs = lu_search.solve(ones);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(xt[i], xs[i])) << i;
    }
  }
  EXPECT_GT(taped.tape().misses(), 0u) << "the search fallback never ran";
  EXPECT_GT(batch.tape().misses(), 0u) << "the search fallback never ran";
}

TEST(StampTapeTest, FixedSequenceRestampsNeverMiss) {
  SparseMatrix m(3, 3);
  const auto stamp = [&m](double g) {
    m.add(0, 0, g);
    m.add(2, 1, -g);
    m.add(1, 1, g);
    m.add(0, 0, 1.0);  // a second add to the same slot
    m.add(1, 2, -g);
    m.add(2, 2, g);
  };
  stamp(0.0);
  m.freeze_pattern();
  EXPECT_EQ(m.tape().size(), 6u);  // one entry per registration
  for (int k = 1; k <= 5; ++k) {
    m.fill(0.0);
    stamp(static_cast<double>(k));
    EXPECT_DOUBLE_EQ(m.at(0, 0), k + 1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), -k);
  }
  EXPECT_EQ(m.tape().misses(), 0u);
  // An add outside the pattern still throws through the tape.
  m.fill(0.0);
  EXPECT_THROW(m.add(0, 2, 1.0), Error);
}

TEST(StampTapeTest, CheckpointRestoresValuesAndTapeCursor) {
  // A restamp that stops after a prefix, checkpoints, and later restores
  // instead of repeating the prefix must leave the values a full restamp
  // gives, with the suffix still replaying its taped slots.
  const auto prefix = [](SparseMatrix& m) {
    m.add(0, 0, 2.0);
    m.add(1, 1, 3.0);
    m.add(0, 1, -1.0);
  };
  const auto suffix = [](SparseMatrix& m, double g) {
    m.add(0, 0, g);
    m.add(2, 2, g);
    m.add(1, 2, -g);
  };
  SparseMatrix m(3, 3);
  prefix(m);
  suffix(m, 0.0);
  m.freeze_pattern();
  SparseMatrix full = m;

  m.fill(0.0);
  prefix(m);
  EXPECT_THROW(m.restore_checkpoint(), Error);  // nothing saved yet
  m.checkpoint();
  EXPECT_EQ(m.tape().cursor(), 3u);
  suffix(m, 0.5);
  for (int k = 1; k <= 4; ++k) {
    m.restore_checkpoint();
    EXPECT_EQ(m.tape().cursor(), 3u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);  // the suffix's adds are gone
    EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
    suffix(m, static_cast<double>(k));
    full.fill(0.0);
    prefix(full);
    suffix(full, static_cast<double>(k));
    for (std::size_t i = 0; i < m.values().size(); ++i) {
      EXPECT_EQ(m.values()[i], full.values()[i]) << "k " << k << " slot " << i;
    }
  }
  EXPECT_EQ(m.tape().misses(), 0u);
  EXPECT_EQ(full.tape().misses(), 0u);
}

TEST(SparseLuTest, SolvesTridiagonalSystem) {
  const std::size_t n = 50;
  SparseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 4.0);
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      m.add(i + 1, i, -1.0);
    }
  }
  m.freeze_pattern();
  Vector b(n, 1.0);
  SparseLuFactorization lu;
  lu.refactor(m);
  const Vector x = lu.solve(b);
  const Vector ax = m.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-12);
}

TEST(SparseLuTest, HandlesZeroDiagonalMnaShape) {
  // Voltage-source-style MNA block: node conductances plus an aux row/col
  // pair with a structurally zero diagonal -- no-pivoting LU dies here.
  //   [ g  0  1 ] [v1]   [0]
  //   [ 0  g -1 ] [v2] = [0]
  //   [ 1 -1  0 ] [i ]   [E]
  SparseMatrix m(3, 3);
  m.add(0, 0, 1e-3);
  m.add(0, 2, 1.0);
  m.add(1, 1, 1e-3);
  m.add(1, 2, -1.0);
  m.add(2, 0, 1.0);
  m.add(2, 1, -1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  Vector b{0.0, 0.0, 5.0};
  lu.solve_in_place(b);
  const Vector ax = m.multiply(b);
  EXPECT_NEAR(ax[0], 0.0, 1e-12);
  EXPECT_NEAR(ax[1], 0.0, 1e-12);
  EXPECT_NEAR(ax[2], 5.0, 1e-12);
}

TEST(SparseLuTest, SingularMatrixThrows) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 0, 2.0);
  m.add(1, 1, 4.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, ZeroMatrixIsANumericalError) {
  // Same contract as the dense engine: a numerically zero matrix stays
  // inside the Newton fallback machinery (NumericalError), it does not
  // abort as API misuse.
  SparseMatrix m(2, 2);
  m.add(0, 0, 0.0);
  m.add(1, 1, 0.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, StructurallySingularThrows) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);  // row 1 has no entries at all
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, NonFiniteEntriesThrowAtRefactor) {
  SparseMatrix m(2, 2);
  m.add(0, 0, std::nan(""));
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, SymbolicAnalysisIsReused) {
  const std::size_t n = 30;
  SparseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 3.0);
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      m.add(i + 1, i, -1.0);
    }
  }
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  EXPECT_EQ(lu.analysis_count(), 1);
  for (int pass = 0; pass < 5; ++pass) {
    m.fill(0.0);
    for (std::size_t i = 0; i < n; ++i) {
      m.add(i, i, 3.0 + 0.1 * pass);
      if (i + 1 < n) {
        m.add(i, i + 1, -1.0);
        m.add(i + 1, i, -1.0);
      }
    }
    lu.refactor(m);
    Vector b(n, 1.0);
    lu.solve_in_place(b);
    const Vector ax = m.multiply(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-12);
  }
  EXPECT_EQ(lu.analysis_count(), 1) << "numeric refactor re-ran the analysis";
}

TEST(SparseLuTest, ReanalyzesOnPivotCollapse) {
  // First factor with a dominant (0,0); then shrink it to ~0 so the frozen
  // pivot collapses and the engine must re-pivot instead of failing.
  SparseMatrix m(2, 2);
  m.add(0, 0, 10.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1e-12);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  const int analyses_before = lu.analysis_count();

  m.fill(0.0);
  m.add(0, 0, 0.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  lu.refactor(m);
  EXPECT_GT(lu.analysis_count(), analyses_before);
  Vector b{1.0, 3.0};
  lu.solve_in_place(b);
  // x solves [0 1; 1 1] x = [1, 3] -> x = (2, 1).
  EXPECT_NEAR(b[0], 2.0, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
}

// Property sweep: random sparse diagonally-dominant systems agree with the
// dense LU to near machine precision, across repeated refactors.
class RandomSparseTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSparseTest, AgreesWithDenseLu) {
  const std::size_t n = 60;
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);

  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  auto put = [&](std::size_t r, std::size_t c, double v) {
    s.add(r, c, v);
    d(r, c) += v;
  };
  for (std::size_t i = 0; i < n; ++i) put(i, i, 5.0 + dist(gen));
  for (int e = 0; e < 240; ++e) {
    const std::size_t r = pick(gen);
    const std::size_t c = pick(gen);
    if (r != c) put(r, c, dist(gen));
  }
  s.freeze_pattern();

  SparseLuFactorization slu;
  slu.refactor(s);
  LuFactorization dlu(d);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = dist(gen);
  const Vector xs = slu.solve(b);
  const Vector xd = dlu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSparseTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ROADMAP sparse follow-up (c): the dense engine's condition_estimate()
// now has a sparse counterpart using the same +/-1 probe, so the two must
// report comparable numbers on identical systems.
TEST(SparseLuTest, ConditionEstimateMatchesDenseWithin10x) {
  for (const unsigned seed : {11u, 22u, 33u, 44u}) {
    const std::size_t n = 24;
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    SparseMatrix s(n, n);
    Matrix d(n, n, 0.0);
    auto put = [&](std::size_t r, std::size_t c, double v) {
      s.add(r, c, v);
      d(r, c) += v;
    };
    for (std::size_t i = 0; i < n; ++i) put(i, i, 4.0 + dist(gen));
    for (int e = 0; e < 80; ++e) {
      const std::size_t r = pick(gen);
      const std::size_t c = pick(gen);
      if (r != c) put(r, c, dist(gen));
    }
    s.freeze_pattern();
    SparseLuFactorization slu;
    slu.refactor(s);
    const LuFactorization dlu(d);
    const double cs = slu.condition_estimate();
    const double cd = dlu.condition_estimate();
    ASSERT_GT(cd, 0.0);
    EXPECT_GT(cs, cd / 10.0) << "seed " << seed;
    EXPECT_LT(cs, cd * 10.0) << "seed " << seed;
    // Both see a well-conditioned system as such.
    EXPECT_LT(cs, 1e4);
  }
}

// The fill-heavy counterpart: a 2-D conductance mesh, where the AMD
// ordering leaves a fill-dense trailing region in the factor. The
// condition probe walks that factor, so pin it to the dense engine's
// number on the same system -- a divergence here means the triangular
// solves drifted from the reference factorisation.
TEST(SparseLuTest, ConditionEstimateMatchesDenseOnFillHeavyMesh) {
  const int g = 14;  // 196 unknowns, a fill-dense trailing factor
  const std::size_t n = static_cast<std::size_t>(g) * g;
  std::mt19937 gen(7u);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  std::vector<double> diag(n, 1e-3);
  auto idx = [g](int x, int y) { return static_cast<std::size_t>(x * g + y); };
  auto couple = [&](std::size_t a, std::size_t b) {
    const double c = dist(gen);
    s.add(a, b, -c);
    s.add(b, a, -c);
    d(a, b) -= c;
    d(b, a) -= c;
    diag[a] += c;
    diag[b] += c;
  };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      if (x + 1 < g) couple(idx(x, y), idx(x + 1, y));
      if (y + 1 < g) couple(idx(x, y), idx(x, y + 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, diag[i]);
    d(i, i) += diag[i];
  }
  s.freeze_pattern();

  SparseLuFactorization slu;
  slu.refactor(s);
  const LuFactorization dlu(d);
  const double cs = slu.condition_estimate();
  const double cd = dlu.condition_estimate();
  ASSERT_GT(cd, 0.0);
  EXPECT_GT(cs, cd / 10.0);
  EXPECT_LT(cs, cd * 10.0);
}

TEST(SparseLuTest, ConditionEstimateGrowsOnIllConditionedSystem) {
  const std::size_t n = 8;
  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = i + 1 == n ? 1e-9 : 2.0;  // one nearly-dependent row
    s.add(i, i, v);
    d(i, i) = v;
  }
  s.freeze_pattern();
  SparseLuFactorization slu;
  slu.refactor(s);
  const LuFactorization dlu(d);
  EXPECT_GT(slu.condition_estimate(), 1e8);
  EXPECT_GT(slu.condition_estimate(), dlu.condition_estimate() / 10.0);
  EXPECT_LT(slu.condition_estimate(), dlu.condition_estimate() * 10.0);
}

// condition_estimate() computes |A|_1 when asked, from the values the
// factors came from. Its columns are summed in CSR order, so the estimate
// is bitwise |A|_1 (summed that way) times the probe's |A^-1| estimate --
// here on a block-triangular matrix whose cross-block entries stay out of
// the factor, with magnitudes spread so the summation order shows, after
// the analysis and again after an incremental refactor.
TEST(SparseLuTest, ConditionEstimateIsTheCsrOrderOneNormTimesTheProbe) {
  const std::size_t n = 40;
  const std::size_t half = n / 2;
  std::mt19937 gen(5u);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_real_distribution<double> decade(-8.0, 8.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  SparseMatrix s(n, n);
  for (std::size_t i = 0; i < n; ++i) s.add(i, i, 0.0);
  for (int e = 0; e < 160; ++e) {
    const std::size_t r = pick(gen);
    const std::size_t c = pick(gen);
    // Rows of the first half reach every column, the second half only its
    // own: block upper triangular, two diagonal blocks.
    if (r != c && (r < half || c >= half)) s.add(r, c, 0.0);
  }
  s.freeze_pattern();
  const auto restamp = [&] {
    s.fill(0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (int i = s.row_ptr()[r]; i < s.row_ptr()[r + 1]; ++i) {
        const std::size_t c = static_cast<std::size_t>(s.col_index()[i]);
        const double v = dist(gen) * std::pow(10.0, decade(gen));
        s.add(r, c, r == c ? 1e9 + std::abs(v) : v);
      }
    }
  };
  const auto reference = [&](const SparseLuFactorization& lu) {
    std::vector<double> colsum(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (int i = s.row_ptr()[r]; i < s.row_ptr()[r + 1]; ++i) {
        const auto e = static_cast<std::size_t>(i);
        colsum[static_cast<std::size_t>(s.col_index()[e])] +=
            std::abs(s.values()[e]);
      }
    }
    double inv_norm = 0.0;
    for (int probe = 0; probe < 2; ++probe) {
      Vector e(n);
      for (std::size_t i = 0; i < n; ++i) {
        e[i] = probe == 0 || i % 2 == 0 ? 1.0 : -1.0;
      }
      double sum = 0.0;
      for (double v : lu.solve(e)) sum += std::abs(v);
      inv_norm = std::max(inv_norm, sum / static_cast<double>(n));
    }
    return *std::max_element(colsum.begin(), colsum.end()) * inv_norm;
  };

  SparseLuFactorization lu;
  restamp();
  lu.refactor(s);
  ASSERT_GT(lu.btf_block_count(), 1u);
  double got = lu.condition_estimate();
  double want = reference(lu);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << got << " vs " << want;

  restamp();
  lu.refactor(s);
  ASSERT_EQ(lu.analysis_count(), 1);
  got = lu.condition_estimate();
  want = reference(lu);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << got << " vs " << want;
}

// The solves multiply by stored pivot reciprocals. A pivot too small to
// invert (1/p overflows) must fail the pivot screen: a column whose only
// entry is subnormal either throws NumericalError or solves to finite
// values -- never inf or NaN -- whether the analysis or a frozen refactor
// meets it, and in a batched lane it fails that lane only.
TEST(SparseLuTest, SubnormalOnlyColumnEntryNeverSolvesToInf) {
  for (const double tiny : {4.9e-324, 1e-310, 2e-309, 6e-309, 1e-308}) {
    ASSERT_LT(tiny, std::numeric_limits<double>::min());
    SparseMatrix m(2, 2);
    m.add(0, 0, 1.0);
    m.add(1, 0, 0.5);
    m.add(1, 1, tiny);  // column 1's only entry
    m.freeze_pattern();
    const auto finite_or_throws = [&](SparseLuFactorization& lu) {
      try {
        lu.refactor(m);
      } catch (const NumericalError&) {
        return;
      }
      Vector b{1.0, 1.0};
      lu.solve_in_place(b);
      EXPECT_TRUE(std::isfinite(b[0]) && std::isfinite(b[1]))
          << "pivot " << tiny << " solved to " << b[0] << ", " << b[1];
    };
    SparseLuFactorization fresh;
    finite_or_throws(fresh);  // the analysis meets the tiny pivot

    SparseLuFactorization warm;
    m.fill(0.0);
    m.add(0, 0, 1.0);
    m.add(1, 0, 0.5);
    m.add(1, 1, 1.0);
    warm.refactor(m);
    m.fill(0.0);
    m.add(0, 0, 1.0);
    m.add(1, 0, 0.5);
    m.add(1, 1, tiny);
    finite_or_throws(warm);  // a frozen pass meets it first

    // Batched: lane 0 is the healthy matrix, lane 1 the tiny pivot, the
    // other lanes inactive.
    m.fill(0.0);
    m.add(0, 0, 1.0);
    m.add(1, 0, 0.5);
    m.add(1, 1, 1.0);
    SparseLuFactorization blu;
    blu.refactor(m);
    SparseValueBatch batch;
    batch.bind(m);
    for (std::size_t lane = 0; lane < 2; ++lane) {
      batch.clear_lane(lane);
      batch.add(0, 0, 1.0, lane);
      batch.add(1, 0, 0.5, lane);
      batch.add(1, 1, lane == 0 ? 1.0 : tiny, lane);
    }
    std::vector<unsigned char> ok(kBatchLanes, 0);
    ok[0] = ok[1] = 1;
    blu.refactor_batch(batch, ok);
    EXPECT_EQ(ok[0], 1);
    std::vector<double> rhs(2 * kBatchLanes, 1.0);
    blu.solve_batch(rhs);
    EXPECT_EQ(rhs[0], 1.0);
    EXPECT_EQ(rhs[kBatchLanes], 0.5);
    if (ok[1] != 0) {
      EXPECT_TRUE(std::isfinite(rhs[1]) && std::isfinite(rhs[kBatchLanes + 1]))
          << "lane pivot " << tiny;
    }
  }
}

// The transient engine restamps the same pattern with wildly different
// values (companion conductances scale with 1/h): if the frozen pivot
// order becomes numerically unstable for the new values, refactor() must
// re-analyse instead of returning a garbage factorisation.
TEST(SparseLuTest, ReanalyzesOnFrozenPivotGrowthBlowup) {
  // Analysis values make (0,0) an attractive pivot; the restamp shrinks it
  // to 1e-6 (still far above the singularity tolerance) while raising the
  // couplings through it to 1e4, so the frozen elimination multiplier is
  // 1e10 and the fill-in reaches ~1e14 -- past the 1e8 * max|A| growth cap.
  SparseMatrix m(3, 3);
  m.add(0, 0, 1.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0 + 1e-3);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  const int analyses_before = lu.analysis_count();

  m.fill(0.0);
  m.add(0, 0, 1e-6);
  m.add(0, 1, 1e4);
  m.add(1, 0, 1e4);
  m.add(1, 1, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 1.0);
  lu.refactor(m);
  EXPECT_GT(lu.analysis_count(), analyses_before)
      << "growth guard did not trigger a re-analysis";
  Vector b{1.0, 2.0, 3.0};
  lu.solve_in_place(b);
  const Vector ax = m.multiply(b);
  EXPECT_NEAR(ax[0], 1.0, 1e-2);  // residual scale ~ max|A| * eps-ish
  EXPECT_NEAR(ax[1], 2.0, 1e-2);
  EXPECT_NEAR(ax[2], 3.0, 1e-2);
}

}  // namespace
}  // namespace icvbe::linalg
