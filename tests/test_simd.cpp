// Tests for the portable SIMD layer (common/simd.hpp) and the batched
// junction exponential (spice/junction.hpp): the vexp accuracy contract,
// pack-vs-scalar bit identity of every DPack op, and the element-wise
// equivalence of safe_exp_many with safe_exp that the batched device
// stamping path depends on. These hold in both ICVBE_SIMD builds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "icvbe/common/simd.hpp"
#include "icvbe/spice/junction.hpp"

namespace {

using icvbe::common::DPack;
using icvbe::common::kPackWidth;
using icvbe::common::vexp;

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Distance in representable doubles between two same-sign finite values.
std::uint64_t ulp_diff(double a, double b) {
  const std::uint64_t ba = bits_of(a);
  const std::uint64_t bb = bits_of(b);
  if ((ba >> 63) != (bb >> 63)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return ba > bb ? ba - bb : bb - ba;
}

TEST(Vexp, MatchesStdExpWithinFourUlpOverFullRange) {
  // Dense deterministic sweep of the non-flushed domain plus a uniform
  // random fill; the documented bound is <= 4 ulp (measured ~1).
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> uni(-708.0, 709.7);
  std::uint64_t worst = 0;
  double worst_x = 0.0;
  auto check = [&](double x) {
    const double got = vexp(x);
    const double want = std::exp(x);
    if (want == 0.0 || !std::isfinite(want)) return;  // flush/overflow edge
    const std::uint64_t u = ulp_diff(got, want);
    if (u > worst) {
      worst = u;
      worst_x = x;
    }
  };
  for (double x = -708.0; x <= 709.7; x += 0.37) check(x);
  for (int i = 0; i < 20000; ++i) check(uni(rng));
  // The junction hot zone gets extra density: arguments a biased diode
  // actually produces (v/vt up to the safe_exp cap).
  std::uniform_real_distribution<double> hot(-50.0, 200.0);
  for (int i = 0; i < 20000; ++i) check(hot(rng));
  EXPECT_LE(worst, 4u) << "worst vexp ulp error at x = " << worst_x;
}

TEST(Vexp, EdgeCases) {
  EXPECT_EQ(vexp(0.0), 1.0);
  EXPECT_EQ(vexp(-0.0), 1.0);
  // Overflow saturates to +inf, like std::exp.
  EXPECT_EQ(vexp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(vexp(1e9), std::numeric_limits<double>::infinity());
  EXPECT_EQ(vexp(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  // Below the smallest normal the contract is flush-to-zero (not a
  // subnormal), and -inf lands there too.
  EXPECT_EQ(vexp(-709.0), 0.0);
  EXPECT_EQ(vexp(-1e9), 0.0);
  EXPECT_EQ(vexp(-std::numeric_limits<double>::infinity()), 0.0);
  // NaN propagates.
  EXPECT_TRUE(std::isnan(vexp(std::numeric_limits<double>::quiet_NaN())));
  // Largest finite results: x just under the overflow threshold stays
  // finite (this is the case that needs the two-step 2^k scaling).
  EXPECT_TRUE(std::isfinite(vexp(709.78)));
  EXPECT_GT(vexp(709.78), 1e308);
}

TEST(Vexp, PackLanesBitIdenticalToScalar) {
  std::mt19937_64 rng(977);
  std::uniform_real_distribution<double> uni(-800.0, 800.0);
  double in[kPackWidth];
  double out[kPackWidth];
  for (int trial = 0; trial < 5000; ++trial) {
    for (std::size_t l = 0; l < kPackWidth; ++l) in[l] = uni(rng);
    vexp(DPack::load(in)).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      EXPECT_EQ(bits_of(out[l]), bits_of(vexp(in[l])))
          << "lane " << l << " x = " << in[l];
    }
  }
}

namespace {

/// Bitwise equality, except that any NaN matches any NaN: IEEE 754 leaves
/// the payload of a NaN result unspecified, and the compiler may order a
/// commutative operation's operands differently in the two flavours.
bool same_result(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || bits_of(a) == bits_of(b);
}

/// The exp edge cases: the overflow and flush thresholds and their
/// neighbours, the safe_exp cap and its neighbours, infinities, signed
/// zeros and NaN.
std::vector<double> exp_edge_inputs() {
  using icvbe::common::simd_detail::kExpHi;
  using icvbe::common::simd_detail::kExpLo;
  const double inf = std::numeric_limits<double>::infinity();
  const double cap = 200.0;
  return {kExpHi,
          std::nextafter(kExpHi, inf),
          std::nextafter(kExpHi, -inf),
          kExpLo,
          std::nextafter(kExpLo, inf),
          std::nextafter(kExpLo, -inf),
          cap,
          std::nextafter(cap, inf),
          std::nextafter(cap, -inf),
          inf,
          -inf,
          0.0,
          -0.0,
          1.0,
          std::numeric_limits<double>::quiet_NaN()};
}

}  // namespace

TEST(Vexp, PackAndSafeExpManyMatchScalarAtEdges) {
  using icvbe::spice::safe_exp;
  using icvbe::spice::safe_exp_many;
  // Every edge value in every lane position, against every other edge
  // value in the remaining lanes: the clamp blends must pick per lane,
  // NaN lanes included.
  const std::vector<double> edges = exp_edge_inputs();
  double in[kPackWidth];
  double out[kPackWidth];
  for (const double a : edges) {
    for (const double b : edges) {
      for (std::size_t pos = 0; pos < kPackWidth; ++pos) {
        for (std::size_t l = 0; l < kPackWidth; ++l) in[l] = b;
        in[pos] = a;
        vexp(DPack::load(in)).store(out);
        for (std::size_t l = 0; l < kPackWidth; ++l) {
          EXPECT_TRUE(same_result(out[l], vexp(in[l])))
              << "vexp lane " << l << " x = " << in[l];
        }
        safe_exp_many(in, out, kPackWidth);
        for (std::size_t l = 0; l < kPackWidth; ++l) {
          EXPECT_TRUE(same_result(out[l], safe_exp(in[l])))
              << "safe_exp_many lane " << l << " x = " << in[l];
        }
      }
    }
  }
  // The thresholds themselves, so both flavours cannot agree on a wrong
  // clamp: one ulp past kExpHi overflows, one ulp below kExpLo flushes.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(vexp(edges[1]), inf);
  EXPECT_TRUE(std::isfinite(vexp(edges[0])));
  EXPECT_EQ(vexp(edges[5]), 0.0);
  EXPECT_GT(vexp(edges[3]), 0.0);
}

TEST(DPack, OpsBitIdenticalToScalar) {
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> uni(-1e3, 1e3);
  double a[kPackWidth], b[kPackWidth], t[kPackWidth], f[kPackWidth];
  double out[kPackWidth];
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      a[l] = uni(rng);
      b[l] = uni(rng);
      t[l] = uni(rng);
      f[l] = uni(rng);
    }
    if (trial == 0) a[1] = std::numeric_limits<double>::quiet_NaN();
    const DPack pa = DPack::load(a);
    const DPack pb = DPack::load(b);

    (pa + pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      if (!std::isnan(a[l])) {
        EXPECT_EQ(out[l], a[l] + b[l]);
      }
    }
    (pa - pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      if (!std::isnan(a[l])) {
        EXPECT_EQ(out[l], a[l] - b[l]);
      }
    }
    (pa * pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      if (!std::isnan(a[l])) {
        EXPECT_EQ(out[l], a[l] * b[l]);
      }
    }
    (pa / pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      if (!std::isnan(a[l])) {
        EXPECT_EQ(out[l], a[l] / b[l]);
      }
    }
    DPack::abs(pa).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      EXPECT_EQ(bits_of(out[l]), bits_of(std::fabs(a[l])));
    }
    // min/max resolve a NaN lane to operand b (the comparison on a is
    // false); both DPack variants share that semantic.
    DPack::min(pa, pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      EXPECT_EQ(bits_of(out[l]), bits_of(a[l] < b[l] ? a[l] : b[l]));
    }
    DPack::max(pa, pb).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      EXPECT_EQ(bits_of(out[l]), bits_of(a[l] > b[l] ? a[l] : b[l]));
    }
    DPack::select_gt(pa, pb, DPack::load(t), DPack::load(f)).store(out);
    for (std::size_t l = 0; l < kPackWidth; ++l) {
      // NaN compares false, so the NaN lane must take f -- the property
      // safe_exp_many's clamp select relies on.
      EXPECT_EQ(bits_of(out[l]), bits_of(a[l] > b[l] ? t[l] : f[l]));
    }
  }
}

TEST(DPack, BroadcastZeroAndIndex) {
  const DPack z = DPack::zero();
  const DPack c = DPack::broadcast(2.5);
  for (std::size_t l = 0; l < kPackWidth; ++l) {
    EXPECT_EQ(z[l], 0.0);
    EXPECT_EQ(c[l], 2.5);
  }
}

TEST(SafeExpMany, ElementwiseBitIdenticalToSafeExp) {
  using icvbe::spice::safe_exp;
  using icvbe::spice::safe_exp_many;
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> uni(-300.0, 300.0);
  // Sizes straddle the pack width so both the vector body and the scalar
  // tail are exercised, including n < kPackWidth (pure tail) and n = 0.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{11}, std::size_t{64}, std::size_t{257}}) {
    std::vector<double> x(n), out(n ? n : 1);
    for (auto& xi : x) xi = uni(rng);
    // Salt in the interesting points: the linearisation cap and beyond
    // (overflow-guard region), and huge negatives (flush region).
    if (n >= 8) {
      x[0] = 199.9999;
      x[1] = 200.0;
      x[2] = 200.0001;
      x[3] = 750.0;
      x[4] = -750.0;
      x[5] = 0.0;
    }
    safe_exp_many(x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits_of(out[i]), bits_of(safe_exp(x[i])))
          << "n = " << n << " i = " << i << " x = " << x[i];
    }
  }
}

TEST(SafeExpMany, CustomCapAndNaN) {
  using icvbe::spice::safe_exp;
  using icvbe::spice::safe_exp_many;
  double x[8] = {9.9, 10.0, 10.1, -5.0, 0.0, 42.0,
                 std::numeric_limits<double>::quiet_NaN(), 3.0};
  double out[8];
  safe_exp_many(x, out, 8, 10.0);
  for (std::size_t i = 0; i < 8; ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(out[i]));
    } else {
      EXPECT_EQ(bits_of(out[i]), bits_of(safe_exp(x[i], 10.0)));
    }
  }
  // Above the cap the continuation is linear in x: e^cap * (1 + x - cap).
  EXPECT_NEAR(out[2] - out[1], std::exp(10.0) * 0.1, 1e-9);
}

}  // namespace
