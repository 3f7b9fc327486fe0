#pragma once
// Portable fixed-width SIMD layer: a 4-lane double pack (DPack) over GCC /
// Clang vector extensions, with a plain-array scalar fallback selected at
// configure time (ICVBE_SIMD=OFF, or a compiler without the extensions).
// Both implementations perform the SAME elementwise IEEE-754 operations, so
// any kernel written against DPack produces bit-identical results in either
// build -- the determinism contract the batched lot solver depends on.
//
// Determinism / FMA contract: no operation here contracts a multiply-add
// into an FMA, and the project builds with -ffp-contract=off, so results do
// not depend on the target ISA (baseline x86-64 vs the -march=x86-64-v3 CI
// leg) or on ICVBE_SIMD. A pack op on lanes {a,b,c,d} is exactly the scalar
// op applied to a, b, c, d independently.
//
// vexp: a vectorizable exp(double) used by the junction stamping hot path
// (scalar and pack flavours share one algorithm, so the per-die fallback is
// bit-identical to the batched path). Accuracy: <= 4 ulp of std::exp over
// the full non-flushed range (property-tested in test_simd); outputs below
// the smallest normal (x < ~-708.396) flush to zero instead of producing
// subnormals -- numerically invisible for junction currents, where 1e-308 A
// is zero. Overflow (x > ~709.783) returns +inf; NaN propagates.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(ICVBE_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define ICVBE_SIMD_VEXT 1
#endif

namespace icvbe::common {

/// True when DPack compiles to real vector registers (ICVBE_SIMD builds on
/// GCC/Clang); false in the scalar-fallback build. Benches use this to pick
/// the gate set for the build flavour.
inline constexpr bool kSimdEnabled =
#ifdef ICVBE_SIMD_VEXT
    true;
#else
    false;
#endif

/// Lanes per pack. Fixed at 4 doubles (one AVX2 register; two SSE2 ops on
/// baseline x86-64) so kernel tiling decisions are build-independent.
inline constexpr std::size_t kPackWidth = 4;

#ifdef ICVBE_SIMD_VEXT

/// 4 x double pack over compiler vector extensions. Unaligned loads/stores
/// (the lane planes are only 8-byte aligned); elementwise arithmetic only.
struct DPack {
  typedef double vec __attribute__((vector_size(4 * sizeof(double))));
  typedef long long ivec __attribute__((vector_size(4 * sizeof(long long))));
  vec v;

  static DPack load(const double* p) noexcept {
    DPack r;
    std::memcpy(&r.v, p, sizeof(vec));
    return r;
  }
  static DPack broadcast(double x) noexcept { return DPack{vec{x, x, x, x}}; }
  static DPack zero() noexcept { return DPack{vec{}}; }
  void store(double* p) const noexcept { std::memcpy(p, &v, sizeof(vec)); }
  double operator[](std::size_t i) const noexcept {
    return v[static_cast<int>(i)];
  }

  friend DPack operator+(DPack a, DPack b) noexcept { return {a.v + b.v}; }
  friend DPack operator-(DPack a, DPack b) noexcept { return {a.v - b.v}; }
  friend DPack operator*(DPack a, DPack b) noexcept { return {a.v * b.v}; }
  friend DPack operator/(DPack a, DPack b) noexcept { return {a.v / b.v}; }

  static DPack min(DPack a, DPack b) noexcept {
    return {a.v < b.v ? a.v : b.v};
  }
  static DPack max(DPack a, DPack b) noexcept {
    return {a.v > b.v ? a.v : b.v};
  }
  static DPack abs(DPack a) noexcept {
    const ivec m = {0x7fffffffffffffffLL, 0x7fffffffffffffffLL,
                    0x7fffffffffffffffLL, 0x7fffffffffffffffLL};
    return {std::bit_cast<vec>(std::bit_cast<ivec>(a.v) & m)};
  }
  /// Per lane: a > b ? t : f. The comparison is false on NaN, matching the
  /// scalar `a > b ? t : f` exactly. Written as a mask blend, not `?:`
  /// (see blend()).
  static DPack select_gt(DPack a, DPack b, DPack t, DPack f) noexcept {
    return {blend(a.v > b.v, t.v, f.v)};
  }

  /// Per lane: m ? t : f for a comparison mask m (all-ones or all-zero
  /// lanes), as (t & m) | (f & ~m). On baseline x86-64 GCC lowers a 32-byte
  /// vector `?:` one element at a time (a compare-and-branch plus stack
  /// round trips per lane); the bitwise form stays in registers at every
  /// -march level. min/max keep `?:`, which GCC already maps to maxpd.
  static vec blend(ivec m, vec t, vec f) noexcept {
    return std::bit_cast<vec>((std::bit_cast<ivec>(t) & m) |
                              (std::bit_cast<ivec>(f) & ~m));
  }
};

#else  // scalar fallback: same elementwise semantics, plain arrays

struct DPack {
  double v[kPackWidth];

  static DPack load(const double* p) noexcept {
    DPack r;
    for (std::size_t i = 0; i < kPackWidth; ++i) r.v[i] = p[i];
    return r;
  }
  static DPack broadcast(double x) noexcept {
    DPack r;
    for (std::size_t i = 0; i < kPackWidth; ++i) r.v[i] = x;
    return r;
  }
  static DPack zero() noexcept { return broadcast(0.0); }
  void store(double* p) const noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) p[i] = v[i];
  }
  double operator[](std::size_t i) const noexcept { return v[i]; }

  friend DPack operator+(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) a.v[i] = a.v[i] + b.v[i];
    return a;
  }
  friend DPack operator-(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) a.v[i] = a.v[i] - b.v[i];
    return a;
  }
  friend DPack operator*(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) a.v[i] = a.v[i] * b.v[i];
    return a;
  }
  friend DPack operator/(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) a.v[i] = a.v[i] / b.v[i];
    return a;
  }

  // The comparisons mirror the vector-extension variant exactly
  // (condition on a, false selects b) so a NaN lane resolves to the same
  // operand in both builds.
  static DPack min(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) {
      a.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    }
    return a;
  }
  static DPack max(DPack a, DPack b) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) {
      a.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    }
    return a;
  }
  static DPack abs(DPack a) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) {
      a.v[i] = std::bit_cast<double>(std::bit_cast<long long>(a.v[i]) &
                                     0x7fffffffffffffffLL);
    }
    return a;
  }
  static DPack select_gt(DPack a, DPack b, DPack t, DPack f) noexcept {
    for (std::size_t i = 0; i < kPackWidth; ++i) {
      f.v[i] = a.v[i] > b.v[i] ? t.v[i] : f.v[i];
    }
    return f;
  }
};

#endif  // ICVBE_SIMD_VEXT

namespace simd_detail {

// exp(x) = 2^k * exp(r), k = round(x * log2(e)), r = x - k * ln2. The
// constants are the classic cephes split: kLn2Hi carries 21 mantissa bits,
// so k * kLn2Hi is exact for |k| <= 2^11 and the reduction loses nothing.
inline constexpr double kLog2E = 1.4426950408889634073599246810019;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
/// 1.5 * 2^52: adding then subtracting rounds to the nearest integer in
/// round-to-nearest mode, and bits(x + kShift) - bits(kShift) IS that
/// integer while |x| < 2^51 -- one addition doubles as round and convert.
inline constexpr double kShift = 6755399441055744.0;
/// exp overflows double above this...
inline constexpr double kExpHi = 709.78271289338399684324569237317;
/// ...and the result is subnormal below this (ln of the smallest normal);
/// vexp flushes to zero there (see header comment).
inline constexpr double kExpLo = -708.39641853226410621714333962146;

// Degree-13 Taylor coefficients 1/i!, Horner-ordered (degree 13 first).
// Truncation at |r| <= ln2/2: r^14/14! ~ 4e-18, well under half an ulp;
// the measured bound vs std::exp is dominated by Horner rounding.
inline constexpr double kExpPoly[] = {
    1.0 / 6227020800.0,  // 1/13!
    1.0 / 479001600.0,   // 1/12!
    1.0 / 39916800.0,    // 1/11!
    1.0 / 3628800.0,     // 1/10!
    1.0 / 362880.0,      // 1/9!
    1.0 / 40320.0,       // 1/8!
    1.0 / 5040.0,        // 1/7!
    1.0 / 720.0,         // 1/6!
    1.0 / 120.0,         // 1/5!
    1.0 / 24.0,          // 1/4!
    1.0 / 6.0,           // 1/3!
    1.0 / 2.0,           // 1/2!
    1.0,                 // 1/1!
    1.0,                 // 1/0!
};

}  // namespace simd_detail

/// Vectorizable exp(double), scalar flavour -- the same operation sequence
/// as the pack flavour below, applied to one lane, so batched and per-die
/// device evaluation agree bitwise. See the header comment for the accuracy
/// and flush-to-zero contract.
inline double vexp(double x) noexcept {
  using namespace simd_detail;
  const double t = x * kLog2E + kShift;
  const double kf = t - kShift;
  const double r = (x - kf * kLn2Hi) - kf * kLn2Lo;
  double p = kExpPoly[0];
  for (std::size_t i = 1; i < 14; ++i) p = p * r + kExpPoly[i];
  // 2^k split into two halves so k = 1024 (finite results up to DBL_MAX
  // need it) and k = -1022 stay representable; the first scale is exact.
  const long long ki =
      std::bit_cast<long long>(t) - std::bit_cast<long long>(kShift);
  const long long kh = ki >> 1;
  const double s1 = std::bit_cast<double>((kh + 1023LL) << 52);
  const double s2 = std::bit_cast<double>((ki - kh + 1023LL) << 52);
  double res = (p * s1) * s2;
  if (x > kExpHi) res = std::numeric_limits<double>::infinity();
  if (x < kExpLo) res = 0.0;
  return res;  // NaN input propagates through p
}

/// Vectorizable exp(double), 4-lane pack flavour. Elementwise identical to
/// the scalar vexp above.
inline DPack vexp(DPack x) noexcept {
  using namespace simd_detail;
#ifdef ICVBE_SIMD_VEXT
  using vec = DPack::vec;
  using ivec = DPack::ivec;
  const vec t = x.v * kLog2E + kShift;
  const vec kf = t - kShift;
  const vec r = (x.v - kf * kLn2Hi) - kf * kLn2Lo;
  vec p = vec{} + kExpPoly[0];
  for (std::size_t i = 1; i < 14; ++i) p = p * r + kExpPoly[i];
  const ivec ki = std::bit_cast<ivec>(t) -
                  std::bit_cast<long long>(kShift);
  const ivec kh = ki >> 1;
  const vec s1 = std::bit_cast<vec>((kh + 1023LL) << 52);
  const vec s2 = std::bit_cast<vec>((ki - kh + 1023LL) << 52);
  vec res = (p * s1) * s2;
  res = DPack::blend(x.v > kExpHi,
                     vec{} + std::numeric_limits<double>::infinity(), res);
  res = DPack::blend(x.v < kExpLo, vec{}, res);
  return {res};
#else
  DPack r;
  for (std::size_t i = 0; i < kPackWidth; ++i) r.v[i] = vexp(x.v[i]);
  return r;
#endif
}

}  // namespace icvbe::common
