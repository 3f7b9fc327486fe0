#pragma once
// Deterministic random number generation for the virtual laboratory.
//
// Every stochastic component (instrument noise, process spread, sensor
// error) draws from an icvbe::Rng seeded from a campaign-level master seed,
// so every experiment in the repository is exactly reproducible run-to-run.
//
// The engine behind Rng is LazyMt19937_64: the MT19937-64 stream of
// std::mt19937_64, produced lazily. A lab component seeds its own stream
// and then draws a few dozen numbers from it, while std::mt19937_64 pays a
// 312-word seed expansion and a 312-word twist before the first draw. The
// lazy engine extends the seed recurrence and twists one word at a time,
// in place, as draws need them.
//
// Equivalence contract: for every seed, the k-th call of operator() returns
// the k-th output of std::mt19937_64(seed), and result_type, min() and
// max() are identical, so the standard distributions consume the two
// engines identically and every Rng draw is unchanged bit for bit. A copy
// taken at any point, the lazy state only partly built included, continues
// the stream identically. test_common pins all of this against
// std::mt19937_64.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace icvbe {

/// See the header comment. MT19937-64 as a linear recurrence over one
/// unbounded word sequence X: X[0..311] is the seed expansion
/// X[i] = f (X[i-1] ^ (X[i-1] >> 62)) + i, every later word is
/// X[j+312] = X[j+156] ^ twist(X[j], X[j+1]), and draw p returns
/// temper(X[312 + p]). Slot j % 312 of x_ holds X[j] until draw j
/// overwrites it with X[j+312]; draw p < 156 reads seed words up to p+156,
/// so seeding runs that far ahead and no further.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    const std::size_t p = pos_;
    if (seeded_ < kN) seed_through(p + kM + 1 < kN ? p + kM + 1 : kN);
    const std::size_t p1 = p + 1 == kN ? 0 : p + 1;
    const std::size_t pm = p < kN - kM ? p + kM : p + kM - kN;
    const result_type y = (x_[p] & kUpper) | (x_[p1] & kLower);
    result_type z = x_[pm] ^ (y >> 1) ^ ((y & 1) != 0 ? kA : 0);
    x_[p] = z;
    pos_ = p1;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  /// Extend the seed expansion to X[0..end). Slots from seeded_ on have not
  /// been twisted yet, so X[seeded_ - 1] is still in its slot.
  void seed_through(std::size_t end) {
    for (; seeded_ < end; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  std::array<result_type, kN> x_{};  // zeroed: copies never read garbage
  std::size_t pos_ = 0;     ///< slot of the next draw's word
  std::size_t seeded_ = 1;  ///< seed words X[0..seeded_) computed
};

/// Thin deterministic wrapper over a 64-bit Mersenne twister (the lazily
/// seeded LazyMt19937_64 above) with the draw helpers the lab needs.
/// Copyable (copies fork the stream state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1CEB00DAULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled to the given sigma and mean.
  [[nodiscard]] double gaussian(double mean, double sigma) {
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Multiplicative lognormal-ish process spread: returns a factor
  /// exp(N(0, sigma_rel)) ~ 1 +/- sigma_rel for small sigma.
  [[nodiscard]] double spread_factor(double sigma_rel) {
    return std::exp(gaussian(0.0, sigma_rel));
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Derive an independent child stream (e.g. one per lot sample). Uses
  /// splitmix-style scrambling of (seed, index) so children do not collide.
  [[nodiscard]] static Rng child(std::uint64_t master_seed,
                                 std::uint64_t index) {
    std::uint64_t z = master_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

 private:
  LazyMt19937_64 engine_;
};

}  // namespace icvbe
