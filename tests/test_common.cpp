// Tests for icvbe/common: constants, Series, Table, Rng, AsciiPlot.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <type_traits>
#include <vector>

#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/rng.hpp"
#include "icvbe/common/series.hpp"
#include "icvbe/common/table.hpp"

namespace icvbe {
namespace {

TEST(Constants, ThermalVoltageAtRoomTemperature) {
  // kT/q at 300 K is the canonical 25.85 mV.
  EXPECT_NEAR(thermal_voltage(300.0), 0.025852, 1e-6);
}

TEST(Constants, ThermalVoltageScalesLinearly) {
  EXPECT_DOUBLE_EQ(thermal_voltage(600.0), 2.0 * thermal_voltage(300.0));
}

TEST(Constants, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(to_kelvin(25.0), 298.15);
  EXPECT_DOUBLE_EQ(to_celsius(to_kelvin(-50.88)), -50.88);
}

TEST(Constants, BoltzmannEvIsConsistent) {
  EXPECT_NEAR(kBoltzmannEv, 8.617333e-5, 1e-10);
}

TEST(ErrorMacros, RequireThrowsWithContext) {
  try {
    ICVBE_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

TEST(ErrorMacros, RequirePassesSilently) {
  EXPECT_NO_THROW(ICVBE_REQUIRE(true, "never"));
}

TEST(SeriesTest, PushAndAccess) {
  Series s("test");
  s.push_back(1.0, 10.0);
  s.push_back(2.0, 20.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x(1), 2.0);
  EXPECT_DOUBLE_EQ(s.y(1), 20.0);
  EXPECT_EQ(s.name(), "test");
}

TEST(SeriesTest, ConstructorRejectsMismatchedLengths) {
  EXPECT_THROW(Series("bad", {1.0, 2.0}, {1.0}), Error);
}

TEST(SeriesTest, InterpolateInside) {
  Series s("lin", {0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(s.interpolate(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.interpolate(1.5), 25.0);
}

TEST(SeriesTest, InterpolateExtrapolatesLinearly) {
  Series s("lin", {0.0, 1.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(s.interpolate(2.0), 20.0);
  EXPECT_DOUBLE_EQ(s.interpolate(-1.0), -10.0);
}

TEST(SeriesTest, InterpolateRequiresSortedX) {
  Series s("bad", {1.0, 0.5}, {0.0, 1.0});
  EXPECT_THROW((void)s.interpolate(0.7), Error);
}

TEST(SeriesTest, NearestIndex) {
  Series s("n", {0.0, 10.0, 20.0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(s.nearest_index(12.0), 1u);
  EXPECT_EQ(s.nearest_index(-5.0), 0u);
  EXPECT_EQ(s.nearest_index(100.0), 2u);
}

TEST(SeriesTest, MinMax) {
  Series s("m", {3.0, 1.0, 2.0}, {30.0, -10.0, 20.0});
  EXPECT_DOUBLE_EQ(s.min_x(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_x(), 3.0);
  EXPECT_DOUBLE_EQ(s.min_y(), -10.0);
  EXPECT_DOUBLE_EQ(s.max_y(), 30.0);
}

TEST(SeriesTest, LogYTransformsAndValidates) {
  Series s("p", {1.0, 2.0}, {1.0, std::exp(1.0)});
  Series l = s.log_y();
  EXPECT_NEAR(l.y(0), 0.0, 1e-15);
  EXPECT_NEAR(l.y(1), 1.0, 1e-15);

  Series bad("b", {1.0}, {-1.0});
  EXPECT_THROW((void)bad.log_y(), Error);
}

TEST(SeriesTest, SortedByX) {
  Series s("u", {3.0, 1.0, 2.0}, {30.0, 10.0, 20.0});
  Series t = s.sorted_by_x();
  EXPECT_TRUE(t.x_strictly_increasing());
  EXPECT_DOUBLE_EQ(t.y(0), 10.0);
  EXPECT_DOUBLE_EQ(t.y(2), 30.0);
}

TEST(TableTest, AlignedPrintContainsCells) {
  Table t({"name", "value"});
  t.add_row({"EG", "1.17"});
  t.add_row({"XTI", "3"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("EG"), std::string::npos);
  EXPECT_NE(text.find("1.17"), std::string::npos);
  EXPECT_NE(text.find("XTI"), std::string::npos);
}

TEST(TableTest, RowWidthValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, CsvQuotesCommas) {
  Table t({"k", "v"});
  t.add_row({"x,y", "1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Formatting, FixedAndSci) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_sci(1.5e-8, 1), "1.5e-08");
  EXPECT_EQ(format_sig(1234.5678, 4), "1235");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(RngTest, ChildStreamsAreIndependent) {
  Rng a = Rng::child(7, 0);
  Rng b = Rng::child(7, 1);
  // Extremely unlikely to coincide if streams are decorrelated.
  bool any_different = false;
  for (int i = 0; i < 8; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng r(123);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.gaussian(2.0, 0.5);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(RngTest, SpreadFactorCentredOnUnity) {
  Rng r(5);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.spread_factor(0.01);
  EXPECT_NEAR(sum / kN, 1.0, 0.005);
}

// The lazy engine behind Rng must reproduce std::mt19937_64 bit for bit:
// every raw draw, every copy taken mid-stream, and every distribution draw
// Rng makes through it.

/// Seeds spanning the edge values, small integers and scrambled words.
std::vector<std::uint64_t> engine_seeds(std::size_t count) {
  std::vector<std::uint64_t> seeds = {0, 1, 2, 0x1CEB00DAULL,
                                      ~std::uint64_t{0}, 1ULL << 63};
  std::mt19937_64 pick(2024);
  while (seeds.size() < count) {
    seeds.push_back(seeds.size() % 2 == 0 ? seeds.size() : pick());
  }
  return seeds;
}

TEST(LazyMt19937_64Test, RawDrawsMatchStdMt19937_64) {
  // ICVBE_SPARSE_STRESS=1 (the stress ctest variant) lengthens every
  // stream to 1e5 draws.
  const int draws = std::getenv("ICVBE_SPARSE_STRESS") ? 100000 : 1000;
  for (const std::uint64_t seed : engine_seeds(1000)) {
    std::mt19937_64 ref(seed);
    LazyMt19937_64 lazy(seed);
    for (int i = 0; i < draws; ++i) {
      const std::uint64_t want = ref();
      const std::uint64_t got = lazy();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << i << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(LazyMt19937_64Test, RangeMatchesStdMt19937_64) {
  static_assert(std::is_same_v<LazyMt19937_64::result_type,
                               std::mt19937_64::result_type>);
  static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
  static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
}

TEST(LazyMt19937_64Test, CopyMidStreamContinuesIdentically) {
  // Copies taken with the seed expansion only partly built (before draw
  // 156), just as it completes, and across the first and second twist
  // rounds (312, 624) must continue the stream like the reference.
  for (const int at : {0, 1, 2, 155, 156, 157, 311, 312, 313, 623, 624,
                       625}) {
    for (const std::uint64_t seed : engine_seeds(8)) {
      std::mt19937_64 ref(seed);
      LazyMt19937_64 lazy(seed);
      for (int i = 0; i < at; ++i) {
        ref();
        (void)lazy();
      }
      LazyMt19937_64 copy = lazy;
      LazyMt19937_64 assigned(seed + 1);
      (void)assigned();
      assigned = lazy;
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(copy(), want) << "copy at " << at << ", draw " << i;
        ASSERT_EQ(assigned(), want) << "assigned at " << at << ", draw " << i;
        ASSERT_EQ(lazy(), want) << "original at " << at << ", draw " << i;
      }
    }
  }
}

/// Rng's draw helpers over std::mt19937_64: the reference the lazy engine
/// must reproduce through the standard distributions.
struct StdRng {
  std::mt19937_64 engine;
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  double gaussian(double mean, double sigma) {
    return std::normal_distribution<double>(mean, sigma)(engine);
  }
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
  }
};

TEST(RngTest, DrawsMatchStdMt19937_64Reference) {
  for (const std::uint64_t seed : engine_seeds(50)) {
    Rng rng(seed);
    StdRng ref{std::mt19937_64(seed)};
    // Mixed draws so every distribution meets the stream at many offsets,
    // the 156/312 boundaries included.
    for (int i = 0; i < 400; ++i) {
      switch (i % 4) {
        case 0:
          ASSERT_EQ(rng.gaussian(1.5, 0.25), ref.gaussian(1.5, 0.25));
          break;
        case 1:
          ASSERT_EQ(rng.uniform(-2.0, 3.0), ref.uniform(-2.0, 3.0));
          break;
        case 2:
          ASSERT_EQ(rng.integer(3, 1000), ref.integer(3, 1000));
          break;
        default:
          ASSERT_EQ(rng.spread_factor(0.02),
                    std::exp(ref.gaussian(0.0, 0.02)));
          break;
      }
    }
  }
}

TEST(AsciiPlotTest, RendersGlyphsAndLegend) {
  Series s("ramp", {0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 2.0, 3.0});
  AsciiPlotOptions opt;
  opt.title = "ramp plot";
  AsciiPlot plot(opt);
  plot.add(s, '*');
  std::ostringstream os;
  plot.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find("ramp plot"), std::string::npos);
  EXPECT_NE(text.find("legend:"), std::string::npos);
}

TEST(AsciiPlotTest, EmptyPlotDoesNotCrash) {
  AsciiPlot plot;
  std::ostringstream os;
  plot.print(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(AsciiPlotTest, RejectsTinyGeometry) {
  AsciiPlotOptions opt;
  opt.width = 4;
  EXPECT_THROW(AsciiPlot{opt}, Error);
}

}  // namespace
}  // namespace icvbe
