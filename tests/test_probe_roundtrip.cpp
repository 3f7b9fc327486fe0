// Property-style round-trip tests for the probe grammar and the deck
// analysis directives, with seeded random generation: parse_probe /
// Probe::to_string must invert each other structurally, and random
// .DC/.STEP/.PROBE fragments must parse into exactly the AnalysisPlan the
// directive text describes. Closes the parser coverage gaps test_netlist's
// hand-written cases leave (deep expression nesting, arbitrary constants,
// axis/grid combinations).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/plan.hpp"

namespace icvbe::spice {
namespace {

// ------------------------------------------------ structural equality ---

void expect_same_probe(const Probe& a, const Probe& b,
                       const std::string& context) {
  ASSERT_EQ(static_cast<int>(a.kind()), static_cast<int>(b.kind()))
      << context;
  switch (a.kind()) {
    case Probe::Kind::kConstant:
      // format_double_roundtrip guarantees bit-exact value recovery.
      EXPECT_EQ(a.value(), b.value()) << context;
      break;
    case Probe::Kind::kNodeVoltage:
      EXPECT_EQ(a.target(), b.target()) << context;
      EXPECT_EQ(a.target2(), b.target2()) << context;
      break;
    case Probe::Kind::kBranchCurrent:
      EXPECT_EQ(a.target(), b.target()) << context;
      break;
    case Probe::Kind::kBjtCurrent:
      EXPECT_EQ(a.target(), b.target()) << context;
      EXPECT_EQ(static_cast<int>(a.terminal()),
                static_cast<int>(b.terminal()))
          << context;
      break;
    case Probe::Kind::kAcVoltage:
      EXPECT_EQ(a.target(), b.target()) << context;
      EXPECT_EQ(a.target2(), b.target2()) << context;
      EXPECT_EQ(static_cast<int>(a.ac_quantity()),
                static_cast<int>(b.ac_quantity()))
          << context;
      break;
    case Probe::Kind::kExpression:
      ASSERT_EQ(static_cast<int>(a.op()), static_cast<int>(b.op()))
          << context;
      expect_same_probe(a.lhs(), b.lhs(), context + " lhs");
      expect_same_probe(a.rhs(), b.rhs(), context + " rhs");
      break;
  }
}

// --------------------------------------------- random probe generation ---

class ProbeGen {
 public:
  explicit ProbeGen(unsigned seed) : gen_(seed) {}

  Probe random_probe(int depth = 0) {
    // Bias towards leaves as the tree deepens; cap at depth 4.
    const int kind = pick(depth >= 4 ? 4 : 6);
    switch (kind) {
      case 0:
        return Probe::node_voltage(name(),
                                   pick(3) == 0 ? name() : std::string());
      case 1:
        return Probe::branch_current(name());
      case 2:
        return Probe::constant(constant_value());
      case 3:
        return Probe::ac_voltage(ac_quantity(), name(),
                                 pick(2) == 0 ? name() : std::string());
      case 4:
        return Probe::bjt_current(name(), terminal());
      default:
        return Probe::expression(op(), random_probe(depth + 1),
                                 random_probe(depth + 1));
    }
  }

 private:
  int pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(gen_);
  }

  std::string name() {
    static const char* kNames[] = {"out", "in", "mid", "n42", "vref",
                                   "Q1",  "V1", "R2",  "node_7"};
    return kNames[pick(static_cast<int>(std::size(kNames)))];
  }

  double constant_value() {
    const double mant =
        std::uniform_real_distribution<double>(0.1, 10.0)(gen_);
    const int exp = pick(25) - 12;
    double v = mant * std::pow(10.0, exp);
    if (pick(2) == 0) v = -v;
    return v;
  }

  Probe::BjtTerminal terminal() {
    switch (pick(4)) {
      case 0: return Probe::BjtTerminal::kCollector;
      case 1: return Probe::BjtTerminal::kBase;
      case 2: return Probe::BjtTerminal::kEmitter;
      default: return Probe::BjtTerminal::kSubstrate;
    }
  }

  Probe::AcQuantity ac_quantity() {
    switch (pick(5)) {
      case 0: return Probe::AcQuantity::kMagnitude;
      case 1: return Probe::AcQuantity::kDb;
      case 2: return Probe::AcQuantity::kPhaseDeg;
      case 3: return Probe::AcQuantity::kReal;
      default: return Probe::AcQuantity::kImag;
    }
  }

  Probe::Op op() {
    switch (pick(4)) {
      case 0: return Probe::Op::kAdd;
      case 1: return Probe::Op::kSub;
      case 2: return Probe::Op::kMul;
      default: return Probe::Op::kDiv;
    }
  }

  std::mt19937 gen_;
};

class ProbeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ProbeRoundTrip, RandomProbesSurviveToStringParse) {
  ProbeGen gen(static_cast<unsigned>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Probe original = gen.random_probe();
    const std::string text = original.to_string();
    SCOPED_TRACE(text);
    Probe reparsed;
    ASSERT_NO_THROW(reparsed = parse_probe(text));
    expect_same_probe(original, reparsed, text);
    // Serialisation is a fixed point: one round trip reaches it.
    EXPECT_EQ(reparsed.to_string(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeRoundTrip,
                         ::testing::Values(11, 22, 33, 44));

TEST(ProbeRoundTripEdge, WhitespaceAndPrecedence) {
  const Probe p = parse_probe(" V(a) + V(b) * IC(Q1) ");
  ASSERT_EQ(p.kind(), Probe::Kind::kExpression);
  EXPECT_EQ(p.op(), Probe::Op::kAdd);
  EXPECT_EQ(p.rhs().op(), Probe::Op::kMul);
  expect_same_probe(p, parse_probe(p.to_string()), "precedence");
}

TEST(ProbeRoundTripEdge, DifferentialVoltagePairRoundTrips) {
  // V(a,b) is one typed differential pair (so the AC domain can read the
  // differential phasor); it serialises back to exactly "V(a,b)".
  const Probe p = parse_probe("V(a,b)");
  EXPECT_EQ(p.kind(), Probe::Kind::kNodeVoltage);
  EXPECT_EQ(p.target2(), "b");
  const std::string text = p.to_string();
  EXPECT_EQ(text, "V(a,b)");
  expect_same_probe(p, parse_probe(text), text);
  EXPECT_EQ(parse_probe(text).to_string(), text);
}

// ----------------------------------------- deck directive round trips ---

/// Mirror of the parser's .DC/.STEP linear stepping rule.
std::vector<double> mirrored_steps(double start, double stop, double incr) {
  const double eps = 1e-9 * std::abs(incr);
  std::vector<double> values;
  for (int i = 0;; ++i) {
    const double v = start + incr * static_cast<double>(i);
    if (incr > 0.0 ? v > stop + eps : v < stop - eps) break;
    values.push_back(v);
  }
  return values;
}

/// Quarter-steps print as short exact decimals ("3.75"), so the deck text
/// parses back to bit-identical doubles and grids compare with EQ.
std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

constexpr const char* kBaseDeck =
    "V1 in 0 5\n"
    "I1 0 mid 1m\n"
    "R1 in mid 2k\n"
    "R2 mid out 1k\n"
    "R3 out 0 3k\n";

struct AxisSpec {
  std::string target;        // V1, I1, R2, or TEMP
  std::vector<double> grid;  // expected materialised points
  std::string directive;     // the deck text that requests it
};

class DeckAxisGen {
 public:
  explicit DeckAxisGen(unsigned seed) : gen_(seed) {}

  /// A random linear spec usable inside .DC or .STEP.
  AxisSpec linear(const std::string& target) {
    const double start = 0.25 * pick(1, 8);
    const double incr = 0.25 * pick(1, 4);
    const double stop = start + incr * pick(2, 9);
    AxisSpec s;
    s.target = target;
    s.grid = mirrored_steps(start, stop, incr);
    s.directive =
        target + " " + fmt(start) + " " + fmt(stop) + " " + fmt(incr);
    return s;
  }

  AxisSpec list(const std::string& target) {
    AxisSpec s;
    s.target = target;
    const int n = pick(1, 5);
    std::string text = target + " LIST";
    for (int i = 0; i < n; ++i) {
      const double v = 0.25 * pick(1, 40);
      s.grid.push_back(v);
      text += " " + fmt(v);
    }
    s.directive = std::move(text);
    return s;
  }

  AxisSpec dec(const std::string& target) {
    const double first = 0.25 * pick(1, 4);
    const double last = first * std::pow(10.0, pick(1, 3));
    const int per_decade = pick(1, 5);
    AxisSpec s;
    s.target = target;
    s.grid = SweepGrid::log_decades(first, last, per_decade).points();
    s.directive = target + " DEC " + fmt(first) + " " + fmt(last) + " " +
                  std::to_string(per_decade);
    return s;
  }

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen_);
  }

 private:
  std::mt19937 gen_;
};

void expect_axis(const SweepAxis& axis, const AxisSpec& spec) {
  EXPECT_EQ(axis.label(), spec.target);
  if (spec.target == "TEMP") {
    EXPECT_EQ(axis.kind(), SweepAxis::Kind::kTemperature);
    EXPECT_TRUE(axis.celsius());
  } else if (spec.target[0] == 'V') {
    EXPECT_EQ(axis.kind(), SweepAxis::Kind::kVsource);
  } else if (spec.target[0] == 'I') {
    EXPECT_EQ(axis.kind(), SweepAxis::Kind::kIsource);
  } else {
    EXPECT_EQ(axis.kind(), SweepAxis::Kind::kResistor);
  }
  const std::vector<double> points = axis.grid().points();
  ASSERT_EQ(points.size(), spec.grid.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i], spec.grid[i]) << "grid point " << i;
  }
}

class DeckRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DeckRoundTrip, RandomAnalysisFragmentsParseToTheirPlan) {
  DeckAxisGen axes(static_cast<unsigned>(GetParam()));
  ProbeGen probes(static_cast<unsigned>(GetParam()) * 7 + 1);
  const std::vector<std::string> targets = {"V1", "I1", "R2", "TEMP"};

  for (int iter = 0; iter < 60; ++iter) {
    // Shape: 1-spec .DC | 2-spec .DC | .DC plus .STEP (outer).
    const int shape = axes.pick(0, 2);
    std::vector<std::string> pool = targets;
    auto take_target = [&]() {
      const std::size_t i =
          static_cast<std::size_t>(axes.pick(0, static_cast<int>(pool.size()) - 1));
      std::string t = pool[i];
      pool.erase(pool.begin() + static_cast<long>(i));
      return t;
    };

    const AxisSpec inner = axes.linear(take_target());
    std::string deck = kBaseDeck;
    std::vector<const AxisSpec*> expected;  // outer first, like plan.axes
    AxisSpec second;
    if (shape == 0) {
      deck += ".DC " + inner.directive + "\n";
      expected = {&inner};
    } else if (shape == 1) {
      second = axes.linear(take_target());
      deck += ".DC " + inner.directive + " " + second.directive + "\n";
      expected = {&second, &inner};  // first .DC spec is the innermost
    } else {
      const int form = axes.pick(0, 2);
      const std::string t = take_target();
      second = form == 0 ? axes.linear(t)
                         : (form == 1 ? axes.list(t) : axes.dec(t));
      deck += ".DC " + inner.directive + "\n";
      deck += ".STEP " + second.directive + "\n";
      expected = {&second, &inner};  // .STEP is always the outer axis
    }

    std::vector<Probe> want_probes;
    std::string probe_line = ".PROBE";
    const int n_probes = axes.pick(1, 3);
    for (int p = 0; p < n_probes; ++p) {
      want_probes.push_back(probes.random_probe(3));
      probe_line += ' ';
      probe_line += want_probes.back().to_string();
    }
    deck += probe_line + "\n.END\n";
    SCOPED_TRACE(deck);

    ParsedNetlist parsed;
    ASSERT_NO_THROW(parsed = parse_netlist(deck));
    ASSERT_FALSE(parsed.plans.empty());
    const AnalysisPlan& plan = parsed.plans.front();
    ASSERT_EQ(plan.axes.size(), expected.size());
    for (std::size_t a = 0; a < expected.size(); ++a) {
      expect_axis(plan.axes[a], *expected[a]);
    }
    ASSERT_EQ(plan.probes.size(), want_probes.size());
    for (std::size_t p = 0; p < want_probes.size(); ++p) {
      expect_same_probe(plan.probes[p], want_probes[p],
                        want_probes[p].to_string());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeckRoundTrip, ::testing::Values(5, 6, 7));

// ------------------------------------------- .AC directive round trips ---

class AcDeckRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AcDeckRoundTrip, RandomAcFragmentsParseToTheirPlan) {
  DeckAxisGen gen(static_cast<unsigned>(GetParam()));
  ProbeGen probes(static_cast<unsigned>(GetParam()) * 13 + 5);

  const struct {
    const char* keyword;
    AcSpec::Spacing spacing;
  } forms[] = {
      {"DEC", AcSpec::Spacing::kDecade},
      {"OCT", AcSpec::Spacing::kOctave},
      {"LIN", AcSpec::Spacing::kLinear},
  };

  for (int iter = 0; iter < 40; ++iter) {
    const auto& form = forms[gen.pick(0, 2)];
    AcSpec want;
    want.spacing = form.spacing;
    want.points = form.spacing == AcSpec::Spacing::kLinear ? gen.pick(2, 40)
                                                          : gen.pick(1, 12);
    want.fstart = 0.25 * gen.pick(1, 40);
    want.fstop = want.fstart * gen.pick(2, 1000);

    // AC-domain probes only: what a real .AC deck carries.
    std::vector<Probe> want_probes;
    std::string probe_line = ".PROBE";
    const int n_probes = gen.pick(1, 3);
    for (int p = 0; p < n_probes; ++p) {
      want_probes.push_back(
          Probe::ac_voltage(Probe::AcQuantity::kDb, "out",
                            p % 2 == 0 ? std::string() : "in"));
      // Mix in one arbitrary expression probe for grammar coverage.
      if (p == 0) want_probes.back() = probes.random_probe(3);
      probe_line += ' ';
      probe_line += want_probes.back().to_string();
    }

    std::string deck = kBaseDeck;
    deck += ".AC " + std::string(form.keyword) + " " +
            std::to_string(want.points) + " " + fmt(want.fstart) + " " +
            fmt(want.fstop) + "\n";
    deck += probe_line + "\n.END\n";
    SCOPED_TRACE(deck);

    ParsedNetlist parsed;
    ASSERT_NO_THROW(parsed = parse_netlist(deck));
    ASSERT_FALSE(parsed.plans.empty());
    const AnalysisPlan& plan = parsed.plans.front();
    EXPECT_TRUE(plan.axes.empty());
    ASSERT_TRUE(plan.ac.has_value());
    EXPECT_EQ(static_cast<int>(plan.ac->spacing),
              static_cast<int>(want.spacing));
    EXPECT_EQ(plan.ac->points, want.points);
    EXPECT_EQ(plan.ac->fstart, want.fstart);
    EXPECT_EQ(plan.ac->fstop, want.fstop);
    // The materialised grids agree point for point.
    const std::vector<double> got_f = plan.ac->frequencies();
    const std::vector<double> want_f = want.frequencies();
    ASSERT_EQ(got_f.size(), want_f.size());
    for (std::size_t i = 0; i < got_f.size(); ++i) {
      EXPECT_EQ(got_f[i], want_f[i]) << "frequency " << i;
    }
    ASSERT_EQ(plan.probes.size(), want_probes.size());
    for (std::size_t p = 0; p < want_probes.size(); ++p) {
      expect_same_probe(plan.probes[p], want_probes[p],
                        want_probes[p].to_string());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcDeckRoundTrip, ::testing::Values(3, 9));

}  // namespace
}  // namespace icvbe::spice
