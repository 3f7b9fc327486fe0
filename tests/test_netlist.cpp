// Tests for the SPICE netlist parser and model-card writer.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "icvbe/common/constants.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice {
namespace {

TEST(SpiceNumber, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_spice_number("1e-15"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("-3.3E2"), -330.0);
}

TEST(SpiceNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5k"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("10MEG"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("47u"), 47e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("2f"), 2e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("1n"), 1e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("4g"), 4e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("1t"), 1e12);
}

TEST(SpiceNumber, SuffixesAreCaseInsensitiveBySpellingNotCase) {
  // MEG is mega and M is milli by SPELLING; case never changes meaning.
  EXPECT_DOUBLE_EQ(parse_spice_number("10MEG"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("10Meg"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("10meg"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("10M"), 10e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("10m"), 10e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5K"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("47U"), 47e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1N"), 1e-9);
}

TEST(SpiceNumber, UnitAnnotationsIgnored) {
  EXPECT_DOUBLE_EQ(parse_spice_number("5v"), 5.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("5V"), 5.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5kohm"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5KOhm"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("10uF"), 10e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("100nH"), 100e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("3kHz"), 3000.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.2megohm"), 2.2e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1ms"), 1e-3);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_THROW((void)parse_spice_number("abc"), NetlistError);
  EXPECT_THROW((void)parse_spice_number(""), NetlistError);
}

TEST(SpiceNumber, RejectsAmbiguousTrailingSuffixes) {
  // A second scale factor after the first is ambiguous garbage, not a
  // unit ("10kk" used to silently parse as 10k).
  EXPECT_THROW((void)parse_spice_number("10kk"), NetlistError);
  EXPECT_THROW((void)parse_spice_number("10megmeg"), NetlistError);
  EXPECT_THROW((void)parse_spice_number("10km"), NetlistError);
  EXPECT_THROW((void)parse_spice_number("5x"), NetlistError);
  EXPECT_THROW((void)parse_spice_number("1kbogus"), NetlistError);
}

TEST(NetlistParser, ResistorDividerSolves) {
  const char* deck = R"(
* simple divider
V1 in 0 10
R1 in mid 1k
R2 mid 0 3k
.TEMP 27
.END
)";
  auto parsed = parse_netlist(deck);
  EXPECT_TRUE(parsed.has_temp_directive);
  EXPECT_DOUBLE_EQ(parsed.temperature_celsius, 27.0);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(c.node("mid")), 7.5, 1e-6);
}

TEST(NetlistParser, CommentsAndContinuations) {
  const char* deck =
      "* header comment\n"
      "V1 a 0 1 ; trailing comment\n"
      "R1 a\n"
      "+ 0 2k\n";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(c.get<VoltageSource>("V1").terminals(x).pin[0].amps, -0.5e-3,
              1e-9);
}

TEST(NetlistParser, ModelCardAndBjt) {
  const char* deck = R"(
.MODEL PNP8 PNP (IS=2e-16 BF=45 VAF=60 VAR=8 EG=1.132 XTI=3.6 TNOM=298.15)
IE 0 e 10u
Q1 0 0 e PNP8 AREA=1
)";
  auto parsed = parse_netlist(deck);
  ASSERT_TRUE(parsed.bjt_models.contains("PNP8"));
  EXPECT_EQ(parsed.bjt_models.at("PNP8").type, BjtModel::Type::kPnp);
  EXPECT_DOUBLE_EQ(parsed.bjt_models.at("PNP8").eg, 1.132);
  auto& c = *parsed.circuit;
  c.set_temperature(298.15);
  const Unknowns x = SimSession(c).solve_or_throw();
  // Diode-connected PNP at 10 uA: VEB ~ 0.62-0.68 V.
  EXPECT_GT(x.node_voltage(c.node("e")), 0.55);
  EXPECT_LT(x.node_voltage(c.node("e")), 0.75);
}

TEST(NetlistParser, ModelDefinedAfterUse) {
  const char* deck = R"(
D1 a 0 DX
I1 0 a 1m
.MODEL DX D (IS=1e-14)
)";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(c.node("a")),
              thermal_voltage(300.15) * std::log(1e-3 / 1e-14), 1e-5);
}

TEST(NetlistParser, OpAmpAndVcvs) {
  const char* deck = R"(
V1 in 0 0.1
E1 e_out 0 in 0 20
U1 u_out in u_out GAIN=1e7 OFFSET=1m
RL1 e_out 0 10k
RL2 u_out 0 10k
)";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(c.node("e_out")), 2.0, 1e-6);
  EXPECT_NEAR(x.node_voltage(c.node("u_out")), 0.101, 1e-5);
}

TEST(NetlistParser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_netlist("V1 a 0 1\nR1 a 0\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetlistParser, UnknownModelRejectedWithLine) {
  try {
    (void)parse_netlist("Q1 c b e NOPE\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
}

TEST(NetlistParser, UnknownElementRejected) {
  EXPECT_THROW((void)parse_netlist("Xsub a b c\n"), NetlistError);
  EXPECT_THROW((void)parse_netlist(".WEIRD 1\n"), NetlistError);
}

TEST(NetlistParser, SubstrateNodeOption) {
  const char* deck = R"(
.MODEL N1 NPN (IS=1e-16 ISS=1e-15)
VB b 0 0.65
VC c 0 0.05
VS s 0 0
Q1 c b 0 N1 SUBSTRATE=s AREA=2
)";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  const Unknowns x = SimSession(c).solve_or_throw();
  auto& q = c.get<Bjt>("Q1");
  EXPECT_DOUBLE_EQ(q.area(), 2.0);
  // Saturated (VBC = +0.6): the BC-driven parasitic pushes current into
  // the substrate rail.
  EXPECT_GT(std::abs(q.currents(x).isub), 1e-10);
}

TEST(NetlistParser, ResistorTempcoFromDeck) {
  const char* deck = R"(
I1 0 n 1m
R1 n 0 1k TC1=2m
.TEMP 127
)";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(c.node("n")), 1.2, 1e-4);
}

TEST(NetlistParser, NodesetDirective) {
  const char* deck = R"(
V1 a 0 1
R1 a b 1k
R2 b 0 1k
.NODESET V(b)=0.5 V(a)=1.0
)";
  auto parsed = parse_netlist(deck);
  ASSERT_EQ(parsed.nodesets.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.nodesets.at("b"), 0.5);
  EXPECT_DOUBLE_EQ(parsed.nodesets.at("a"), 1.0);
  EXPECT_THROW((void)parse_netlist(".NODESET V(b)\n"), NetlistError);
}

TEST(NetlistParser, DuplicateDeviceNameRejectedWithLine) {
  try {
    (void)parse_netlist("V1 a 0 1\nR1 a 0 1k\nR1 a 0 2k\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
  }
  // Semiconductor devices are instantiated after the .MODEL pass but must
  // still carry their own line in the error.
  try {
    (void)parse_netlist(
        ".MODEL DX D (IS=1e-14)\nD1 a 0 DX\nD1 a 0 DX\nI1 0 a 1m\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(NetlistParser, NodesetOfAMissingNodeRejectedWithLine) {
  // A hint may name a node created by a later card, but not one no card
  // creates: the parser names the card's line and the node.
  try {
    (void)parse_netlist("I1 0 a 1m\nR1 a 0 1k\n.NODESET V(zz)=1\n.END\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_STREQ(e.what(),
                 "netlist line 3: .NODESET V(zz): no node named 'zz'");
  }
  auto parsed = parse_netlist(
      ".NODESET V(b)=0.5 V(0)=0\nV1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n");
  auto& c = *parsed.circuit;
  const int nodes = c.node_count();
  const Unknowns guess = parsed.nodeset_guess();
  EXPECT_EQ(c.node_count(), nodes) << "nodeset_guess created a node";
  ASSERT_EQ(guess.size(), static_cast<std::size_t>(c.assign_unknowns()));
  EXPECT_EQ(guess.node_voltage(c.find_node("b")), 0.5);
  EXPECT_EQ(guess.node_voltage(c.find_node("a")), 0.0);
}

TEST(NetlistParser, IcOfAMissingNodeRejectedWithLine) {
  // .IC faces the same post-circuit check as .NODESET: a node no card
  // creates is a parse error naming the card's line, whatever analysis the
  // deck carries, while a node created by a later card is accepted.
  for (const char* analysis : {".TRAN 1n 10n\n", ".DC V1 0 1 0.5\n"}) {
    SCOPED_TRACE(analysis);
    try {
      (void)parse_netlist(std::string("V1 a 0 1\nR1 a b 1k\nC1 b 0 1n\n"
                                      ".IC V(zz)=1\n") +
                          analysis + ".PROBE V(b)\n");
      FAIL() << "should have thrown";
    } catch (const NetlistError& e) {
      EXPECT_STREQ(e.what(), "netlist line 4: .IC V(zz): no node named 'zz'");
    }
  }
  auto parsed = parse_netlist(
      ".IC V(b)=0.5\nV1 a 0 1\nR1 a b 1k\nC1 b 0 1n\n.TRAN 1n 10n\n"
      ".PROBE V(b)\n");
  EXPECT_EQ(parsed.ics.at("b"), 0.5);
}

TEST(NetlistParser, MalformedNodesetVariantsRejected) {
  EXPECT_THROW((void)parse_netlist(".NODESET V(b)\n"), NetlistError);
  EXPECT_THROW((void)parse_netlist(".NODESET V(b)=\n"), NetlistError);
  EXPECT_THROW((void)parse_netlist(".NODESET V(b)=abc\n"), NetlistError);
}

TEST(NetlistParser, DcDirectiveBuildsPlan) {
  const char* deck = R"(
V1 in 0 5
R1 in out 1k
R2 out 0 3k
.DC V1 0 2 0.5
.PROBE V(out) I(V1)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_FALSE(parsed.plans.empty());
  const AnalysisPlan& plan = parsed.plans.front();
  ASSERT_EQ(plan.axes.size(), 1u);
  EXPECT_EQ(plan.axes[0].kind(), SweepAxis::Kind::kVsource);
  EXPECT_EQ(plan.axes[0].device(), "V1");
  const auto pts = plan.axes[0].grid().points();
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[1], 0.5);
  ASSERT_EQ(plan.probes.size(), 2u);
  EXPECT_EQ(plan.probes[0].to_string(), "V(out)");
  EXPECT_EQ(plan.probes[1].to_string(), "I(V1)");
}

TEST(NetlistParser, DcTempAndTwoSpecNesting) {
  const char* deck = R"(
I1 0 n 1m
R1 n 0 1k TC1=2m
.DC TEMP 27 127 50 I1 1m 2m 1m
.PROBE V(n)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_FALSE(parsed.plans.empty());
  const AnalysisPlan& plan = parsed.plans.front();
  // Second .DC spec is the outer axis; TEMP (first spec) is innermost.
  ASSERT_EQ(plan.axes.size(), 2u);
  EXPECT_EQ(plan.axes[0].kind(), SweepAxis::Kind::kIsource);
  EXPECT_EQ(plan.axes[1].kind(), SweepAxis::Kind::kTemperature);
  EXPECT_TRUE(plan.axes[1].celsius());
  EXPECT_EQ(plan.axes[1].label(), "TEMP");
  EXPECT_EQ(plan.axes[1].grid().points().size(), 3u);
}

TEST(NetlistParser, StepDirectiveForms) {
  auto lst = parse_netlist(
      "V1 a 0 1\nR1 a 0 1k\n.STEP R1 LIST 1k 2k 4k\n.DC V1 0 1 1\n"
      ".PROBE V(a)\n");
  ASSERT_FALSE(lst.plans.empty());
  const std::vector<SweepAxis>& axes = lst.plans.front().axes;
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].kind(), SweepAxis::Kind::kResistor);
  EXPECT_EQ(axes[0].grid().points().size(), 3u);
  EXPECT_DOUBLE_EQ(axes[0].grid().points()[2], 4000.0);

  auto dec = parse_netlist(
      "I1 0 a 1m\nR1 a 0 1k\n.STEP I1 DEC 1u 1m 3\n.PROBE V(a)\n");
  ASSERT_FALSE(dec.plans.empty());
  EXPECT_EQ(dec.plans.front().axes[0].grid().spacing(),
            SweepGrid::Spacing::kLogDecades);

  auto lin = parse_netlist(
      "V1 a 0 1\nR1 a 0 1k\n.STEP TEMP -50 125 25\n.PROBE V(a)\n");
  ASSERT_FALSE(lin.plans.empty());
  EXPECT_EQ(lin.plans.front().axes[0].grid().points().size(), 8u);
}

TEST(NetlistParser, OversizedOrNonFiniteGridsFailFastWithLine) {
  // Each card once hung the parser while it built its grid. The size is
  // now checked arithmetically first: a named error at once, no
  // allocation.
  const char* const cards[] = {
      ".DC TEMP -50 inf 25",
      ".DC V1 0 1 1e-300",
      ".DC V1 0 1e308 1",
      ".STEP R1 1 1e308 1",
      ".STEP R1 DEC 1 1e300 100000",
      ".AC DEC 1000000000 1 1e9",
      ".TRAN 1e-300 1",
      ".TRAN 1n 1e300",
      ".TRAN 1u 1 0 1e-300",
      ".TRAN 1u inf",
  };
  for (const char* card : cards) {
    SCOPED_TRACE(card);
    const std::string deck = std::string("V1 a 0 1 AC 1\nR1 a b 1k\n"
                                         "R2 b 0 1k\n") +
                             card + "\n.PROBE V(b)\n";
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)parse_netlist(deck);
      ADD_FAILURE() << "should have thrown";
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(100));
  }
}

TEST(NetlistParser, AnalysisDirectiveErrors) {
  // .DC/.STEP without .PROBE.
  EXPECT_THROW((void)parse_netlist("V1 a 0 1\nR1 a 0 1k\n.DC V1 0 1 1\n"),
               NetlistError);
  // Too many axes: .STEP + two .DC specs.
  EXPECT_THROW(
      (void)parse_netlist("V1 a 0 1\nV2 b 0 1\nR1 a b 1k\nR2 b 0 1k\n"
                          ".STEP TEMP 0 100 50\n.DC V1 0 1 1 V2 0 1 1\n"
                          ".PROBE V(b)\n"),
      NetlistError);
  // Unsweepable targets: PATCH sets C and L values through the same
  // binder, but a sweep still takes only V, I, R and TEMP.
  for (const char* sweep : {".DC Q1 0 1 1\n", ".DC C1 0 1 1\n",
                            ".STEP L1 1u 2u 1u\n.DC V1 0 1 1\n"}) {
    try {
      (void)parse_netlist(std::string("V1 a 0 1\nR1 a 0 1k\nC1 a 0 1n\n"
                                      "L1 a b 1u\nR2 b 0 1k\n") +
                          sweep + ".PROBE V(a)\n");
      FAIL() << "expected NetlistError for " << sweep;
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find("cannot sweep"),
                std::string::npos)
          << e.what();
    }
  }
  // Increment pointing away from stop.
  EXPECT_THROW((void)parse_netlist("V1 a 0 1\nR1 a 0 1k\n.DC V1 0 1 -1\n"
                                   ".PROBE V(a)\n"),
               NetlistError);
  // Malformed probe expression carries the line.
  try {
    (void)parse_netlist("V1 a 0 1\nR1 a 0 1k\n.DC V1 0 1 1\n.PROBE V(a\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  // .PROBE with nothing to probe.
  EXPECT_THROW((void)parse_netlist(".PROBE\n"), NetlistError);
}

TEST(NetlistParser, CapacitorAndInductorCards) {
  auto parsed = parse_netlist(R"(
V1 in 0 5
R1 in out 1k
C1 out 0 10n IC=2.5
L1 out 0 4.7u
L2 out tap 1m IC=1m
.END
)");
  const auto& c1 = parsed.circuit->get<Capacitor>("C1");
  EXPECT_DOUBLE_EQ(c1.capacitance(), 10e-9);
  ASSERT_TRUE(c1.has_initial_condition());
  EXPECT_DOUBLE_EQ(c1.initial_condition(), 2.5);
  const auto& l1 = parsed.circuit->get<Inductor>("L1");
  EXPECT_DOUBLE_EQ(l1.inductance(), 4.7e-6);
  EXPECT_FALSE(l1.has_initial_condition());
  const auto& l2 = parsed.circuit->get<Inductor>("L2");
  EXPECT_DOUBLE_EQ(l2.initial_condition(), 1e-3);
  EXPECT_THROW((void)parse_netlist("C1 a 0\n"), NetlistError);
  EXPECT_THROW((void)parse_netlist("L1 a 0 -1u\n"), NetlistError);
}

TEST(NetlistParser, SourceWaveforms) {
  auto parsed = parse_netlist(R"(
V1 in 0 PULSE(0 1.8 1u 2u 2u 10u 20u)
V2 b 0 DC 0.75
I1 0 c SIN(1u 0.5u 1k)
V3 d 0 PWL(0 0 1m 1 2m 0)
R1 in 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
.END
)");
  const auto& v1 = parsed.circuit->get<VoltageSource>("V1");
  ASSERT_TRUE(v1.has_waveform());
  EXPECT_DOUBLE_EQ(v1.value(), 0.0);  // DC value = waveform at t = 0
  EXPECT_DOUBLE_EQ(v1.waveform().value_at(2e-6), 0.9);
  const auto& v2 = parsed.circuit->get<VoltageSource>("V2");
  EXPECT_FALSE(v2.has_waveform());
  EXPECT_DOUBLE_EQ(v2.value(), 0.75);
  const auto& i1 = parsed.circuit->get<CurrentSource>("I1");
  ASSERT_TRUE(i1.has_waveform());
  EXPECT_DOUBLE_EQ(i1.value(), 1e-6);
  const auto& v3 = parsed.circuit->get<VoltageSource>("V3");
  ASSERT_TRUE(v3.has_waveform());
  EXPECT_DOUBLE_EQ(v3.waveform().value_at(0.5e-3), 0.5);

  // Malformed waveforms fail with line context.
  EXPECT_THROW((void)parse_netlist("V1 a 0 PULSE(1)\nR1 a 0 1k\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 DC 5 3.3\nR1 a 0 1k\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 5 3.3\nR1 a 0 1k\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 SIN(0 1)\nR1 a 0 1k\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 PWL(0 1 2)\nR1 a 0 1k\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 PWL(1 0 0.5 1)\nR1 a 0 1k\n"),
               NetlistError);
}

TEST(NetlistParser, TranDirectiveBuildsTransientPlan) {
  auto parsed = parse_netlist(R"(
V1 in 0 PULSE(0 1 0 1u)
R1 in out 1k
C1 out 0 1u
.IC V(out)=0.25
.TRAN 1u 2m 0.5m 5u UIC METHOD=BE
.PROBE V(out) I(C1)
.END
)");
  ASSERT_FALSE(parsed.plans.empty());
  const AnalysisPlan& plan = parsed.plans.front();
  ASSERT_TRUE(plan.transient.has_value());
  const TransientSpec& spec = *plan.transient;
  EXPECT_DOUBLE_EQ(spec.tstep, 1e-6);
  EXPECT_DOUBLE_EQ(spec.tstop, 2e-3);
  EXPECT_DOUBLE_EQ(spec.tstart, 0.5e-3);
  EXPECT_DOUBLE_EQ(spec.tmax, 5e-6);
  EXPECT_TRUE(spec.uic);
  EXPECT_EQ(spec.method, IntegrationMethod::kBackwardEuler);
  ASSERT_EQ(spec.initial_conditions.size(), 1u);
  EXPECT_EQ(spec.initial_conditions[0].first, "out");
  EXPECT_DOUBLE_EQ(spec.initial_conditions[0].second, 0.25);
  EXPECT_TRUE(plan.axes.empty());
  ASSERT_EQ(plan.probes.size(), 2u);
  ASSERT_EQ(parsed.ics.size(), 1u);
}

TEST(NetlistParser, TranDirectiveErrors) {
  const char* body = "V1 a 0 1\nR1 a 0 1k\nC1 a 0 1u\n";
  auto deck = [&](const std::string& directives) {
    return std::string(body) + directives;
  };
  // No .PROBE.
  EXPECT_THROW((void)parse_netlist(deck(".TRAN 1u 1m\n")), NetlistError);
  // Bad numbers.
  EXPECT_THROW((void)parse_netlist(deck(".TRAN 0 1m\n.PROBE V(a)\n")),
               NetlistError);
  EXPECT_THROW((void)parse_netlist(deck(".TRAN 1u\n.PROBE V(a)\n")),
               NetlistError);
  EXPECT_THROW((void)parse_netlist(
                   deck(".TRAN 1u 1m METHOD=RK4\n.PROBE V(a)\n")),
               NetlistError);
  // Duplicate directive.
  EXPECT_THROW((void)parse_netlist(
                   deck(".TRAN 1u 1m\n.TRAN 2u 1m\n.PROBE V(a)\n")),
               NetlistError);
}

// ------------------------------------------------ multi-analysis decks ---

TEST(MultiAnalysisDeck, AllThreeFamiliesInPinnedCanonicalOrder) {
  // Cards deliberately in reverse canonical order: the plans vector must
  // still come out [DC sweep, TRAN, AC].
  const char* deck = R"(
V1 in 0 1 AC 1
R1 in out 1k
C1 out 0 1u
.AC DEC 5 1 1k
.TRAN 10u 1m
.DC V1 0 1 0.5
.PROBE V(out)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_EQ(parsed.plans.size(), 3u);
  EXPECT_EQ(analysis_kind(parsed.plans[0]), AnalysisKind::kDcSweep);
  EXPECT_EQ(analysis_kind(parsed.plans[1]), AnalysisKind::kTransient);
  EXPECT_EQ(analysis_kind(parsed.plans[2]), AnalysisKind::kAc);
  EXPECT_EQ(parsed.plans[0].name, "deck:DC");
  EXPECT_EQ(parsed.plans[1].name, "deck:TRAN");
  EXPECT_EQ(parsed.plans[2].name, "deck:AC");
  // find_plan resolves each family.
  ASSERT_NE(parsed.find_plan(AnalysisKind::kTransient), nullptr);
  EXPECT_TRUE(parsed.find_plan(AnalysisKind::kTransient)
                  ->transient.has_value());
  ASSERT_NE(parsed.find_plan(AnalysisKind::kAc), nullptr);
  EXPECT_TRUE(parsed.find_plan(AnalysisKind::kAc)->ac.has_value());
}

TEST(MultiAnalysisDeck, ProbesAreDomainFiltered) {
  // I(V1) cannot evaluate in .AC; VDB(out) cannot evaluate at a DC
  // operating point; V(out) rides everywhere.
  const char* deck = R"(
V1 in 0 1 AC 1
R1 in out 1k
C1 out 0 1u
.TRAN 10u 1m
.AC DEC 5 1 1k
.PROBE V(out) I(V1) VDB(out)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_EQ(parsed.plans.size(), 2u);
  const AnalysisPlan* tran = parsed.find_plan(AnalysisKind::kTransient);
  const AnalysisPlan* ac = parsed.find_plan(AnalysisKind::kAc);
  ASSERT_NE(tran, nullptr);
  ASSERT_NE(ac, nullptr);
  ASSERT_EQ(tran->probes.size(), 2u);
  EXPECT_EQ(tran->probes[0].to_string(), "V(out)");
  EXPECT_EQ(tran->probes[1].to_string(), "I(V1)");
  ASSERT_EQ(ac->probes.size(), 2u);
  EXPECT_EQ(ac->probes[0].to_string(), "V(out)");
  EXPECT_EQ(ac->probes[1].to_string(), "VDB(out)");
}

TEST(MultiAnalysisDeck, AnalysisWithNoSupportedProbeIsAnError) {
  // Every .PROBE is AC-only, so the .TRAN plan would be empty.
  EXPECT_THROW((void)parse_netlist("V1 in 0 1 AC 1\nR1 in out 1k\n"
                                   "C1 out 0 1u\n.TRAN 10u 1m\n"
                                   ".AC DEC 5 1 1k\n.PROBE VDB(out)\n"),
               NetlistError);
  // And the mirror image: every .PROBE is DC-only for the .AC plan.
  EXPECT_THROW((void)parse_netlist("V1 in 0 1 AC 1\nR1 in out 1k\n"
                                   "C1 out 0 1u\n.TRAN 10u 1m\n"
                                   ".AC DEC 5 1 1k\n.PROBE I(V1)\n"),
               NetlistError);
}

TEST(MultiAnalysisDeck, SingleAnalysisDecksKeepTheLegacyShape) {
  auto parsed = parse_netlist("V1 a 0 1\nR1 a 0 1k\n.DC V1 0 1 0.5\n"
                              ".PROBE V(a) I(V1)\n");
  ASSERT_EQ(parsed.plans.size(), 1u);
  EXPECT_EQ(parsed.plans[0].name, "deck");
  EXPECT_EQ(parsed.plans[0].probes.size(), 2u);
  EXPECT_EQ(parsed.find_plan(AnalysisKind::kAc), nullptr);
}

TEST(MultiAnalysisDeck, EveryPlanExecutes) {
  // End-to-end: one deck, three plans, one warm session runs them all.
  const char* deck = R"(
V1 in 0 1 AC 1
R1 in out 1k
C1 out 0 1u
.DC V1 0 1 0.5
.TRAN 0.2m 2m
.AC DEC 5 1 1k
.PROBE V(out)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_EQ(parsed.plans.size(), 3u);
  SimSession session(*parsed.circuit);
  for (const AnalysisPlan& plan : parsed.plans) {
    const SweepResult r = session.run(plan);
    EXPECT_GT(r.rows(), 0u) << plan.name;
  }
}

TEST(AnalysisKindTokens, RoundTripAndRejection) {
  EXPECT_STREQ(to_token(AnalysisKind::kDcSweep), "DC");
  EXPECT_STREQ(to_token(AnalysisKind::kTransient), "TRAN");
  EXPECT_STREQ(to_token(AnalysisKind::kAc), "AC");
  EXPECT_EQ(analysis_kind_from_token("dc"), AnalysisKind::kDcSweep);
  EXPECT_EQ(analysis_kind_from_token("Tran"), AnalysisKind::kTransient);
  EXPECT_EQ(analysis_kind_from_token("AC"), AnalysisKind::kAc);
  EXPECT_THROW((void)analysis_kind_from_token("NOISE"), PlanError);
}

TEST(ModelWriter, RoundTripsBjtCard) {
  BjtModel m;
  m.type = BjtModel::Type::kPnp;
  m.is = 2e-16;
  m.bf = 45.0;
  m.vaf = 60.0;
  m.var = 8.0;
  m.eg = 1.132;
  m.xti = 3.6;
  m.tnom = 298.15;
  m.iss_e = 1.4e-13;
  m.ns_e = 2.0;
  m.eg_sub_e = 1.632;
  m.bf_sub = 2.5;
  const std::string card = format_bjt_model("TRUTH", m);
  auto parsed = parse_netlist(card + "\n");
  ASSERT_TRUE(parsed.bjt_models.contains("TRUTH"));
  const BjtModel& r = parsed.bjt_models.at("TRUTH");
  EXPECT_DOUBLE_EQ(r.is, m.is);
  EXPECT_DOUBLE_EQ(r.bf, m.bf);
  EXPECT_DOUBLE_EQ(r.vaf, m.vaf);
  EXPECT_DOUBLE_EQ(r.eg, m.eg);
  EXPECT_DOUBLE_EQ(r.xti, m.xti);
  EXPECT_DOUBLE_EQ(r.iss_e, m.iss_e);
  EXPECT_DOUBLE_EQ(r.eg_sub_e, m.eg_sub_e);
  EXPECT_DOUBLE_EQ(r.bf_sub, m.bf_sub);
  EXPECT_EQ(r.type, BjtModel::Type::kPnp);
}

TEST(ModelWriter, InfinityDefaultsOmitted) {
  BjtModel m;  // vaf/var infinite
  const std::string card = format_bjt_model("M", m);
  EXPECT_EQ(card.find("VAF"), std::string::npos);
  EXPECT_EQ(card.find("VAR"), std::string::npos);
}

TEST(ModelWriter, DiodeCardRoundTrip) {
  DiodeModel m;
  m.is = 3e-15;
  m.n = 1.05;
  m.eg = 1.12;
  const std::string card = format_diode_model("DD", m);
  auto parsed = parse_netlist(card + "\n");
  ASSERT_TRUE(parsed.diode_models.contains("DD"));
  EXPECT_DOUBLE_EQ(parsed.diode_models.at("DD").is, 3e-15);
  EXPECT_DOUBLE_EQ(parsed.diode_models.at("DD").n, 1.05);
}

}  // namespace
}  // namespace icvbe::spice
