// Small-signal (.AC) analysis acceptance suite:
//  * RC low-pass / RL high-pass magnitude, dB and phase against the
//    analytic transfer functions at <= 1e-10;
//  * the AC linearisation pinned to the DC Jacobian: the low-frequency
//    small-signal gain of a nonlinear divider must equal the numeric
//    derivative of the DC transfer curve;
//  * the sparse complex engine agrees with a dense G + j*omega*C and a
//    dense complex LU at <= 1e-10, about the same operating point, on a
//    generated rc-ladder, both Banba AC decks (MOSFET, PNP, op-amp,
//    inductor loop break) and the serve deck (PNP, 200 capacitors);
//  * building G at the operating point leaves no device state behind: a
//    .DC run after an .AC run prints what it prints without one;
//  * an AC sweep performs zero heap allocations per frequency point after
//    setup (counting operator-new hook) and is bit-identical for any plan
//    thread count;
//  * AcSpec grids, AC probe parsing, the .AC card and the source AC spec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

#include "dense_oracle.hpp"
#include "serve_deck.hpp"

namespace icvbe::spice {
namespace {

using Complex = linalg::Complex;

// ---------------------------------------------------------- AcSpec grid ---

TEST(AcSpec, DecadeGridHitsExactDecades) {
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kDecade;
  spec.points = 2;
  spec.fstart = 1.0;
  spec.fstop = 100.0;
  const std::vector<double> f = spec.frequencies();
  ASSERT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_NEAR(f[1], std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(f[2], 10.0, 1e-9);
  EXPECT_NEAR(f[4], 100.0, 1e-6);
}

TEST(AcSpec, OctaveAndLinearGrids) {
  AcSpec oct;
  oct.spacing = AcSpec::Spacing::kOctave;
  oct.points = 1;
  oct.fstart = 1.0;
  oct.fstop = 8.0;
  const std::vector<double> fo = oct.frequencies();
  ASSERT_EQ(fo.size(), 4u);
  EXPECT_NEAR(fo[3], 8.0, 1e-9);

  AcSpec lin;
  lin.spacing = AcSpec::Spacing::kLinear;
  lin.points = 5;
  lin.fstart = 10.0;
  lin.fstop = 50.0;
  const std::vector<double> fl = lin.frequencies();
  ASSERT_EQ(fl.size(), 5u);
  EXPECT_DOUBLE_EQ(fl[0], 10.0);
  EXPECT_DOUBLE_EQ(fl[2], 30.0);
  EXPECT_DOUBLE_EQ(fl[4], 50.0);
}

TEST(AcSpec, DegenerateSpecsThrow) {
  AcSpec spec;
  spec.points = 0;
  EXPECT_THROW((void)spec.frequencies(), PlanError);
  spec.points = 10;
  spec.fstart = 0.0;  // log grid needs fstart > 0
  spec.fstop = 100.0;
  EXPECT_THROW((void)spec.frequencies(), PlanError);
  spec.fstart = 100.0;
  spec.fstop = 1.0;
  EXPECT_THROW((void)spec.frequencies(), PlanError);
  // f = 0 is the DC operating point, not an AC point -- on ANY grid.
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.fstart = 0.0;
  spec.fstop = 100.0;
  EXPECT_THROW((void)spec.frequencies(), PlanError);
}

// ------------------------------------------- analytic transfer functions ---

/// AC plan over the probes.
AnalysisPlan ac_plan(AcSpec spec, const std::vector<std::string>& probes) {
  AnalysisPlan plan;
  plan.name = "ac-test";
  plan.ac = spec;
  for (const std::string& p : probes) plan.probes.push_back(parse_probe(p));
  return plan;
}

/// Session options for the analytic comparisons: gmin_floor 0 so they are
/// exact (the default 1e-12 diagonal perturbs a 1 kOhm divider at 1e-9).
NewtonOptions exact_options() {
  NewtonOptions options;
  options.gmin_floor = 0.0;
  return options;
}

TEST(AcAnalysis, RcLowpassMatchesAnalyticTransfer) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 0.0);
  v1.set_ac(1.0);
  c.add_resistor("R1", in, out, 1.0e3);
  c.add_capacitor("C1", out, kGround, 1.0e-6);

  SimSession session(c, exact_options());
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kDecade;
  spec.points = 10;
  spec.fstart = 1.0;
  spec.fstop = 1.0e6;
  const SweepResult r =
      session.run(ac_plan(spec, {"VM(out)", "VDB(out)", "VP(out)"}));

  const double rc = 1.0e3 * 1.0e-6;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const double f = r.axis_value(0, i);
    const Complex h = 1.0 / Complex(1.0, 2.0 * M_PI * f * rc);
    EXPECT_NEAR(r.value(0, i), std::abs(h), 1e-10) << "VM at " << f;
    EXPECT_NEAR(r.value(1, i), 20.0 * std::log10(std::abs(h)), 1e-10)
        << "VDB at " << f;
    EXPECT_NEAR(r.value(2, i), std::arg(h) * 180.0 / M_PI, 1e-10)
        << "VP at " << f;
  }
}

TEST(AcAnalysis, RlHighpassMatchesAnalyticTransfer) {
  // Exercises the inductor's aux-row reactance: H = jwL / (R + jwL).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 0.0);
  v1.set_ac(1.0);
  c.add_resistor("R1", in, out, 50.0);
  c.add_inductor("L1", out, kGround, 1.0e-3);

  SimSession session(c, exact_options());
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kDecade;
  spec.points = 7;
  spec.fstart = 10.0;
  spec.fstop = 1.0e6;
  const SweepResult r = session.run(ac_plan(spec, {"VM(out)", "VP(out)"}));
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const double f = r.axis_value(0, i);
    const Complex jwl(0.0, 2.0 * M_PI * f * 1.0e-3);
    const Complex h = jwl / (50.0 + jwl);
    EXPECT_NEAR(r.value(0, i), std::abs(h), 1e-10) << "VM at " << f;
    EXPECT_NEAR(r.value(1, i), std::arg(h) * 180.0 / M_PI, 1e-10)
        << "VP at " << f;
  }
}

TEST(AcAnalysis, DifferentialAcProbeReadsThePhasorDifference) {
  // VDB(a,b) must scalarise V(a) - V(b) as one phasor, not subtract two
  // magnitudes.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 0.0);
  v1.set_ac(1.0);
  c.add_resistor("R1", in, out, 1.0e3);
  c.add_capacitor("C1", out, kGround, 1.0e-6);

  SimSession session(c, exact_options());
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.points = 3;
  spec.fstart = 50.0;
  spec.fstop = 500.0;
  const SweepResult r =
      session.run(ac_plan(spec, {"VM(in,out)", "VP(in,out)", "V(in,out)"}));
  const double rc = 1.0e-3;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const double f = r.axis_value(0, i);
    const Complex jwrc(0.0, 2.0 * M_PI * f * rc);
    const Complex h = jwrc / (1.0 + jwrc);  // voltage across the resistor
    EXPECT_NEAR(r.value(0, i), std::abs(h), 1e-10);
    EXPECT_NEAR(r.value(1, i), std::arg(h) * 180.0 / M_PI, 1e-10);
    // Bare V(a,b) in the AC domain is the differential phasor's
    // magnitude |V(a)-V(b)| -- NOT |V(a)| - |V(b)| (which here would be
    // 1 - |H_lowpass|, a different number at every mid-band point).
    EXPECT_NEAR(r.value(2, i), std::abs(h), 1e-10);
    EXPECT_GT(std::abs(r.value(2, i) -
                       (1.0 - std::abs(1.0 / (1.0 + jwrc)))),
              1e-3)
        << "differential probe degenerated to magnitude subtraction";
  }
}

TEST(AcAnalysis, OpAmpFollowerHasUnityGain) {
  // Op-amp small-signal stamp: a unity follower's gain is G/(1+G).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 0.5);
  v1.set_ac(1.0);
  c.add_opamp("U1", out, in, out, 1.0e6, 0.01);  // offset must not leak in

  SimSession session(c, exact_options());
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.points = 1;
  spec.fstart = 1.0e3;
  spec.fstop = 1.0e3;
  const SweepResult r = session.run(ac_plan(spec, {"VM(out)"}));
  EXPECT_NEAR(r.value(0, 0), 1.0e6 / (1.0 + 1.0e6), 1e-12);
}

// ------------------------------------- AC Jacobian == DC Jacobian at OP ---

TEST(AcAnalysis, LowFrequencySmallSignalGainEqualsDcDerivative) {
  // A nonlinear divider (resistor into a diode) has small-signal gain
  // dV(mid)/dV(in) at the OP. The AC system's G is the DC Jacobian
  // stamped once at the OP; the DC path reaches the same derivative only
  // through converged Newton solves -- agreement pins the two together.
  const char* deck_text =
      "V1 in 0 DC 0.8 AC 1\n"
      "R1 in mid 1k\n"
      "D1 mid 0 DMOD\n"
      ".MODEL DMOD D (IS=1e-14 N=1.0)\n";
  auto parsed = parse_netlist(deck_text);
  Circuit& c = *parsed.circuit;
  SimSession session(c);
  (void)session.solve_or_throw();

  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.points = 1;
  spec.fstart = 1.0e-3;  // no reactances anywhere: any frequency is "DC"
  spec.fstop = 1.0e-3;
  AnalysisPlan plan;
  plan.ac = spec;
  plan.probes.push_back(parse_probe("VM(mid)"));
  const double ac_gain = session.run(plan).value(0, 0);

  auto solve_mid = [&](double vin) {
    c.get<VoltageSource>("V1").set_value(vin);
    const Unknowns& x = session.solve_or_throw();
    return x.node_voltage(c.find_node("mid"));
  };
  const double h = 1.0e-7;
  const double numeric = (solve_mid(0.8 + h) - solve_mid(0.8 - h)) / (2.0 * h);
  EXPECT_NEAR(ac_gain, numeric, 1e-6 * std::abs(numeric) + 1e-12);
}

// --------------------------------------- dense reference vs the engine ---

/// A deck read from examples/decks.
std::string example_deck(const std::string& file) {
  std::ifstream in(std::filesystem::path(ICVBE_EXAMPLE_DECKS) / file);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The 200-node generated rc-ladder with an .AC card.
SyntheticNetlistSpec ladder_spec() {
  SyntheticNetlistSpec spec;
  spec.topology = SyntheticTopology::kRcLadder;
  spec.nodes = 200;
  spec.seed = 11;
  spec.ac_analysis = true;
  return spec;
}

TEST(AcAnalysis, DenseAndSparseAgreeOnDeckTable) {
  // Every device kind's small-signal model, checked at every frequency of
  // the deck's own .AC grid against the dense G + j*omega*C built about
  // the session's solved operating point: the node each deck probes
  // relative to its own phasor, every unknown relative to the largest.
  // (Nodes inside the Banba cells' 1e6-gain loop carry phasors 1e-6 of
  // the stimulus, where the loop's cancellation, not the engine, sets
  // the relative agreement.)
  const struct {
    const char* name;
    std::string text;
    std::string probe_node;
  } decks[] = {
      {"rc-ladder", generate_netlist(ladder_spec()),
       generated_probe_node(ladder_spec())},
      {"psrr_banba", example_deck("psrr_banba.cir"), "vref"},
      {"loopgain_banba", example_deck("loopgain_banba.cir"), "ret"},
      {"serve", testdeck::serve_deck(), "n200"},
  };
  for (const auto& deck : decks) {
    SCOPED_TRACE(deck.name);
    auto parsed = parse_netlist(deck.text);
    const AnalysisPlan* plan = parsed.find_plan(AnalysisKind::kAc);
    ASSERT_NE(plan, nullptr);
    parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
    SimSession session(*parsed.circuit);
    if (!parsed.nodesets.empty()) {
      session.seed_warm_start(parsed.nodeset_guess());
    }
    const Unknowns op = session.solve_or_throw();

    auto reference = parse_netlist(deck.text);
    reference.circuit->set_temperature(
        to_kelvin(reference.temperature_celsius));
    oracle::DenseOracle dense(*reference.circuit, NewtonOptions{});
    const auto probe = static_cast<std::size_t>(
        parsed.circuit->find_node(deck.probe_node) - 1);
    for (const double f : plan->ac->frequencies()) {
      const linalg::ComplexVector want = dense.solve_ac(op, 2.0 * M_PI * f);
      const linalg::ComplexVector& got = session.solve_ac(2.0 * M_PI * f);
      ASSERT_EQ(got.size(), want.size());
      const double v = std::max(std::abs(want[probe]), 1e-300);
      EXPECT_NEAR(want[probe].real(), got[probe].real(), 1e-10 * v)
          << deck.probe_node << " at " << f << " Hz";
      EXPECT_NEAR(want[probe].imag(), got[probe].imag(), 1e-10 * v)
          << deck.probe_node << " at " << f << " Hz";
      double norm = 1e-300;
      for (const linalg::Complex& w : want) norm = std::max(norm, std::abs(w));
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_LE(std::abs(want[k] - got[k]), 1e-10 * norm)
            << "unknown " << k << " at " << f << " Hz";
      }
    }
  }
}

TEST(AcAnalysis, ServeDeckLinearisesAboutItsRealOperatingPoint) {
  // The serve_mixed benchmark deck's .AC: the sweep linearises about the
  // cold operating point, V(n200) = 0.668 V on the PNP's knee. About the
  // point Newton once accepted on a limited iterate (V(n200) ~ 1 V, KCL
  // off by amps), |V(n200)| at 1 kHz read 2e-7.
  auto parsed = parse_netlist(testdeck::serve_deck());
  parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
  SimSession session(*parsed.circuit);
  const AnalysisPlan& plan = *parsed.find_plan(AnalysisKind::kAc);
  ASSERT_EQ(plan.probes.front().to_string(), "V(n200)");
  const SweepResult r = session.run(plan);
  ASSERT_DOUBLE_EQ(r.axis_value(0, 0), 1e3);
  EXPECT_NEAR(r.value(0, 0), 0.0690, 0.00005);
}

TEST(AcAnalysis, DcRunAfterAnAcRunMatchesOneAfterTheSameOpSolve) {
  // Building G stamps every device at the solved OP and resets nothing. A
  // solved OP's stamp is not limited, so it leaves each junction's
  // limiting state where the next warm solve's first iteration puts it: a
  // .DC run straight after the .AC run (no begin_variant between) prints
  // what a .DC run prints after the same OP solve alone, bit for bit.
  const auto dc_after = [](bool ac_run) {
    auto parsed = parse_netlist(testdeck::serve_deck());
    parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
    SimSession session(*parsed.circuit);
    if (ac_run) {
      (void)session.run(*parsed.find_plan(AnalysisKind::kAc));
    } else {
      (void)session.solve_or_throw();
    }
    return session.run(*parsed.find_plan(AnalysisKind::kDcSweep));
  };
  const SweepResult want = dc_after(false);
  const SweepResult got = dc_after(true);
  std::ostringstream want_csv;
  std::ostringstream got_csv;
  want.write_csv(want_csv);
  got.write_csv(got_csv);
  EXPECT_EQ(got_csv.str(), want_csv.str());
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t p = 0; p < want.probe_count(); ++p) {
    for (std::size_t i = 0; i < want.rows(); ++i) {
      EXPECT_EQ(got.value(p, i), want.value(p, i))
          << "probe " << p << " row " << i;
    }
  }
}

TEST(AcAnalysis, GeneratedLadderSweepRunsOneComplexAnalysis) {
  // The deck above: the whole .AC sweep factors every point along the one
  // complex analysis of its first point, and that factor stays under 3
  // entries per unknown (600 for 201 unknowns).
  SyntheticNetlistSpec spec;
  spec.topology = SyntheticTopology::kRcLadder;
  spec.nodes = 200;
  spec.seed = 11;
  spec.ac_analysis = true;
  auto parsed = parse_netlist(generate_netlist(spec));
  SimSession session(*parsed.circuit);
  const SweepResult r = session.run(parsed.plans.front());
  ASSERT_EQ(r.rows(), parsed.plans.front().ac->frequencies().size());
  ASSERT_EQ(session.unknown_count(), 201);
  EXPECT_EQ(session.complex_sparse_lu().analysis_count(), 1);
  EXPECT_EQ(session.complex_sparse_lu().factor_nonzeros(), 600u);
}

// ------------------------------- allocation and thread-count guarantees ---

TEST(AcAnalysis, SweepIsAllocationFreePerPointAfterSetup) {
  SyntheticNetlistSpec spec;
  spec.topology = SyntheticTopology::kRcLadder;
  spec.nodes = 80;
  spec.seed = 5;
  spec.ac_analysis = true;
  auto parsed = parse_netlist(generate_netlist(spec));
  SimSession session(*parsed.circuit);
  (void)session.solve_or_throw();

  // Setup: the first call materialises the complex engine (pattern
  // discovery + the symbolic analysis).
  (void)session.solve_ac(2.0 * M_PI * 10.0);

  const std::uint64_t before = testing::allocation_count();
  for (int k = 1; k <= 40; ++k) {
    (void)session.solve_ac(2.0 * M_PI * 10.0 * k);
  }
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u) << "allocated per AC point";
}

TEST(AcAnalysis, PlanIsBitIdenticalForAnyThreadCount) {
  SyntheticNetlistSpec spec;
  spec.topology = SyntheticTopology::kRcLadder;
  spec.nodes = 150;
  spec.seed = 23;
  spec.ac_analysis = true;

  // One fresh session per thread count: the claim is that the thread
  // count never changes the result, so every variant must start from the
  // same session state (a REUSED session re-solves its OP warm-started
  // from the previous run, which is continuation, not scheduling).
  std::vector<SweepResult> results;
  for (const unsigned threads : {1u, 2u, 5u}) {
    auto parsed = parse_netlist(generate_netlist(spec));
    ASSERT_FALSE(parsed.plans.empty());
    AnalysisPlan plan = parsed.plans.front();
    plan.threads = threads;
    SimSession session(*parsed.circuit);
    results.push_back(session.run(plan));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].rows(), results[0].rows());
    for (std::size_t p = 0; p < results[0].probe_count(); ++p) {
      for (std::size_t i = 0; i < results[0].rows(); ++i) {
        EXPECT_EQ(results[v].value(p, i), results[0].value(p, i))
            << "probe " << p << " row " << i << " variant " << v;
      }
    }
  }
}

TEST(AcAnalysis, SerialRunRepinsAtItsOwnFirstFrequency) {
  // A one-thread AC run executes on the session itself, whose complex
  // engine still holds the analysis an earlier run pinned at that run's
  // first frequency. The loop-gain deck's L/C loop break spans decades, so
  // pivots chosen at one end of the band differ from those chosen at the
  // other: grid A after grid B on one session must still equal grid A on a
  // fresh session, bit for bit.
  const auto load = [] {
    std::ifstream in(std::filesystem::path(ICVBE_EXAMPLE_DECKS) /
                     "loopgain_banba.cir");
    return parse_netlist(in);
  };
  const auto run = [](ParsedNetlist& deck, SimSession& session,
                      const AnalysisPlan& plan) {
    session.begin_variant();
    session.seed_warm_start(deck.nodeset_guess());
    return session.run(plan);
  };
  ParsedNetlist fresh_deck = load();
  ASSERT_EQ(fresh_deck.plans.size(), 1u);
  const AnalysisPlan grid_a = fresh_deck.plans.front();  // 1 Hz .. 100 MHz
  AnalysisPlan grid_b = grid_a;
  grid_b.ac->fstart = 1.0e7;
  SimSession fresh(*fresh_deck.circuit);
  const SweepResult want = run(fresh_deck, fresh, grid_a);

  ParsedNetlist deck = load();
  SimSession session(*deck.circuit);
  (void)run(deck, session, grid_b);
  const SweepResult got = run(deck, session, grid_a);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t p = 0; p < want.probe_count(); ++p) {
    for (std::size_t i = 0; i < want.rows(); ++i) {
      EXPECT_EQ(got.value(p, i), want.value(p, i))
          << "probe " << p << " row " << i;
    }
  }
}

// ---------------------------------------------- probes, cards, sources ---

TEST(AcProbes, ParseAndSerialiseRoundTrip) {
  for (const char* text : {"VM(out)", "VDB(out)", "VP(out)", "VR(out)",
                           "VI(out)", "VDB(a,b)", "(0-VDB(vref))"}) {
    const Probe p = parse_probe(text);
    EXPECT_EQ(parse_probe(p.to_string()).to_string(), p.to_string()) << text;
  }
  const Probe p = parse_probe("VDB(a,b)");
  ASSERT_EQ(p.kind(), Probe::Kind::kAcVoltage);
  EXPECT_EQ(p.ac_quantity(), Probe::AcQuantity::kDb);
  EXPECT_EQ(p.target(), "a");
  EXPECT_EQ(p.target2(), "b");
}

TEST(AcProbes, DomainMismatchesThrow) {
  Circuit c;
  const NodeId in = c.node("in");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 1.0);
  v1.set_ac(1.0);
  c.add_resistor("R1", in, kGround, 1.0e3);
  SimSession session(c);

  // AC probe in a DC sweep: rejected at compile time.
  AnalysisPlan dc_plan;
  dc_plan.axes.push_back(
      SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.0, 3)));
  dc_plan.probes.push_back(parse_probe("VDB(in)"));
  EXPECT_THROW((void)session.run(dc_plan), PlanError);

  // Current probe in an AC analysis: rejected at compile time.
  AnalysisPlan plan;
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.points = 1;
  spec.fstart = spec.fstop = 100.0;
  plan.ac = spec;
  plan.probes.push_back(parse_probe("I(V1)"));
  EXPECT_THROW((void)session.run(plan), PlanError);

  // Direct eval of an AC probe at a DC point: also rejected.
  EXPECT_THROW((void)parse_probe("VM(in)").eval(c, Unknowns(2)), PlanError);
}

TEST(AcDeck, AcCardAndSourceSpecParse) {
  const char* deck_text =
      "V1 in 0 DC 1 AC 2 45\n"
      "I1 0 in AC 1m\n"
      "R1 in 0 1k\n"
      ".AC OCT 3 10 80\n"
      ".PROBE VDB(in) VP(in)\n"
      ".END\n";
  auto parsed = parse_netlist(deck_text);
  ASSERT_FALSE(parsed.plans.empty());
  const AnalysisPlan& plan = parsed.plans.front();
  ASSERT_TRUE(plan.ac.has_value());
  EXPECT_EQ(plan.ac->spacing, AcSpec::Spacing::kOctave);
  EXPECT_EQ(plan.ac->points, 3);
  EXPECT_DOUBLE_EQ(plan.ac->fstart, 10.0);
  EXPECT_DOUBLE_EQ(plan.ac->fstop, 80.0);
  ASSERT_EQ(plan.probes.size(), 2u);

  const auto& v1 = parsed.circuit->get<VoltageSource>("V1");
  EXPECT_DOUBLE_EQ(v1.value(), 1.0);
  EXPECT_DOUBLE_EQ(v1.ac_magnitude(), 2.0);
  EXPECT_DOUBLE_EQ(v1.ac_phase_deg(), 45.0);
  // A stand-alone AC group biases to DC 0.
  const auto& i1 = parsed.circuit->get<CurrentSource>("I1");
  EXPECT_DOUBLE_EQ(i1.value(), 0.0);
  EXPECT_DOUBLE_EQ(i1.ac_magnitude(), 1.0e-3);
}

TEST(AcDeck, MixedAnalysesBuildOnePlanPerFamily) {
  // .AC + .DC in one deck used to be rejected; it now yields two plans in
  // the pinned canonical order (DC sweep first, AC last).
  auto parsed = parse_netlist("R1 a 0 1k\n.AC DEC 10 1 1k\n"
                              ".DC TEMP 0 100 25\n.PROBE V(a)\n");
  ASSERT_EQ(parsed.plans.size(), 2u);
  EXPECT_EQ(analysis_kind(parsed.plans[0]), AnalysisKind::kDcSweep);
  EXPECT_EQ(analysis_kind(parsed.plans[1]), AnalysisKind::kAc);
  ASSERT_FALSE(parsed.plans.empty());
  EXPECT_EQ(analysis_kind(parsed.plans.front()), AnalysisKind::kDcSweep);
}

TEST(AcDeck, BadFormsAreRejected) {
  EXPECT_THROW((void)parse_netlist("R1 a 0 1k\n.AC LOG 10 1 1k\n"
                                   ".PROBE V(a)\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("R1 a 0 1k\n.AC DEC 10 0 1k\n"
                                   ".PROBE V(a)\n"),
               NetlistError);
  EXPECT_THROW((void)parse_netlist("V1 a 0 1 AC\nR1 a 0 1k\n"),
               NetlistError);
}

TEST(AcDeck, MosfetCardBuildsTheLevelOneDevice) {
  const char* deck_text =
      "VDD vdd 0 1.2\n"
      "VG g 0 0.9\n"
      "M1 vdd g out NFET WL=10\n"
      "R1 out 0 10k\n"
      ".MODEL NFET NMOS (VTO=0.5 KP=100u LAMBDA=0.01)\n";
  auto parsed = parse_netlist(deck_text);
  const auto& m1 = parsed.circuit->get<Mosfet>("M1");
  EXPECT_EQ(m1.model().type, MosfetModel::Type::kNmos);
  EXPECT_DOUBLE_EQ(m1.model().vto, 0.5);
  EXPECT_DOUBLE_EQ(m1.w_over_l(), 10.0);
  // And the deck solves: a source follower biased into saturation.
  SimSession session(*parsed.circuit);
  const Unknowns& x = session.solve_or_throw();
  const double vout = x.node_voltage(parsed.circuit->find_node("out"));
  EXPECT_GT(vout, 0.0);
  EXPECT_LT(vout, 0.9);
}

// ------------------------------------------------- dc_value regression ---

TEST(DcValue, WaveformDcValueIsTheInitialValueNotValueAtZero) {
  // A PWL already moving at t = 0 (knots before zero) interpolates at
  // value_at(0) -- the old DC bias bug; dc_value() must read the initial
  // knot instead.
  const Waveform w = Waveform::pwl({{-1.0e-3, 2.0}, {1.0e-3, 0.0}});
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 1.0);  // mid-ramp
  EXPECT_DOUBLE_EQ(w.dc_value(), 2.0);     // quiescent level

  EXPECT_DOUBLE_EQ(Waveform::pulse(0.3, 5.0, 1.0e-6).dc_value(), 0.3);
  EXPECT_DOUBLE_EQ(Waveform::sin(2.5, 1.0, 1.0e3, 2.0e-3).dc_value(), 2.5);
  EXPECT_DOUBLE_EQ(Waveform::dc(-4.0).dc_value(), -4.0);
}

TEST(DcValue, ParserBiasesSourcesWithTheInitialValue) {
  const char* deck_text =
      "V1 in 0 PWL(-1m 2 1m 0)\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n";
  auto parsed = parse_netlist(deck_text);
  const auto& v1 = parsed.circuit->get<VoltageSource>("V1");
  EXPECT_DOUBLE_EQ(v1.value(), 2.0);  // not the 1.0 a value_at(0) gives
  SimSession session(*parsed.circuit);
  const Unknowns& x = session.solve_or_throw();
  EXPECT_NEAR(x.node_voltage(parsed.circuit->find_node("out")), 1.0, 1e-9);
}

}  // namespace
}  // namespace icvbe::spice
