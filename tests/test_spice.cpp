// Tests for icvbe/spice: MNA stamps, linear solves, diode/BJT Newton
// convergence, temperature behaviour, and the independent KCL check of
// returned operating points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/junction.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "kcl_check.hpp"
#include "serve_deck.hpp"

namespace icvbe::spice {
namespace {

TEST(Junction, SafeExpLinearisesAboveCap) {
  EXPECT_DOUBLE_EQ(safe_exp(1.0), std::exp(1.0));
  const double at_cap = safe_exp(200.0);
  EXPECT_DOUBLE_EQ(safe_exp(201.0), at_cap * 2.0);
  EXPECT_TRUE(std::isfinite(safe_exp(1e6)));
}

TEST(Junction, PnjlimLimitsLargeSteps) {
  const double vt = 0.026;
  const double vcrit = 0.7;
  // Small steps pass through unchanged.
  EXPECT_DOUBLE_EQ(pnjlim(0.65, 0.64, vt, vcrit), 0.65);
  // A jump from 0.6 to 5 V gets logarithmically limited.
  const double limited = pnjlim(5.0, 0.6, vt, vcrit);
  EXPECT_LT(limited, 1.0);
  EXPECT_GT(limited, 0.6);
}

TEST(CircuitTest, NodeNamesAndGroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_NE(c.node("b"), a);
  EXPECT_EQ(c.node_name(a), "a");
}

TEST(CircuitTest, DuplicateDeviceNameRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, 2e3), CircuitError);
}

TEST(CircuitTest, GetByNameTypeChecked) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_NO_THROW((void)c.get<Resistor>("R1"));
  EXPECT_THROW((void)c.get<VoltageSource>("R1"), CircuitError);
  EXPECT_THROW((void)c.get<Resistor>("nope"), CircuitError);
}

TEST(DcSolver, ResistorDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("V1", in, kGround, 10.0);
  c.add_resistor("R1", in, mid, 1e3);
  c.add_resistor("R2", mid, kGround, 3e3);
  const Unknowns x = SimSession(c).solve_or_throw();
  // gmin (1e-12 S to ground) leaks a few nA, so tolerances are ~1e-7.
  EXPECT_NEAR(x.node_voltage(mid), 7.5, 1e-7);
  // Source current: 10 V across 4k -> 2.5 mA drawn from the + terminal.
  EXPECT_NEAR(c.get<VoltageSource>("V1").terminals(x).pin[0].amps, -2.5e-3,
              1e-8);
}

TEST(DcSolver, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  // 1 mA from ground into n through the source, 2k to ground.
  c.add_isource("I1", kGround, n, 1e-3);
  c.add_resistor("R1", n, kGround, 2e3);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(n), 2.0, 1e-7);
}

TEST(DcSolver, VcvsAmplifies) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround, 0.1);
  c.add_vcvs("E1", out, kGround, in, kGround, 20.0);
  c.add_resistor("RL", out, kGround, 1e4);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(out), 2.0, 1e-9);
}

TEST(DcSolver, OpAmpFollowerWithOffset) {
  // Unity follower: out = in + offset (offset adds at the + input).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround, 1.0);
  c.add_opamp("U1", out, in, out, 1e7, 2e-3);
  c.add_resistor("RL", out, kGround, 1e5);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(x.node_voltage(out), 1.002, 1e-6);
}

TEST(DcSolver, ResistorTemperatureCoefficients) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("I1", kGround, n, 1e-3);
  auto& r = c.add_resistor("R1", n, kGround, 1e3, 2e-3, 0.0);
  c.set_temperature(to_kelvin(127.0));  // +100 K over tnom
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(r.resistance(), 1e3 * (1.0 + 2e-3 * 100.0), 1e-6);
  EXPECT_NEAR(x.node_voltage(n), 1.2, 1e-6);
}

TEST(DcSolver, NominalResistanceKeepsTheTemperatureScaling) {
  // A new R0 after set_temperature takes the same tempco factor, so
  // callers never re-apply the temperature after re-programming R0.
  const double tc1 = 2e-3;
  const double tc2 = 1.5e-5;
  const double tnom = 300.15;
  Resistor r("R1", 1, kGround, 1e3, tc1, tc2, tnom);
  const double t = to_kelvin(77.0);
  r.set_temperature(t);
  r.set_nominal_resistance(2.2e3);
  const double dt = t - tnom;
  EXPECT_EQ(r.resistance(), 2.2e3 * (1.0 + tc1 * dt + tc2 * dt * dt));
  EXPECT_EQ(r.nominal_resistance(), 2.2e3);
  // The carried factor is the one set_temperature computes afresh.
  Resistor fresh("R2", 1, kGround, 2.2e3, tc1, tc2, tnom);
  fresh.set_temperature(t);
  EXPECT_EQ(r.resistance(), fresh.resistance());
}

TEST(DcSolver, DiodeForwardDrop) {
  Circuit c;
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_isource("I1", kGround, a, 1e-3);
  c.add_diode("D1", a, kGround, dm);
  const Unknowns x = SimSession(c).solve_or_throw();
  // v = VT ln(I/IS): ~0.65 V at 1 mA for IS = 1e-14 at 300.15 K.
  const double expected =
      thermal_voltage(300.15) * std::log(1e-3 / 1e-14);
  EXPECT_NEAR(x.node_voltage(a), expected, 1e-6);
}

TEST(DcSolver, DiodeReverseLeakage) {
  Circuit c;
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_vsource("V1", a, kGround, -5.0);
  auto& d = c.add_diode("D1", a, kGround, dm);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(d.terminals(x).pin[0].amps, -1e-14, 1e-16);
}

TEST(DcSolver, DiodeSeriesResistorAnalytic) {
  // I source through diode: exact; with the voltage source and resistor the
  // solution must satisfy both device equations simultaneously.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_vsource("V1", in, kGround, 3.0);
  c.add_resistor("R1", in, a, 1e3);
  auto& d = c.add_diode("D1", a, kGround, dm);
  const Unknowns x = SimSession(c).solve_or_throw();
  const double id = d.terminals(x).pin[0].amps;
  const double va = x.node_voltage(a);
  EXPECT_NEAR((3.0 - va) / 1e3, id, 1e-9);
  EXPECT_NEAR(va, thermal_voltage(300.15) * std::log(id / 1e-14), 1e-6);
}

BjtModel npn_default() {
  BjtModel m;
  m.type = BjtModel::Type::kNpn;
  m.is = 1e-16;
  m.bf = 150.0;
  m.br = 2.0;
  return m;
}

BjtModel pnp_default() {
  BjtModel m = npn_default();
  m.type = BjtModel::Type::kPnp;
  m.bf = 60.0;
  return m;
}

TEST(BjtTest, ForwardActiveCollectorCurrent) {
  // NPN with VBE forced to 0.65 V, collector at 3 V: IC = IS e^{VBE/VT}.
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  c.add_vsource("VC", col, kGround, 3.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, npn_default());
  const Unknowns x = SimSession(c).solve_or_throw();
  const auto tc = q.currents(x);
  const double expected =
      1e-16 * (std::exp(0.65 / thermal_voltage(300.15)) - 1.0);
  EXPECT_NEAR(tc.ic / expected, 1.0, 1e-6);
  EXPECT_NEAR(tc.ib, tc.ic / 150.0, tc.ic / 150.0 * 1.01);
  EXPECT_NEAR(tc.ic + tc.ib + tc.ie + tc.isub, 0.0, 1e-12);
}

TEST(BjtTest, AreaScalesCollectorCurrent) {
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId c1 = c.node("c1");
  const NodeId c2 = c.node("c2");
  c.add_vsource("VB", b, kGround, 0.6);
  c.add_vsource("VC1", c1, kGround, 2.0);
  c.add_vsource("VC2", c2, kGround, 2.0);
  auto& qa = c.add_bjt("QA", c1, b, kGround, npn_default(), 1.0);
  auto& qb = c.add_bjt("QB", c2, b, kGround, npn_default(), 8.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(qb.currents(x).ic / qa.currents(x).ic, 8.0, 1e-6);
}

TEST(BjtTest, DeltaVbeOfMatchedPairIsPtat) {
  // Two diode-connected NPNs at the same forced current, area 1 vs 8:
  // dVBE = (kT/q) ln 8 -- the Fig. 2 principle, here from the full solver.
  for (double t_c : {-25.0, 25.0, 75.0}) {
    Circuit c;
    const NodeId a1 = c.node("a1");
    const NodeId a2 = c.node("a2");
    c.add_isource("I1", kGround, a1, 1e-5);
    c.add_isource("I2", kGround, a2, 1e-5);
    c.add_bjt("QA", a1, a1, kGround, npn_default(), 1.0);
    c.add_bjt("QB", a2, a2, kGround, npn_default(), 8.0);
    c.set_temperature(to_kelvin(t_c));
    const Unknowns x = SimSession(c).solve_or_throw();
    const double dvbe = x.node_voltage(a1) - x.node_voltage(a2);
    EXPECT_NEAR(dvbe, thermal_voltage(to_kelvin(t_c)) * std::log(8.0), 1e-7)
        << "at " << t_c << " C";
  }
}

TEST(BjtTest, PnpForwardActive) {
  // PNP: emitter at 1 V, base at 0.35 V (VEB = 0.65), collector grounded.
  Circuit c;
  const NodeId e = c.node("e");
  const NodeId b = c.node("b");
  c.add_vsource("VE", e, kGround, 1.0);
  c.add_vsource("VB", b, kGround, 0.35);
  auto& q = c.add_bjt("Q1", kGround, b, e, pnp_default());
  const Unknowns x = SimSession(c).solve_or_throw();
  const auto tc = q.currents(x);
  // PNP: conventional current flows out of the collector terminal.
  EXPECT_LT(tc.ic, 0.0);
  const double expected =
      -1e-16 * (std::exp(0.65 / thermal_voltage(300.15)) - 1.0);
  EXPECT_NEAR(tc.ic / expected, 1.0, 1e-5);
}

TEST(BjtTest, EarlyEffectIncreasesIc) {
  BjtModel m = npn_default();
  m.vaf = 50.0;
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.6);
  auto& vc = c.add_vsource("VC", col, kGround, 1.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, m);
  const Unknowns x1 = SimSession(c).solve_or_throw();
  const double ic1 = q.currents(x1).ic;
  vc.set_value(10.0);
  const Unknowns x2 = SimSession(c).solve_or_throw();
  const double ic2 = q.currents(x2).ic;
  // VBC goes from -0.4 to -9.4: (1 - vbc/VAF) ratio ~ (1+9.4/50)/(1+0.4/50).
  EXPECT_NEAR(ic2 / ic1, (1.0 + 9.4 / 50.0) / (1.0 + 0.4 / 50.0), 2e-3);
}

TEST(BjtTest, VbeDecreasesWithTemperatureAtConstantCurrent) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_isource("I1", kGround, a, 1e-5);
  c.add_bjt("Q1", a, a, kGround, npn_default());
  AnalysisPlan plan;
  plan.axes = {SweepAxis::temperature_celsius(
      SweepGrid::list({-50.0, 0.0, 50.0, 100.0}))};
  plan.probes = {Probe::node_voltage("a")};
  SimSession session(c);
  const Series series = session.run(plan).series();
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series.y(i), series.y(i - 1));
  }
  // Slope ~ -1.5 to -2.2 mV/K for these parameters.
  const double slope = (series.y(3) - series.y(0)) / (series.x(3) - series.x(0));
  EXPECT_GT(slope, -2.4e-3);
  EXPECT_LT(slope, -1.2e-3);
}

TEST(BjtTest, SubstrateParasiticStealsCurrentInSaturation) {
  BjtModel m = npn_default();
  m.iss = 1e-15;  // parasitic 10x the main IS
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  auto& vc = c.add_vsource("VC", col, kGround, 2.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, m);
  // Forward active: substrate current negligible.
  Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_LT(std::abs(q.currents(x).isub), 1e-12);
  // Saturation (VC = 0.05 -> VBC = +0.6): parasitic turns on.
  vc.set_value(0.05);
  x = SimSession(c).solve_or_throw();
  EXPECT_GT(std::abs(q.currents(x).isub), 1e-9);
}

TEST(BjtTest, PowerIsPositiveAndPlausible) {
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  c.add_vsource("VC", col, kGround, 3.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, npn_default());
  const Unknowns x = SimSession(c).solve_or_throw();
  const double ic = q.currents(x).ic;
  EXPECT_NEAR(q.power(x), 3.0 * ic + 0.65 * q.currents(x).ib, 0.05 * 3 * ic);
}

TEST(DcSolver, FailsGracefullyOnSingularCircuit) {
  // Two ideal voltage sources in parallel with conflicting values cannot be
  // satisfied; expect converged == false or a NumericalError, never a hang.
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_vsource("V2", a, kGround, 2.0);
  const DcResult r = SimSession(c).solve();
  EXPECT_FALSE(r.converged);
}

TEST(DcSolver, StrategyReportedOnEasyCircuit) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_resistor("R1", a, kGround, 1.0e3);
  const DcResult r = SimSession(c).solve();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.strategy, "newton");
}

// ------------------------------------------------------------ KCL check ---

/// The DC operating point of a parsed deck, solved as `icvbe simulate`
/// does: at the deck temperature, from its .NODESET guess (a cold start
/// without one). A non-null `point` receives it.
::testing::AssertionResult operating_point_passes_kcl(
    ParsedNetlist& parsed, Unknowns* point = nullptr) {
  Circuit& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const Unknowns guess = parsed.nodeset_guess();
  const Unknowns x = SimSession(c).solve_or_throw(&guess);
  if (point != nullptr) *point = x;
  const kcl::KclResult r = kcl::check_kcl(c, x);
  if (r.ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "KCL fails at node " << c.node_name(r.worst_node) << ": |sum I| = "
         << r.residual << " A > " << r.bound << " A";
}

TEST(KclCheck, EveryExampleDeckOperatingPointPasses) {
  std::vector<std::filesystem::path> decks;
  for (const auto& entry :
       std::filesystem::directory_iterator(ICVBE_EXAMPLE_DECKS)) {
    if (entry.path().extension() == ".cir") decks.push_back(entry.path());
  }
  std::sort(decks.begin(), decks.end());
  ASSERT_GE(decks.size(), 8u);
  for (const auto& deck : decks) {
    std::ifstream in(deck);
    ParsedNetlist parsed = parse_netlist(in);
    EXPECT_TRUE(operating_point_passes_kcl(parsed)) << deck.filename();
  }
}

TEST(KclCheck, GeneratedDeckOperatingPointsPass) {
  for (SyntheticTopology topology :
       {SyntheticTopology::kResistorLadder, SyntheticTopology::kDiodeLadder,
        SyntheticTopology::kBjtLadder, SyntheticTopology::kMesh}) {
    for (int nodes : {20, 100}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SyntheticNetlistSpec spec;
        spec.topology = topology;
        spec.nodes = nodes;
        spec.seed = seed;
        ParsedNetlist parsed = parse_netlist(generate_netlist(spec));
        EXPECT_TRUE(operating_point_passes_kcl(parsed))
            << topology_name(topology) << " " << nodes << " nodes, seed "
            << seed;
      }
    }
  }
}

TEST(KclCheck, NonconPointOfTheSaturatedNpnFails) {
  // The point a cold solve of this deck returned while Newton could
  // converge on a limited iterate, as `icvbe simulate` printed it: V(b)
  // sits 1.86 V above ground, so the base junction would carry ~1e13 A
  // that no other device at node b returns.
  ParsedNetlist parsed = parse_netlist(
      "V1 vcc 0 2\n"
      "Q1 c b 0 NPN1\n"
      "R1 vcc c 10k\n"
      "R2 c b 87.3k\n"
      "R3 b 0 1.27MEG\n"
      ".MODEL NPN1 NPN (IS=1e-16 BF=100)\n");
  Circuit& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  Unknowns x(static_cast<std::size_t>(c.assign_unknowns()));
  x.raw()[static_cast<std::size_t>(c.find_node("vcc") - 1)] = 2.0;
  x.raw()[static_cast<std::size_t>(c.find_node("c") - 1)] = 1.98537;
  x.raw()[static_cast<std::size_t>(c.find_node("b") - 1)] = 1.85768;
  x.raw()[static_cast<std::size_t>(c.get<VoltageSource>("V1").first_aux())] =
      -1.4627e-6;

  const kcl::KclResult r = kcl::check_kcl(c, x);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.worst_node, c.find_node("b"));
  EXPECT_GT(r.residual, 1e12);
}

TEST(KclCheck, SaturatedNpnSolvesColdToACertifiedPoint) {
  // The deck of NonconPointOfTheSaturatedNpnFails: no iteration whose
  // stamps limited a junction counts as converged, so Newton walks on to
  // the real operating point.
  ParsedNetlist parsed = parse_netlist(
      "V1 vcc 0 2\n"
      "Q1 c b 0 NPN1\n"
      "R1 vcc c 10k\n"
      "R2 c b 87.3k\n"
      "R3 b 0 1.27MEG\n"
      ".MODEL NPN1 NPN (IS=1e-16 BF=100)\n");
  Unknowns x;
  EXPECT_TRUE(operating_point_passes_kcl(parsed, &x));
  EXPECT_NEAR(x.node_voltage(parsed.circuit->find_node("b")), 0.717573,
              1e-6);
}

TEST(KclCheck, DiodeConnectedNpnSolvesColdToACertifiedPoint) {
  // The paper's own structure: VBE read off a diode-connected NPN fed
  // through a resistor.
  ParsedNetlist parsed = parse_netlist(
      "V1 vcc 0 2\n"
      "R1 vcc b 10k\n"
      "Q1 b b 0 NPN1\n"
      ".MODEL NPN1 NPN (IS=1e-16 BF=100)\n");
  Unknowns x;
  EXPECT_TRUE(operating_point_passes_kcl(parsed, &x));
  Circuit& c = *parsed.circuit;
  EXPECT_NEAR(x.node_voltage(c.find_node("b")), 0.720786, 1e-6);
  EXPECT_NEAR(c.get<VoltageSource>("V1").terminals(x).pin[0].amps,
              -127.92e-6, 0.01e-6);
}

TEST(KclCheck, ServeDeckColdOperatingPointIsCertified) {
  // The serve_mixed benchmark deck: its TRAN and AC runs start here.
  ParsedNetlist parsed = parse_netlist(testdeck::serve_deck());
  Unknowns x;
  EXPECT_TRUE(operating_point_passes_kcl(parsed, &x));
  EXPECT_NEAR(x.node_voltage(parsed.circuit->find_node("n200")), 0.667734,
              1e-6);
}

}  // namespace
}  // namespace icvbe::spice
