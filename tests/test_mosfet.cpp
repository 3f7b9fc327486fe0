// Tests for the level-1 MOSFET and the transistor-level CMOS op-amp.

#include <gtest/gtest.h>

#include <cmath>

#include "icvbe/bandgap/cmos_opamp.hpp"
#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice {
namespace {

MosfetModel nmos() {
  MosfetModel m;
  m.vto = 0.7;
  m.kp = 50e-6;
  m.lambda = 0.0;
  return m;
}

TEST(MosfetTest, CutoffBelowThreshold) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add_vsource("VD", d, kGround, 2.0);
  c.add_vsource("VG", g, kGround, 0.3);  // below VTO = 0.7
  auto& m = c.add_mosfet("M1", d, g, kGround, nmos(), 10.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  EXPECT_NEAR(m.terminals(x).pin[0].amps, 0.0, 1e-12);
}

TEST(MosfetTest, SaturationSquareLaw) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add_vsource("VD", d, kGround, 3.0);
  c.add_vsource("VG", g, kGround, 1.2);  // VOV = 0.5, VDS = 3 > VOV
  auto& m = c.add_mosfet("M1", d, g, kGround, nmos(), 10.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  // ID = 0.5 * KP * W/L * VOV^2 = 0.5 * 50u * 10 * 0.25 = 62.5 uA.
  EXPECT_NEAR(m.terminals(x).pin[0].amps, 62.5e-6, 1e-9);
}

TEST(MosfetTest, TriodeRegion) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add_vsource("VD", d, kGround, 0.2);  // VDS = 0.2 < VOV = 0.5
  c.add_vsource("VG", g, kGround, 1.2);
  auto& m = c.add_mosfet("M1", d, g, kGround, nmos(), 10.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  // ID = KP W/L (VOV - VDS/2) VDS = 50u*10*(0.5-0.1)*0.2 = 40 uA.
  EXPECT_NEAR(m.terminals(x).pin[0].amps, 40e-6, 1e-9);
}

TEST(MosfetTest, ChannelLengthModulation) {
  MosfetModel m = nmos();
  m.lambda = 0.1;
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  auto& vd = c.add_vsource("VD", d, kGround, 2.0);
  c.add_vsource("VG", g, kGround, 1.2);
  auto& q = c.add_mosfet("M1", d, g, kGround, m, 10.0);
  const Unknowns x1 = SimSession(c).solve_or_throw();
  const double i1 = q.terminals(x1).pin[0].amps;
  vd.set_value(4.0);
  const Unknowns x2 = SimSession(c).solve_or_throw();
  const double i2 = q.terminals(x2).pin[0].amps;
  EXPECT_NEAR(i2 / i1, (1.0 + 0.1 * 4.0) / (1.0 + 0.1 * 2.0), 1e-9);
}

TEST(MosfetTest, PmosMirrorsNmosBehaviour) {
  MosfetModel pm;
  pm.type = MosfetModel::Type::kPmos;
  pm.vto = 0.7;
  pm.kp = 50e-6;
  pm.lambda = 0.0;
  Circuit c;
  const NodeId s = c.node("s");
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add_vsource("VS", s, kGround, 3.0);
  c.add_vsource("VG", g, kGround, 1.8);  // VSG = 1.2, VOV = 0.5
  c.add_vsource("VD", d, kGround, 0.0);  // VSD = 3
  auto& q = c.add_mosfet("M1", d, g, s, pm, 10.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  // PMOS: conventional current flows out of the drain: -62.5 uA into it.
  EXPECT_NEAR(q.terminals(x).pin[0].amps, -62.5e-6, 1e-9);
}

TEST(MosfetTest, ResistorLoadedInverterSolves) {
  // Nonlinear loop: NMOS with 100k drain resistor from 3 V.
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, kGround, 3.0);
  c.add_vsource("VG", g, kGround, 1.0);
  c.add_resistor("RL", vdd, d, 1e5);
  auto& q = c.add_mosfet("M1", d, g, kGround, nmos(), 4.0);
  const Unknowns x = SimSession(c).solve_or_throw();
  const double vd = x.node_voltage(d);
  // KCL: (3 - vd)/100k = id(vd).
  EXPECT_NEAR((3.0 - vd) / 1e5, q.terminals(x).pin[0].amps, 1e-10);
  EXPECT_GT(vd, 0.0);
  EXPECT_LT(vd, 3.0);
}

TEST(MosfetTest, ThresholdDropsWithTemperature) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add_vsource("VD", d, kGround, 3.0);
  c.add_vsource("VG", g, kGround, 0.72);  // barely on at 25 C
  auto& q = c.add_mosfet("M1", d, g, kGround, nmos(), 10.0);
  c.set_temperature(298.15);
  const Unknowns x_cold = SimSession(c).solve_or_throw();
  const double i_cold = q.terminals(x_cold).pin[0].amps;
  c.set_temperature(398.15);
  const Unknowns x_hot = SimSession(c).solve_or_throw();
  const double i_hot = q.terminals(x_hot).pin[0].amps;
  // VTH dropped 0.2 V: much more overdrive beats the mobility loss here.
  EXPECT_GT(i_hot, 5.0 * std::max(i_cold, 1e-12));
}

TEST(MosfetTest, RejectsBadParameters) {
  Circuit c;
  EXPECT_THROW(c.add_mosfet("M1", c.node("a"), c.node("b"), kGround,
                            MosfetModel{}, -1.0),
               Error);
}

}  // namespace
}  // namespace icvbe::spice

namespace icvbe::bandgap {
namespace {

TEST(CmosOpAmp, BiasLegConductsDesignCurrent) {
  spice::Circuit c;
  const auto out = c.node("out");
  const auto inp = c.node("inp");
  const auto inn = c.node("inn");
  c.add_vsource("VP", inp, spice::kGround, 1.25);
  c.add_vsource("VN", inn, spice::kGround, 1.25);
  CmosOpAmpParams p;
  p.nmos = default_nmos();
  p.pmos = default_pmos();
  build_cmos_opamp(c, "oa", out, inp, inn, p);
  const spice::Unknowns x = spice::SimSession(c).solve_or_throw();
  auto& rb = c.get<spice::Resistor>("oa.RB");
  const double i_bias = rb.terminals(x).pin[0].amps;
  EXPECT_GT(i_bias, 5e-6);
  EXPECT_LT(i_bias, 60e-6);
}

TEST(CmosOpAmp, OutputSwingsWithDifferentialInput) {
  auto out_for = [](double dv) {
    spice::Circuit c;
    const auto out = c.node("out");
    const auto inp = c.node("inp");
    const auto inn = c.node("inn");
    c.add_vsource("VP", inp, spice::kGround, 1.25 + dv);
    c.add_vsource("VN", inn, spice::kGround, 1.25);
    CmosOpAmpParams p;
    p.nmos = default_nmos();
    p.pmos = default_pmos();
    build_cmos_opamp(c, "oa", out, inp, inn, p);
    return spice::SimSession(c).solve_or_throw().node_voltage(out);
  };
  // PMOS-input pair into NMOS mirror, then inverting CS stage: raising the
  // + input must move the output in one consistent direction by rail-scale
  // amounts for mV-scale inputs.
  const double lo = out_for(-3e-3);
  const double hi = out_for(+3e-3);
  EXPECT_GT(std::abs(hi - lo), 0.5);
}

TEST(CmosOpAmp, OpenLoopGainIsTensOfDb) {
  CmosOpAmpParams p;
  p.nmos = default_nmos();
  p.pmos = default_pmos();
  const double gain = std::abs(measure_open_loop_gain(p));
  EXPECT_GT(gain, 300.0);     // >= ~50 dB
  EXPECT_LT(gain, 3.0e5);     // sane for two stages at this bias
}

TEST(CmosOpAmp, ClosesTheBandgapLoopAtEveryChamberTemperature) {
  // The paper's cell with the ideal amplifier replaced by the transistor
  // level one, solved from an analytic guess. At 75 C the pivots the
  // sparse LU freezes at the guess collapse (without failing its
  // singularity screen) as the amplifier settles; plain Newton must still
  // reach the bandgap point, not fall down the gmin ladder into the
  // degenerate ~0.1 V state.
  const lab::DieSample s = lab::SiliconLot{}.sample(0);
  const TestCellParams p;
  for (double tc : {-25.0, 25.0, 75.0}) {
    SCOPED_TRACE(tc);
    spice::Circuit c;
    const auto vref = c.node("vref");
    const auto a = c.node("a");
    const auto btop = c.node("btop");
    const auto be = c.node("be");
    c.add_resistor("RX1", vref, a, p.rx1, p.resistor_tc1, p.resistor_tc2);
    c.add_resistor("RX2", vref, btop, p.rx2, p.resistor_tc1, p.resistor_tc2);
    c.add_resistor("RB", btop, be, p.rb, p.resistor_tc1, p.resistor_tc2);
    c.add_bjt("QA", spice::kGround, spice::kGround, a, s.qa, 1.0);
    c.add_bjt("QB", spice::kGround, spice::kGround, be, s.qb, 8.0);
    CmosOpAmpParams op;
    op.nmos = default_nmos();
    op.pmos = default_pmos();
    op.vdd = 2.5;
    build_cmos_opamp(c, "oa", vref, a, btop, op);
    c.set_temperature(to_kelvin(tc));
    spice::Unknowns guess(static_cast<std::size_t>(c.assign_unknowns()));
    const auto set = [&](spice::NodeId node, double v) {
      guess.raw()[static_cast<std::size_t>(node - 1)] = v;
    };
    const double vbe = 0.65 - 1.9e-3 * (tc - 25.0);
    set(a, vbe);
    set(btop, vbe);
    set(be, vbe - 0.05);
    set(vref, 1.22);
    set(c.node("oa.vdd"), op.vdd);
    set(c.node("oa.bias"), 1.4);
    set(c.node("oa.tail"), 2.2);
    set(c.node("oa.d1"), 1.0);
    set(c.node("oa.d2"), 0.8);
    spice::NewtonOptions opt;
    opt.max_iterations = 500;
    const spice::DcResult r = spice::SimSession(c, opt).solve(&guess);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "newton");
    EXPECT_NEAR(r.solution.node_voltage(vref), 1.18, 0.05);
  }
}

TEST(CmosOpAmp, ThresholdMismatchCreatesOffset) {
  // With a VTH skew on M1 the follower settles with a systematic
  // input-referred offset of the same order as the skew.
  auto follower_error = [](double skew) {
    spice::Circuit c;
    const auto out = c.node("out");
    const auto inp = c.node("inp");
    c.add_vsource("VP", inp, spice::kGround, 1.25);
    CmosOpAmpParams p;
    p.nmos = default_nmos();
    p.pmos = default_pmos();
    p.vth_mismatch = skew;
    build_cmos_opamp(c, "oa", out, inp, out, p);  // unity follower
    spice::NewtonOptions opt;
    opt.max_iterations = 400;
    return spice::SimSession(c, opt).solve_or_throw().node_voltage(out) -
           1.25;
  };
  const double base = follower_error(0.0);
  const double skewed = follower_error(4e-3);
  EXPECT_GT(std::abs(skewed - base), 1e-3);
  EXPECT_LT(std::abs(skewed - base), 10e-3);
}

}  // namespace
}  // namespace icvbe::bandgap
