#include "icvbe/bandgap/cmos_opamp.hpp"

#include <cmath>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {

spice::MosfetModel default_nmos() {
  spice::MosfetModel m;
  m.type = spice::MosfetModel::Type::kNmos;
  m.vto = 0.75;
  m.kp = 55e-6;
  m.lambda = 0.03;
  m.tnom = 298.15;
  return m;
}

spice::MosfetModel default_pmos() {
  spice::MosfetModel m;
  m.type = spice::MosfetModel::Type::kPmos;
  m.vto = 0.80;
  m.kp = 20e-6;
  m.lambda = 0.05;
  m.tnom = 298.15;
  return m;
}

std::string build_cmos_opamp(spice::Circuit& c, const std::string& prefix,
                             spice::NodeId out, spice::NodeId inp,
                             spice::NodeId inn, const CmosOpAmpParams& p) {
  ICVBE_REQUIRE(p.vdd > 1.0, "build_cmos_opamp: VDD too low");
  ICVBE_REQUIRE(p.bias_current > 0.0,
                "build_cmos_opamp: bias current must be > 0");

  const spice::NodeId vdd = c.node(prefix + ".vdd");
  const spice::NodeId tail = c.node(prefix + ".tail");
  const spice::NodeId d1 = c.node(prefix + ".d1");   // mirror input side
  const spice::NodeId d2 = c.node(prefix + ".d2");   // first-stage output
  const spice::NodeId bias = c.node(prefix + ".bias");

  const std::string supply = prefix + ".VDD";
  c.add_vsource(supply, vdd, spice::kGround, p.vdd);

  // Tail and second-stage load bias: a PMOS mirror programmed by a
  // resistor-set reference current.
  spice::MosfetModel pm = p.pmos;
  spice::MosfetModel nm = p.nmos;

  // Bias leg: M8 diode-connected PMOS + R sets ~bias_current.
  c.add_mosfet(prefix + ".M8", bias, bias, vdd, pm, 20.0);
  // Resistor sized for the requested current with ~1 V overdrive headroom.
  const double r_bias =
      std::max((p.vdd - pm.vto - 0.45) / p.bias_current, 1.0e3);
  c.add_resistor(prefix + ".RB", bias, spice::kGround, r_bias);

  // M5: tail source (mirrors the bias leg).
  c.add_mosfet(prefix + ".M5", tail, bias, vdd, pm, 20.0);

  // Input pair (PMOS). The mirror diode sits on M1's drain and the second
  // stage inverts, so M1's gate is the *inverting* input and M2's gate the
  // non-inverting one. A threshold skew on M1 models the input offset.
  spice::MosfetModel pm_skew = pm;
  pm_skew.vto += p.vth_mismatch;
  c.add_mosfet(prefix + ".M1", d1, inn, tail, pm_skew, p.wl_pair);
  c.add_mosfet(prefix + ".M2", d2, inp, tail, pm, p.wl_pair);

  // NMOS mirror load.
  c.add_mosfet(prefix + ".M3", d1, d1, spice::kGround, nm, p.wl_mirror);
  c.add_mosfet(prefix + ".M4", d2, d1, spice::kGround, nm, p.wl_mirror);

  // Second stage: NMOS common source driven by d2, PMOS mirror load.
  c.add_mosfet(prefix + ".M6", out, d2, spice::kGround, nm, p.wl_cs);
  c.add_mosfet(prefix + ".M7", out, bias, vdd, pm, 40.0);

  return supply;
}

double measure_open_loop_gain(const CmosOpAmpParams& params) {
  // Bias the amplifier as a unity follower to find its operating input
  // level, then break the loop with a VCVS-buffered copy... DC-only
  // shortcut: drive inn with a source, close out->inn through a unity
  // VCVS, and finite-difference the +input around that point.
  auto solve_out = [&](double v_inp, double v_inn) {
    spice::Circuit c;
    const spice::NodeId out = c.node("out");
    const spice::NodeId inp = c.node("inp");
    const spice::NodeId inn = c.node("inn");
    c.add_vsource("VP", inp, spice::kGround, v_inp);
    c.add_vsource("VN", inn, spice::kGround, v_inn);
    build_cmos_opamp(c, "oa", out, inp, inn, params);
    spice::NewtonOptions opt;
    opt.max_iterations = 400;
    return spice::SimSession(c, opt).solve_or_throw().node_voltage(out);
  };
  // Find the input level (common mode ~ vdd/2 region) where the output
  // crosses vdd/2, by bisection on the differential input.
  const double vcm = params.vdd * 0.5;
  double lo = -5e-3, hi = 5e-3;
  const double target = params.vdd * 0.5;
  double f_lo = solve_out(vcm + lo, vcm) - target;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double f_mid = solve_out(vcm + mid, vcm) - target;
    if ((f_mid > 0.0) == (f_lo > 0.0)) {
      lo = mid;
      f_lo = f_mid;
    } else {
      hi = mid;
    }
  }
  const double v0 = 0.5 * (lo + hi);
  const double h = 20e-6;
  const double up = solve_out(vcm + v0 + h, vcm);
  const double dn = solve_out(vcm + v0 - h, vcm);
  return (up - dn) / (2.0 * h);
}

}  // namespace icvbe::bandgap
