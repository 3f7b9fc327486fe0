#include "icvbe/bandgap/banba_cell.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/physics/vbe_model.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {

spice::MosfetModel banba_default_pmos() {
  spice::MosfetModel m;
  m.type = spice::MosfetModel::Type::kPmos;
  m.vto = 0.45;   // low-VT flavour for ~1 V supplies
  m.kp = 25e-6;
  m.lambda = 0.04;
  m.tnom = 298.15;
  return m;
}

BanbaHandles build_banba_cell(spice::Circuit& c, const BanbaCellParams& p,
                              const std::string& prefix) {
  ICVBE_REQUIRE(p.vdd > 0.8, "build_banba_cell: VDD too low even for Banba");
  ICVBE_REQUIRE(p.area_ratio > 1.0,
                "build_banba_cell: area ratio must exceed 1");
  ICVBE_REQUIRE(p.qa_model.type == spice::BjtModel::Type::kPnp &&
                    p.qb_model.type == spice::BjtModel::Type::kPnp,
                "build_banba_cell: PNP devices required");

  BanbaHandles h;
  h.vdd = c.node(prefix + ".vdd");
  h.n1 = c.node(prefix + ".n1");
  h.n2 = c.node(prefix + ".n2");
  h.vref = c.node(prefix + ".vref");
  h.gate = c.node(prefix + ".gate");
  const spice::NodeId n2e = c.node(prefix + ".n2e");

  c.add_vsource(prefix + ".VDD", h.vdd, spice::kGround, p.vdd);

  // Matched PMOS mirror.
  c.add_mosfet(prefix + ".M1", h.n1, h.gate, h.vdd, p.pmos, p.mirror_wl);
  c.add_mosfet(prefix + ".M2", h.n2, h.gate, h.vdd, p.pmos, p.mirror_wl);
  c.add_mosfet(prefix + ".M3", h.vref, h.gate, h.vdd, p.pmos, p.mirror_wl);

  // Branch 1: R1 || Q1.
  c.add_resistor(prefix + ".R1A", h.n1, spice::kGround, p.r1,
                 p.resistor_tc1, p.resistor_tc2);
  c.add_bjt(prefix + ".Q1", spice::kGround, spice::kGround, h.n1, p.qa_model,
            1.0, spice::kGround);

  // Branch 2: R1 || (R0 + Q2).
  c.add_resistor(prefix + ".R1B", h.n2, spice::kGround, p.r1,
                 p.resistor_tc1, p.resistor_tc2);
  c.add_resistor(prefix + ".R0", h.n2, n2e, p.r0, p.resistor_tc1,
                 p.resistor_tc2);
  c.add_bjt(prefix + ".Q2", spice::kGround, spice::kGround, n2e, p.qb_model,
            p.area_ratio, spice::kGround);

  // Output branch.
  c.add_resistor(prefix + ".R2", h.vref, spice::kGround, p.r2,
                 p.resistor_tc1, p.resistor_tc2);

  // Feedback: branch 2 is the stiffer load, so its head drives the
  // non-inverting input (raising V(n2) must raise the gate and throttle
  // the mirror).
  c.add_opamp(prefix + ".U1", h.gate, h.n2, h.n1, p.opamp_gain,
              p.opamp_offset);
  return h;
}

spice::Unknowns banba_initial_guess(spice::Circuit& c, const BanbaHandles& h,
                                    const BanbaCellParams& p,
                                    double t_die_kelvin) {
  // Analytic warm start (same philosophy as the classic cell): estimate
  // VBE from Q1's IS(T) at the expected branch current, then place every
  // node of the live solution.
  auto& q1 = c.get<spice::Bjt>("bgb.Q1");
  const double vt = thermal_voltage(t_die_kelvin);
  const double dvbe = vt * std::log(p.area_ratio);
  double vbe_est = 0.62;
  for (int pass = 0; pass < 4; ++pass) {
    const double i_est = vbe_est / p.r1 + dvbe / p.r0;
    const double junction =
        std::max(i_est - vbe_est / p.r1, 1e-9);  // current into Q1
    vbe_est = vt * std::log(std::max(
                       junction / q1.is_at_temperature(), 10.0));
  }
  const double i_est = vbe_est / p.r1 + dvbe / p.r0;

  const int n = c.assign_unknowns();
  spice::Unknowns guess(static_cast<std::size_t>(n));
  auto set = [&](spice::NodeId node, double v) {
    if (node != spice::kGround) guess.raw()[node - 1] = v;
  };
  set(h.vdd, p.vdd);
  set(h.n1, vbe_est);
  set(h.n2, vbe_est);
  set(c.node("bgb.n2e"), vbe_est - dvbe);
  set(h.vref, std::min(p.r2 * i_est, p.vdd - 0.05));
  // Gate: source-gate drop for the mirror at the estimated current.
  const double vov =
      std::sqrt(std::max(2.0 * i_est / (25e-6 * 120.0), 1e-4));
  set(h.gate, p.vdd - 0.45 - vov);
  return guess;
}

namespace {

BanbaObservation observe_banba(const spice::Circuit& c, const BanbaHandles& h,
                               const spice::Unknowns& x,
                               double t_die_kelvin) {
  BanbaObservation obs;
  obs.t_die = t_die_kelvin;
  obs.vref = x.node_voltage(h.vref);
  obs.v_branch = x.node_voltage(h.n1);
  obs.i_mirror = obs.vref / c.get<spice::Resistor>("bgb.R2").resistance();
  return obs;
}

}  // namespace

BanbaObservation solve_banba_at(spice::Circuit& c, const BanbaHandles& h,
                                const BanbaCellParams& p,
                                double t_die_kelvin) {
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  return solve_banba_at(session, h, p, t_die_kelvin);
}

BanbaObservation solve_banba_at(spice::SimSession& session,
                                const BanbaHandles& h,
                                const BanbaCellParams& p,
                                double t_die_kelvin) {
  spice::Circuit& c = session.circuit();
  c.set_temperature(t_die_kelvin);
  const spice::Unknowns& x = session.solve_warm_or(
      [&] { return banba_initial_guess(c, h, p, t_die_kelvin); });
  return observe_banba(c, h, x, t_die_kelvin);
}

double banba_ideal_vref(const BanbaCellParams& p, double vbe,
                        double t_kelvin) {
  const double dvbe = physics::delta_vbe_ptat(t_kelvin, p.area_ratio);
  return (p.r2 / p.r1) * (vbe + (p.r1 / p.r0) * dvbe);
}

}  // namespace icvbe::bandgap
