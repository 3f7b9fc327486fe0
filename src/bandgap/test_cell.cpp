#include "icvbe/bandgap/test_cell.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/physics/vbe_model.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {

namespace {
constexpr double kMinTrim = 1e-6;  // ohm; "zero" trim without a topology change
}

TestCellHandles build_test_cell(spice::Circuit& circuit,
                                const TestCellParams& params) {
  ICVBE_REQUIRE(params.area_ratio > 1.0,
                "build_test_cell: area ratio must exceed 1 (paper: p != 1)");
  ICVBE_REQUIRE(params.qa_model.type == spice::BjtModel::Type::kPnp &&
                    params.qb_model.type == spice::BjtModel::Type::kPnp,
                "build_test_cell: the paper's cell uses PNP devices");

  TestCellHandles h;
  h.vref = circuit.node("vref");
  h.a = circuit.node("a");
  h.btop = circuit.node("btop");
  h.be = circuit.node("be");
  h.qac = circuit.node("qac");
  h.qbc = circuit.node("qbc");
  const spice::NodeId qac = h.qac;
  const spice::NodeId qbc = h.qbc;

  circuit.add_resistor("RX1", h.vref, h.a, params.rx1, params.resistor_tc1,
                       params.resistor_tc2);
  circuit.add_resistor("RX2", h.vref, h.btop, params.rx2, params.resistor_tc1,
                       params.resistor_tc2);
  circuit.add_resistor("RB", h.btop, h.be, params.rb, params.resistor_tc1,
                       params.resistor_tc2);

  // Emitter-up PNPs with grounded collectors, bases returned to ground
  // through the trim legs. With the trims at zero this is the
  // diode-connected, VCB = 0 "limit of the saturation" bias; a k-ohm trim
  // carries only the base current, so it injects the millivolt-scale,
  // temperature-growing correction the paper dials in with RadjA (the full
  // branch current through a trim would swing VREF by hundreds of mV).
  circuit.add_bjt(h.qa, spice::kGround, qac, h.a, params.qa_model, 1.0,
                  spice::kGround);
  circuit.add_bjt(h.qb, spice::kGround, qbc, h.be, params.qb_model,
                  params.area_ratio, spice::kGround);
  circuit.add_resistor(h.radjb, qac, spice::kGround,
                       std::max(params.radjb, kMinTrim));
  circuit.add_resistor(h.radja, qbc, spice::kGround,
                       std::max(params.radja, kMinTrim));

  // Negative feedback: branch B has the larger small-signal divide ratio, so
  // btop drives the inverting input.
  circuit.add_opamp("U1", h.vref, h.a, h.btop, params.opamp_gain,
                    params.opamp_offset);
  return h;
}

spice::Unknowns cell_initial_guess(spice::Circuit& circuit,
                                   const TestCellHandles& handles,
                                   double t_die_kelvin) {
  // The cell -- like every real bandgap -- has a degenerate all-off DC
  // solution, and plain Newton can slide into its basin (where the matrix
  // finally goes singular). A real chip carries a startup circuit; the
  // simulation equivalent is a warm start built from the cell's own ideal
  // equations at this temperature, which lands within millivolts of the
  // operating point for any temperature in the military range.
  const int n = circuit.assign_unknowns();
  const auto& qa_dev = circuit.get<spice::Bjt>(handles.qa);
  const auto& qb_dev = circuit.get<spice::Bjt>(handles.qb);
  const auto& rb = circuit.get<spice::Resistor>("RB");
  const auto& rx1 = circuit.get<spice::Resistor>("RX1");
  const double vt = thermal_voltage(t_die_kelvin);
  const double ratio = qb_dev.area() / qa_dev.area();
  const double i_ptat = vt * std::log(ratio) / rb.resistance();
  const double vbe_a =
      vt * std::log(std::max(i_ptat / qa_dev.is_at_temperature(), 10.0));

  spice::Unknowns guess(static_cast<std::size_t>(n));
  auto set_node = [&](spice::NodeId node, double v) {
    if (node != spice::kGround) {
      guess.raw()[static_cast<std::size_t>(node - 1)] = v;
    }
  };
  set_node(handles.a, vbe_a);
  set_node(handles.btop, vbe_a);
  set_node(handles.be, vbe_a - vt * std::log(ratio));
  set_node(handles.vref, vbe_a + i_ptat * rx1.resistance());
  return guess;
}

CellObservation observe_cell(const spice::Circuit& circuit,
                             const TestCellHandles& handles,
                             const spice::Unknowns& x, double t_die_kelvin) {
  CellObservation obs;
  obs.t_die = t_die_kelvin;
  obs.vref = x.node_voltage(handles.vref);
  obs.vbe_qa = x.node_voltage(handles.a);
  obs.vbe_qb = x.node_voltage(handles.be);
  obs.delta_vbe = obs.vbe_qa - obs.vbe_qb;
  const auto& qa = circuit.get<spice::Bjt>(handles.qa);
  const auto& qb = circuit.get<spice::Bjt>(handles.qb);
  const spice::Bjt::TerminalCurrents ia = qa.currents(x);
  const spice::Bjt::TerminalCurrents ib = qb.currents(x);
  obs.ic_qa = std::abs(ia.ic);
  obs.ic_qb = std::abs(ib.ic);
  // Circuit::total_power's sum in its device order, reusing the two BJT
  // evaluations above.
  obs.power = 0.0;
  for (const auto& dev : circuit.devices()) {
    if (dev.get() == &qa) {
      obs.power += qa.power(x, ia);
    } else if (dev.get() == &qb) {
      obs.power += qb.power(x, ib);
    } else {
      obs.power += dev->power(x);
    }
  }
  return obs;
}

CellObservation solve_cell_at(spice::Circuit& circuit,
                              const TestCellHandles& handles,
                              double t_die_kelvin) {
  spice::SimSession session(circuit);
  return solve_cell_at(session, handles, t_die_kelvin);
}

CellObservation solve_cell_at(spice::SimSession& session,
                              const TestCellHandles& handles,
                              double t_die_kelvin) {
  spice::Circuit& circuit = session.circuit();
  circuit.set_temperature(t_die_kelvin);
  const spice::Unknowns& x = session.solve_warm_or(
      [&] { return cell_initial_guess(circuit, handles, t_die_kelvin); });
  return observe_cell(circuit, handles, x, t_die_kelvin);
}

double ideal_vref(const TestCellParams& params, double t_kelvin,
                  double vbe_t0, double t0, double eg, double xti) {
  physics::VbeModelParams p;
  p.eg = eg;
  p.xti = xti;
  p.t0 = t0;
  p.vbe_t0 = vbe_t0;
  const double vbe = physics::vbe_of_t(p, t_kelvin);
  const double dvbe =
      physics::delta_vbe_ptat(t_kelvin, params.area_ratio);
  return vbe + (params.rx2 / params.rb) * dvbe;
}

TrimResult trim_radja(spice::Circuit& circuit, const TestCellHandles& handles,
                      const std::vector<double>& t_kelvin, double radja_max,
                      int steps) {
  spice::SimSession session(circuit);
  return trim_radja(session, handles, t_kelvin, radja_max, steps);
}

TrimResult trim_radja(spice::SimSession& session,
                      const TestCellHandles& handles,
                      const std::vector<double>& t_kelvin, double radja_max,
                      int steps) {
  ICVBE_REQUIRE(steps >= 2, "trim_radja: need >= 2 steps");
  ICVBE_REQUIRE(!t_kelvin.empty(), "trim_radja: empty temperature grid");
  auto& radja = session.circuit().get<spice::Resistor>(handles.radja);

  TrimResult best;
  best.vref_spread = std::numeric_limits<double>::infinity();
  for (int s = 0; s < steps; ++s) {
    const double r = std::max(
        radja_max * static_cast<double>(s) / static_cast<double>(steps - 1),
        kMinTrim);
    radja.set_nominal_resistance(r);
    // Each setting starts from the analytic guess, as test_cell_sweep's
    // settling does: continuing from the previous setting's last point
    // can land on the collapsed (all-off) cell.
    session.invalidate_warm_start();
    double vmin = std::numeric_limits<double>::infinity();
    double vmax = -vmin;
    double sum = 0.0;
    for (double t : t_kelvin) {
      const CellObservation obs = solve_cell_at(session, handles, t);
      vmin = std::min(vmin, obs.vref);
      vmax = std::max(vmax, obs.vref);
      sum += obs.vref;
    }
    const double spread = vmax - vmin;
    if (spread < best.vref_spread) {
      best.vref_spread = spread;
      best.radja = r;
      best.vref_mean = sum / static_cast<double>(t_kelvin.size());
    }
  }
  radja.set_nominal_resistance(std::max(best.radja, kMinTrim));
  return best;
}

}  // namespace icvbe::bandgap
