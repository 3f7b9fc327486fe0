#include "icvbe/lab/campaign.hpp"

#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/table.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/thermal/electrothermal.hpp"

namespace icvbe::lab {

Laboratory::Laboratory(DieSample sample, CampaignConfig config)
    : sample_(std::move(sample)),
      config_(std::move(config)),
      sensor_(Rng::child(config_.seed, 1), config_.sensor_spec),
      smu_vbe_(Rng::child(config_.seed, 2), config_.smu_spec),
      smu_pad_(Rng::child(config_.seed, 3), config_.smu_spec),
      smu_aux_(Rng::child(config_.seed, 4), config_.smu_spec) {}

double Laboratory::die_temperature(double chamber_kelvin,
                                   double power_watts) const {
  if (config_.ideal_thermal) return chamber_kelvin;
  return sample_.fixture.die_temperature(chamber_kelvin, power_watts);
}

Laboratory::CellRig& Laboratory::cell_rig(double radja_ohms) {
  constexpr double kMinTrim = 1e-6;  // matches the build_test_cell clamp
  if (!cell_) {
    cell_ = std::make_unique<CellRig>();
    cell_->handles = build_cell(cell_->circuit, radja_ohms);
    cell_->session.emplace(cell_->circuit, config_.newton);
  } else {
    cell_->circuit.get<spice::Resistor>(cell_->handles.radja)
        .set_nominal_resistance(std::max(radja_ohms, kMinTrim));
  }
  return *cell_;
}

Laboratory::DutRig& Laboratory::vbias_rig() {
  if (!vbias_) {
    vbias_ = std::make_unique<DutRig>();
    spice::Circuit& c = vbias_->circuit;
    vbias_->emitter = c.node("e");
    c.add_vsource("VE", vbias_->emitter, spice::kGround, 0.6);
    c.add_bjt("DUT", spice::kGround, spice::kGround, vbias_->emitter,
              sample_.qin, 1.0, spice::kGround);
    vbias_->session.emplace(c, config_.newton);
  }
  return *vbias_;
}

Laboratory::DutRig& Laboratory::ibias_rig() {
  if (!ibias_) {
    ibias_ = std::make_unique<DutRig>();
    spice::Circuit& c = ibias_->circuit;
    ibias_->emitter = c.node("e");
    c.add_isource("IE", spice::kGround, ibias_->emitter, 1e-6);
    c.add_bjt("DUT", spice::kGround, spice::kGround, ibias_->emitter,
              sample_.qin, 1.0, spice::kGround);
    ibias_->session.emplace(c, config_.newton);
  }
  return *ibias_;
}

std::vector<Series> Laboratory::icvbe_family(
    const std::vector<double>& chamber_celsius, double vbe_min,
    double vbe_max, int points) {
  ICVBE_REQUIRE(points >= 2, "icvbe_family: need >= 2 sweep points");
  std::vector<Series> out;
  out.reserve(chamber_celsius.size());

  // Common-base bias with VCB = 0: emitter driven, base and collector
  // grounded -- the same junction configuration as the diode-connected
  // cell devices. The rig (circuit + solver session) is built once per
  // laboratory session and re-biased point to point.
  DutRig& rig = vbias_rig();

  // Each chamber setting is one declarative 1-axis plan: sweep VE over the
  // *forced* voltages (the SMU applies its systematic source error to the
  // programmed setpoints; forcing draws no per-reading noise) and probe
  // the DUT collector current. The rig session carries warm-start
  // continuation across points and chambers exactly as before.
  const std::vector<double> setpoints =
      spice::SweepGrid::linear(vbe_min, vbe_max, points).points();
  spice::AnalysisPlan plan;
  plan.name = "icvbe_family";
  plan.probes = {spice::Probe::bjt_current(
      "DUT", spice::Probe::BjtTerminal::kCollector)};

  for (double tc : chamber_celsius) {
    // The DUT dissipates microwatts at the currents of interest, so the
    // die temperature is the fixture value at zero chip power (the rest of
    // the chip is unpowered during single-device characterisation).
    const double t_die = die_temperature(to_kelvin(tc), 0.0);
    rig.circuit.set_temperature(t_die);

    std::vector<double> forced = setpoints;
    if (!config_.ideal_instruments) {
      for (double& v : forced) v = smu_vbe_.force_voltage(v);
    }
    plan.axes = {spice::SweepAxis::vsource(
        "VE", spice::SweepGrid::list(std::move(forced)))};

    spice::SweepResult biased;
    try {
      biased = rig.session->run(plan);
    } catch (const NumericalError&) {
      throw MeasurementError("icvbe_family: bias point failed to solve");
    }

    Series family("IC(VBE) at " + format_fixed(tc, 1) + " C");
    family.reserve(static_cast<std::size_t>(points));
    for (std::size_t i = 0; i < setpoints.size(); ++i) {
      const double ic_true = std::abs(biased.value(0, i));
      const double ic_meas = config_.ideal_instruments
                                 ? ic_true
                                 : smu_aux_.measure_current(ic_true);
      // Record the *programmed* VBE on x (that is how a real analyser
      // reports a forced sweep) and the measured current on y.
      family.push_back(setpoints[i], std::max(ic_meas, 1e-16));
    }
    out.push_back(std::move(family));
  }
  return out;
}

std::vector<VbePoint> Laboratory::vbe_vs_temperature(
    double ic_amps, const std::vector<double>& chamber_celsius) {
  ICVBE_REQUIRE(ic_amps > 0.0, "vbe_vs_temperature: current must be > 0");
  std::vector<VbePoint> out;
  out.reserve(chamber_celsius.size());

  // Forced emitter current into the diode-connected DUT; VBE read at the
  // emitter (VCB = 0). One rig for the whole temperature list.
  DutRig& rig = ibias_rig();
  auto& ie = rig.circuit.get<spice::CurrentSource>("IE");
  const auto& dut = rig.circuit.get<spice::Bjt>("DUT");

  for (double tc : chamber_celsius) {
    const double t_die = die_temperature(to_kelvin(tc), 0.0);

    const double forced = config_.ideal_instruments
                              ? ic_amps
                              : smu_aux_.force_current(ic_amps);
    ie.set_current(forced);
    rig.circuit.set_temperature(t_die);
    const spice::Unknowns& x = rig.session->solve_or_throw();

    VbePoint p;
    p.t_die_true = t_die;
    p.t_sensor = config_.ideal_instruments ? to_kelvin(tc)
                                           : sensor_.read(to_kelvin(tc));
    const double vbe_true = x.node_voltage(rig.emitter);
    p.vbe = config_.ideal_instruments ? vbe_true
                                      : smu_vbe_.measure_voltage(vbe_true);
    const double ic_true = std::abs(dut.currents(x).ic);
    p.ic = config_.ideal_instruments ? ic_true
                                     : smu_aux_.measure_current(ic_true);
    out.push_back(p);
  }
  return out;
}

bandgap::TestCellHandles Laboratory::build_cell(spice::Circuit& circuit,
                                                double radja_ohms) const {
  bandgap::TestCellParams p = config_.cell;
  p.qa_model = sample_.qa;
  p.qb_model = sample_.qb;
  p.opamp_offset = sample_.opamp_offset;
  p.radja = radja_ohms;
  p.rx1 *= sample_.resistor_scale;
  p.rx2 *= sample_.resistor_scale;
  p.rb *= sample_.resistor_scale;
  return bandgap::build_test_cell(circuit, p);
}

std::vector<CellPoint> Laboratory::test_cell_sweep(
    const std::vector<double>& chamber_celsius, double radja_ohms) {
  std::vector<CellPoint> out;
  out.reserve(chamber_celsius.size());

  // One persistent cell rig: circuit assembled once, RADJA re-programmed,
  // every solve of the electro-thermal loop warm-started in the session.
  CellRig& rig = cell_rig(radja_ohms);

  for (double tc : chamber_celsius) {
    // Electro-thermal: the cell's own power plus the chip's auxiliary
    // circuitry heat the die above the fixture-leak-adjusted ambient.
    const double chamber_k = to_kelvin(tc);
    double t_die = die_temperature(chamber_k, 0.0);
    bandgap::CellObservation obs{};
    for (int pass = 0; pass < 8; ++pass) {
      obs = bandgap::solve_cell_at(*rig.session, rig.handles, t_die);
      const double t_new =
          config_.ideal_thermal
              ? chamber_k
              : die_temperature(chamber_k, obs.power);
      if (std::abs(t_new - t_die) < 1e-4) {
        t_die = t_new;
        break;
      }
      t_die = t_new;
    }
    obs = bandgap::solve_cell_at(*rig.session, rig.handles, t_die);

    CellPoint p;
    p.t_die_true = t_die;
    p.t_sensor = config_.ideal_instruments ? chamber_k
                                           : sensor_.read(chamber_k);
    if (config_.ideal_instruments) {
      p.vbe_qa = obs.vbe_qa;
      p.vbe_qb = obs.vbe_qb;
      p.vref = obs.vref;
      p.ic_qa = obs.ic_qa;
      p.ic_qb = obs.ic_qb;
    } else {
      p.vbe_qa = smu_vbe_.measure_voltage(obs.vbe_qa);
      p.vbe_qb = smu_pad_.measure_voltage(obs.vbe_qb);
      p.vref = smu_aux_.measure_voltage(obs.vref);
      p.ic_qa = smu_aux_.measure_current(obs.ic_qa);
      p.ic_qb = smu_aux_.measure_current(obs.ic_qb);
    }
    p.delta_vbe = p.vbe_qa - p.vbe_qb;
    out.push_back(p);
  }
  return out;
}

Series Laboratory::vref_curve(const std::vector<double>& chamber_celsius,
                              double radja_ohms) {
  if (chamber_celsius.empty()) {
    return Series("VREF(T), RadjA=" + format_fixed(radja_ohms / 1e3, 2) +
                  "k");
  }

  // One persistent cell rig; RADJA re-programmed between calls.
  CellRig& rig = cell_rig(radja_ohms);

  // Resolve the electro-thermal operating temperature of every chamber
  // point first -- the fixed point needs intermediate solves and the cell
  // power, so it cannot be a sweep axis...
  std::vector<double> die_temps;
  die_temps.reserve(chamber_celsius.size());
  for (double tc : chamber_celsius) {
    const double chamber_k = to_kelvin(tc);
    double t_die = die_temperature(chamber_k, 0.0);
    for (int pass = 0; pass < 8; ++pass) {
      const bandgap::CellObservation obs =
          bandgap::solve_cell_at(*rig.session, rig.handles, t_die);
      const double t_new = config_.ideal_thermal
                               ? chamber_k
                               : die_temperature(chamber_k, obs.power);
      if (std::abs(t_new - t_die) < 1e-4) {
        t_die = t_new;
        break;
      }
      t_die = t_new;
    }
    die_temps.push_back(t_die);
  }

  // ...the curve itself then is a declarative plan: sweep the resolved die
  // temperatures, probe V(vref). Seed the first point with the cell's
  // analytic startup guess at its own temperature (the last fixed-point
  // iterate may sit at the far end of the grid).
  spice::AnalysisPlan plan;
  plan.name = "vref_curve";
  plan.axes = {spice::SweepAxis::temperature_kelvin(
      spice::SweepGrid::list(die_temps))};
  plan.probes = {spice::Probe::node_voltage(
      rig.circuit.node_name(rig.handles.vref))};
  rig.circuit.set_temperature(die_temps.front());  // the guess reads
                                                   // temperature state
  rig.session->seed_warm_start(bandgap::cell_initial_guess(
      rig.circuit, rig.handles, die_temps.front()));

  std::vector<double> vrefs(chamber_celsius.size());
  try {
    const spice::SweepResult curve = rig.session->run(plan);
    for (std::size_t i = 0; i < vrefs.size(); ++i) {
      vrefs[i] = curve.value(0, i);
    }
  } catch (const NumericalError&) {
    // Sparse grids can put adjacent points hundreds of kelvin apart,
    // where one shared seed cannot rescue the continuation. Fall back to
    // the per-point path, which re-seeds every solve from the cell's
    // analytic startup guess at its own temperature.
    for (std::size_t i = 0; i < vrefs.size(); ++i) {
      vrefs[i] =
          bandgap::solve_cell_at(*rig.session, rig.handles, die_temps[i])
              .vref;
    }
  }

  Series s("VREF(T), RadjA=" + format_fixed(radja_ohms / 1e3, 2) + "k");
  s.reserve(chamber_celsius.size());
  for (std::size_t i = 0; i < chamber_celsius.size(); ++i) {
    const double vref = config_.ideal_instruments
                            ? vrefs[i]
                            : smu_aux_.measure_voltage(vrefs[i]);
    s.push_back(chamber_celsius[i], vref);
  }
  return s;
}

}  // namespace icvbe::lab
