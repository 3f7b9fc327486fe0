#include "icvbe/lab/campaign.hpp"

#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/table.hpp"
#include "icvbe/spice/plan.hpp"
#include "protocol.hpp"

namespace icvbe::lab {

namespace protocol {

Instruments::Instruments(std::uint64_t seed, const CampaignConfig& cfg)
    : ideal(cfg.ideal_instruments),
      sensor(Rng::child(seed, 1), cfg.sensor_spec),
      smu_vbe(Rng::child(seed, 2), cfg.smu_spec),
      smu_pad(Rng::child(seed, 3), cfg.smu_spec),
      smu_aux(Rng::child(seed, 4), cfg.smu_spec) {}

double Instruments::forced_current(double amps) {
  return ideal ? amps : smu_aux.force_current(amps);
}

VbePoint Instruments::record_vbe_point(double chamber_kelvin, double t_die,
                                       double vbe_true, double ic_true) {
  VbePoint p;
  p.t_die_true = t_die;
  p.t_sensor = ideal ? chamber_kelvin : sensor.read(chamber_kelvin);
  p.vbe = ideal ? vbe_true : smu_vbe.measure_voltage(vbe_true);
  p.ic = ideal ? ic_true : smu_aux.measure_current(ic_true);
  return p;
}

CellPoint Instruments::record_cell_point(double chamber_kelvin,
                                         const bandgap::CellObservation& obs,
                                         double t_die) {
  CellPoint p;
  p.t_die_true = t_die;
  p.t_sensor = ideal ? chamber_kelvin : sensor.read(chamber_kelvin);
  p.vbe_qa = ideal ? obs.vbe_qa : smu_vbe.measure_voltage(obs.vbe_qa);
  p.vbe_qb = ideal ? obs.vbe_qb : smu_pad.measure_voltage(obs.vbe_qb);
  p.vref = ideal ? obs.vref : smu_aux.measure_voltage(obs.vref);
  p.ic_qa = ideal ? obs.ic_qa : smu_aux.measure_current(obs.ic_qa);
  p.ic_qb = ideal ? obs.ic_qb : smu_aux.measure_current(obs.ic_qb);
  p.delta_vbe = p.vbe_qa - p.vbe_qb;
  return p;
}

bandgap::TestCellParams cell_params(const DieSample& sample,
                                    const CampaignConfig& cfg,
                                    double radja_ohms) {
  bandgap::TestCellParams p = cfg.cell;
  p.qa_model = sample.qa;
  p.qb_model = sample.qb;
  p.opamp_offset = sample.opamp_offset;
  p.radja = radja_ohms;
  p.rx1 *= sample.resistor_scale;
  p.rx2 *= sample.resistor_scale;
  p.rb *= sample.resistor_scale;
  return p;
}

spice::NodeId build_dut(spice::Circuit& c, const spice::BjtModel& qin,
                        bool current_driven) {
  const spice::NodeId e = c.node("e");
  if (current_driven) {
    c.add_isource("IE", spice::kGround, e, 1e-6);
  } else {
    c.add_vsource("VE", e, spice::kGround, 0.6);
  }
  c.add_bjt("DUT", spice::kGround, spice::kGround, e, qin, 1.0,
            spice::kGround);
  return e;
}

spice::Unknowns dut_initial_guess(spice::Circuit& c, spice::NodeId emitter) {
  const auto& dut = c.get<spice::Bjt>("DUT");
  const double ie = c.get<spice::CurrentSource>("IE").value();
  spice::Unknowns guess(static_cast<std::size_t>(c.assign_unknowns()));
  guess.raw()[static_cast<std::size_t>(emitter - 1)] =
      dut.model().nf * thermal_voltage(dut.temperature()) *
      std::log(std::abs(ie) / dut.is_at_temperature() + 1.0);
  return guess;
}

double die_temperature(const DieSample& sample, const CampaignConfig& cfg,
                       double chamber_kelvin, double power_watts) {
  if (cfg.ideal_thermal) return chamber_kelvin;
  return sample.fixture.die_temperature(chamber_kelvin, power_watts);
}

}  // namespace protocol

Laboratory::Laboratory(DieSample sample, CampaignConfig config)
    : sample_(std::move(sample)),
      config_(std::move(config)),
      inst_(std::make_unique<protocol::Instruments>(config_.seed, config_)) {}

Laboratory::~Laboratory() = default;

Laboratory::CellRig& Laboratory::cell_rig(double radja_ohms) {
  constexpr double kMinTrim = 1e-6;  // matches the build_test_cell clamp
  if (!cell_) {
    cell_ = std::make_unique<CellRig>();
    cell_->handles = bandgap::build_test_cell(
        cell_->circuit, protocol::cell_params(sample_, config_, radja_ohms));
    cell_->session.emplace(cell_->circuit);
  } else {
    cell_->circuit.get<spice::Resistor>(cell_->handles.radja)
        .set_nominal_resistance(std::max(radja_ohms, kMinTrim));
  }
  return *cell_;
}

Laboratory::DutRig& Laboratory::dut_rig(std::unique_ptr<DutRig>& rig,
                                        bool current_driven) {
  if (!rig) {
    rig = std::make_unique<DutRig>();
    rig->emitter =
        protocol::build_dut(rig->circuit, sample_.qin, current_driven);
    rig->session.emplace(rig->circuit);
  }
  return *rig;
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
  DutRig& rig = dut_rig(vbias_, /*current_driven=*/false);

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
    const double t_die =
        protocol::die_temperature(sample_, config_, to_kelvin(tc), 0.0);
    rig.circuit.set_temperature(t_die);

    std::vector<double> forced = setpoints;
    if (!config_.ideal_instruments) {
      for (double& v : forced) v = inst_->smu_vbe.force_voltage(v);
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
                                 : inst_->smu_aux.measure_current(ic_true);
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
  // emitter (VCB = 0). One rig for the whole temperature list; each point
  // starts from the ideal-diode guess at its own IE and temperature.
  DutRig& rig = dut_rig(ibias_, /*current_driven=*/true);
  auto& ie = rig.circuit.get<spice::CurrentSource>("IE");
  const auto& dut = rig.circuit.get<spice::Bjt>("DUT");

  for (double tc : chamber_celsius) {
    const double chamber_k = to_kelvin(tc);
    const double t_die =
        protocol::die_temperature(sample_, config_, chamber_k, 0.0);
    ie.set_value(inst_->forced_current(ic_amps));
    rig.circuit.set_temperature(t_die);
    rig.session->seed_warm_start(
        protocol::dut_initial_guess(rig.circuit, rig.emitter));
    const spice::Unknowns& x = rig.session->solve_or_throw();
    out.push_back(inst_->record_vbe_point(chamber_k, t_die,
                                          x.node_voltage(rig.emitter),
                                          std::abs(dut.currents(x).ic)));
  }
  return out;
}

double Laboratory::settle_die_temperature(CellRig& rig,
                                          double chamber_kelvin) {
  double t_die =
      protocol::die_temperature(sample_, config_, chamber_kelvin, 0.0);
  // Pass 0 starts from the cell's analytic guess at this setting (which
  // solve_cell_at seeds when there is no warm start); later passes
  // continue warm.
  rig.session->invalidate_warm_start();
  for (int pass = 0; pass < protocol::kThermalPasses; ++pass) {
    const bandgap::CellObservation obs =
        bandgap::solve_cell_at(*rig.session, rig.handles, t_die);
    const double t_new = protocol::die_temperature(sample_, config_,
                                                   chamber_kelvin, obs.power);
    const bool settled =
        std::abs(t_new - t_die) < protocol::kThermalTolKelvin;
    t_die = t_new;
    if (settled) break;
  }
  return t_die;
}

std::vector<CellPoint> Laboratory::test_cell_sweep(
    const std::vector<double>& chamber_celsius, double radja_ohms) {
  std::vector<CellPoint> out;
  out.reserve(chamber_celsius.size());

  // One persistent cell rig: circuit assembled once, RADJA re-programmed;
  // each setting's electro-thermal loop starts from the analytic guess and
  // continues warm in the session.
  CellRig& rig = cell_rig(radja_ohms);

  for (double tc : chamber_celsius) {
    // Electro-thermal: the cell's own power plus the chip's auxiliary
    // circuitry heat the die above the fixture-leak-adjusted ambient.
    const double chamber_k = to_kelvin(tc);
    const double t_die = settle_die_temperature(rig, chamber_k);
    out.push_back(inst_->record_cell_point(
        chamber_k, bandgap::solve_cell_at(*rig.session, rig.handles, t_die),
        t_die));
  }
  return out;
}

Series Laboratory::vref_curve(const std::vector<double>& chamber_celsius,
                              double radja_ohms) {
  Series s("VREF(T), RadjA=" + format_fixed(radja_ohms / 1e3, 2) + "k");
  s.reserve(chamber_celsius.size());

  // One persistent cell rig; RADJA re-programmed between calls. Each point
  // is test_cell_sweep's: settle the die, solve the cell there (warm from
  // the settling solves, which start from the analytic guess at this
  // setting), read VREF once.
  CellRig& rig = cell_rig(radja_ohms);
  for (double tc : chamber_celsius) {
    const double t_die = settle_die_temperature(rig, to_kelvin(tc));
    const double vref =
        bandgap::solve_cell_at(*rig.session, rig.handles, t_die).vref;
    s.push_back(tc, config_.ideal_instruments
                        ? vref
                        : inst_->smu_aux.measure_voltage(vref));
  }
  return s;
}

}  // namespace icvbe::lab
