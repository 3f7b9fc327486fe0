// Tests for icvbe/bandgap: the programmable test cell.

#include <gtest/gtest.h>

#include <cmath>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/physics/vbe_model.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {
namespace {

/// Clean PNP (no parasitics) for ideal-behaviour checks.
spice::BjtModel clean_pnp() {
  spice::BjtModel m = lab::ProcessTruth::nominal().pnp;
  m.iss = 0.0;
  m.iss_e = 0.0;
  return m;
}

TestCellParams clean_params() {
  TestCellParams p;
  p.qa_model = clean_pnp();
  p.qb_model = clean_pnp();
  return p;
}

TEST(TestCell, RequiresPnpDevices) {
  TestCellParams p = clean_params();
  p.qa_model.type = spice::BjtModel::Type::kNpn;
  spice::Circuit c;
  EXPECT_THROW((void)build_test_cell(c, p), Error);
}

TEST(TestCell, RequiresAreaRatioAboveUnity) {
  TestCellParams p = clean_params();
  p.area_ratio = 1.0;  // paper: "that area ratio is more than unity"
  spice::Circuit c;
  EXPECT_THROW((void)build_test_cell(c, p), Error);
}

TEST(TestCell, ProducesBandgapVoltage) {
  TestCellParams p = clean_params();
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  const CellObservation obs = solve_cell_at(c, h, 298.15);
  EXPECT_GT(obs.vref, 1.15);
  EXPECT_LT(obs.vref, 1.30);
}

TEST(TestCell, DeltaVbeIsPtatWithCleanDevices) {
  TestCellParams p = clean_params();
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  for (double t : {248.15, 298.15, 348.15}) {
    const CellObservation obs = solve_cell_at(c, h, t);
    const double expected = physics::delta_vbe_ptat(t, p.area_ratio);
    // Within ~0.5 mV: base currents and Early effect perturb slightly.
    EXPECT_NEAR(obs.delta_vbe, expected, 6e-4) << "T=" << t;
  }
}

TEST(TestCell, ObservationMatchesCircuitProbesBitwise) {
  // observe_cell evaluates each BJT once and reuses the currents for the
  // power sum; every field must equal the direct probes bit for bit.
  // Nominal lot devices, so the substrate parasitics contribute too.
  TestCellParams p;
  p.qa_model = lab::ProcessTruth::nominal().pnp;
  p.qb_model = p.qa_model;
  p.radja = 3e3;
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  spice::SimSession session(c);
  for (double t : {248.15, 348.15}) {
    c.set_temperature(t);
    const spice::Unknowns guess = cell_initial_guess(c, h, t);
    const spice::Unknowns x = session.solve(&guess).solution;
    const CellObservation obs = observe_cell(c, h, x, t);
    EXPECT_EQ(obs.t_die, t);
    EXPECT_EQ(obs.power, c.total_power(x)) << "T=" << t;
    EXPECT_GT(obs.power, 0.0);
    EXPECT_EQ(obs.ic_qa, std::abs(c.get<spice::Bjt>(h.qa).currents(x).ic));
    EXPECT_EQ(obs.ic_qb, std::abs(c.get<spice::Bjt>(h.qb).currents(x).ic));
    EXPECT_EQ(obs.vref, x.node_voltage(h.vref));
    EXPECT_EQ(obs.delta_vbe, x.node_voltage(h.a) - x.node_voltage(h.be));
  }
}

TEST(TestCell, EqualBranchCurrents) {
  // "Fixing the same potential through RX1 and RX2 imposes the equality
  // between the collector current of QA and QB."
  TestCellParams p = clean_params();
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  const CellObservation obs = solve_cell_at(c, h, 298.15);
  EXPECT_NEAR(obs.ic_qa / obs.ic_qb, 1.0, 2e-2);
}

TEST(TestCell, MatchesIdealFirstOrderModel) {
  TestCellParams p = clean_params();
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  const CellObservation at_t0 = solve_cell_at(c, h, 298.15);
  // Use the solved VBE(T0) to anchor the ideal model, then compare at a
  // different temperature.
  const double predicted =
      ideal_vref(p, 323.15, at_t0.vbe_qa, 298.15, p.qa_model.eg,
                 p.qa_model.xti);
  const CellObservation at_t1 = solve_cell_at(c, h, 323.15);
  EXPECT_NEAR(at_t1.vref, predicted, 5e-3);
}

TEST(TestCell, OpAmpOffsetShiftsVref) {
  TestCellParams p = clean_params();
  spice::Circuit c1, c2;
  auto h1 = build_test_cell(c1, p);
  p.opamp_offset = 3e-3;
  auto h2 = build_test_cell(c2, p);
  const double v1 = solve_cell_at(c1, h1, 298.15).vref;
  const double v2 = solve_cell_at(c2, h2, 298.15).vref;
  // The offset is amplified by roughly RX2/RB onto VREF.
  EXPECT_GT(std::abs(v2 - v1), 10e-3);
  EXPECT_LT(std::abs(v2 - v1), 60e-3);
}

TEST(TestCell, SubstrateParasiticInflatesDeltaVbeAtHot) {
  // QB's 8x emitter-junction parasitic steals an area-dependent fraction;
  // at high temperature dVBE grows beyond PTAT -- the section-6 nonlinear
  // component.
  TestCellParams clean = clean_params();
  TestCellParams dirty = clean_params();
  dirty.qa_model = lab::ProcessTruth::nominal().pnp;
  dirty.qb_model = dirty.qa_model;
  spice::Circuit cc, cd;
  auto hc = build_test_cell(cc, clean);
  auto hd = build_test_cell(cd, dirty);
  const double t_hot = 418.15;
  const double extra_hot = solve_cell_at(cd, hd, t_hot).delta_vbe -
                           solve_cell_at(cc, hc, t_hot).delta_vbe;
  const double t_cold = 258.15;
  const double extra_cold = solve_cell_at(cd, hd, t_cold).delta_vbe -
                            solve_cell_at(cc, hc, t_cold).delta_vbe;
  EXPECT_GT(extra_hot, 5e-4);           // > 0.5 mV inflation at 145 C
  EXPECT_LT(std::abs(extra_cold), 1e-4);  // negligible at -15 C
}

TEST(TestCell, RadjaTrimLowersHotEnd) {
  TestCellParams p = clean_params();
  p.qa_model = lab::ProcessTruth::nominal().pnp;
  p.qb_model = p.qa_model;
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  auto& radja = c.get<spice::Resistor>(h.radja);

  const double hot = 418.15;
  radja.set_nominal_resistance(1e-6);
  const double v0 = solve_cell_at(c, h, hot).vref;
  radja.set_nominal_resistance(2.7e3);
  const double v27 = solve_cell_at(c, h, hot).vref;
  // The paper's S1 -> S4 sequence moves VREF down by several mV at the hot
  // end as RadjA increases.
  EXPECT_LT(v27, v0 - 2e-3);
  EXPECT_GT(v27, v0 - 40e-3);
}

TEST(TestCell, TrimSearchReducesSpread) {
  TestCellParams p = clean_params();
  p.qa_model = lab::ProcessTruth::nominal().pnp;
  p.qb_model = p.qa_model;
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  std::vector<double> grid;
  for (double t = 233.15; t <= 418.15; t += 20.0) grid.push_back(t);

  // Untrimmed spread.
  auto& radja = c.get<spice::Resistor>(h.radja);
  radja.set_nominal_resistance(1e-6);
  double vmin = 1e9, vmax = -1e9;
  for (double t : grid) {
    const double v = solve_cell_at(c, h, t).vref;
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  const double untrimmed = vmax - vmin;

  const TrimResult best = trim_radja(c, h, grid, 3e3, 13);
  EXPECT_LE(best.vref_spread, untrimmed + 1e-12);
  EXPECT_GE(best.radja, 0.0);
  EXPECT_LE(best.radja, 3e3);
  // The trimmed cell is a working reference, not the collapsed all-off
  // cell, whose zero spread would win the search.
  EXPECT_GT(best.vref_mean, 1.0);
}

TEST(TestCell, SolvesAcrossFullMilitaryRange) {
  TestCellParams p = clean_params();
  p.qa_model = lab::ProcessTruth::nominal().pnp;
  p.qb_model = p.qa_model;
  p.opamp_offset = 2e-3;
  spice::Circuit c;
  auto h = build_test_cell(c, p);
  for (double t = 193.15; t <= 438.15; t += 12.25) {
    EXPECT_NO_THROW((void)solve_cell_at(c, h, t)) << "T=" << t;
  }
}

}  // namespace
}  // namespace icvbe::bandgap
