// Tests for icvbe/lab: silicon lot, instruments, campaigns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/instruments.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/lab/silicon.hpp"

namespace icvbe::lab {
namespace {

TEST(SiliconLot, SamplesAreDeterministic) {
  SiliconLot lot;
  const DieSample a = lot.sample(3);
  const DieSample b = lot.sample(3);
  EXPECT_DOUBLE_EQ(a.qa.is, b.qa.is);
  EXPECT_DOUBLE_EQ(a.opamp_offset, b.opamp_offset);
  EXPECT_DOUBLE_EQ(a.fixture.leak, b.fixture.leak);
}

TEST(SiliconLot, SamplesDifferFromEachOther) {
  SiliconLot lot;
  const DieSample a = lot.sample(1);
  const DieSample b = lot.sample(2);
  EXPECT_NE(a.qa.is, b.qa.is);
  EXPECT_NE(a.opamp_offset, b.opamp_offset);
}

TEST(SiliconLot, PairMismatchIsSmall) {
  SiliconLot lot;
  for (int i = 0; i < 10; ++i) {
    const DieSample s = lot.sample(i);
    EXPECT_NEAR(s.qa.is / s.qb.is, 1.0, 0.03) << "sample " << i;
  }
}

TEST(SiliconLot, TrueParametersExposedForValidation) {
  SiliconLot lot;
  EXPECT_GT(lot.true_eg(), 1.0);
  EXPECT_LT(lot.true_eg(), 1.3);
  EXPECT_GT(lot.true_xti(), 0.5);
  EXPECT_LT(lot.true_xti(), 6.5);  // the Fig.-6 plotting window
}

TEST(FixtureThermalTest, LeakPullsTowardRoom) {
  FixtureThermal f;
  f.leak = 0.1;
  f.leak_tempco = 0.0;
  f.rth_die = 0.0;
  f.aux_power = 0.0;
  // Cold chamber: die above chamber; hot chamber: die below.
  EXPECT_GT(f.die_temperature(247.0, 0.0), 247.0);
  EXPECT_LT(f.die_temperature(348.0, 0.0), 348.0);
  // At room temperature the leak does nothing.
  EXPECT_NEAR(f.die_temperature(f.room_kelvin, 0.0), f.room_kelvin, 1e-12);
}

TEST(FixtureThermalTest, PowerAlwaysHeats) {
  FixtureThermal f;
  EXPECT_GT(f.die_temperature(300.0, 1e-3), f.die_temperature(300.0, 0.0));
}

TEST(Pt100, ErrorWithinSpec) {
  // "precision less than 1 degC": systematic offset draws stay within a
  // few sigma of the 0.4 K spec.
  int outside = 0;
  for (int i = 0; i < 50; ++i) {
    Pt100Sensor sensor(Rng::child(55, static_cast<std::uint64_t>(i)));
    const double err = sensor.read(300.0) - 300.0;
    if (std::abs(err) > 1.0) ++outside;
  }
  EXPECT_LE(outside, 5);
}

TEST(Pt100, SystematicOffsetIsStable) {
  Pt100Sensor sensor(Rng(9));
  double sum = 0.0;
  for (int i = 0; i < 200; ++i) sum += sensor.read(300.0) - 300.0;
  EXPECT_NEAR(sum / 200.0, sensor.systematic_offset(), 0.05);
}

TEST(Smu, VoltageErrorsAreMicrovoltScale) {
  SmuChannel smu(Rng(4));
  const double err = smu.measure_voltage(0.65) - 0.65;
  EXPECT_LT(std::abs(err), 300e-6);
}

TEST(Smu, CurrentGainErrorIsRelative) {
  SmuChannel smu(Rng(5));
  const double i1 = smu.measure_current(1e-6);
  EXPECT_NEAR(i1, 1e-6, 1e-8);
  const double i2 = smu.measure_current(1e-3);
  EXPECT_NEAR(i2, 1e-3, 1e-5);
}

TEST(Smu, ForceMirrorsMeasureErrors) {
  SmuChannel smu(Rng(6));
  EXPECT_NEAR(smu.force_voltage(0.6), 0.6, 3e-4);
  EXPECT_NEAR(smu.force_current(1e-5), 1e-5, 1e-7);
}

class LabCampaignTest : public ::testing::Test {
 protected:
  SiliconLot lot_;
};

TEST_F(LabCampaignTest, IdealVbeVsTemperatureMatchesTheory) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  cfg.ideal_thermal = true;
  DieSample s = lot_.sample(0);
  s.qin.iss_e = 0.0;  // pure eq.-(1) device
  s.qin.var = std::numeric_limits<double>::infinity();
  Laboratory lab(s, cfg);
  const auto pts = lab.vbe_vs_temperature(1e-6, {0.0, 25.0, 50.0});
  ASSERT_EQ(pts.size(), 3u);
  // Forced-current diode connection: VBE(T) strictly decreasing, sensor
  // equals die equals chamber in ideal mode.
  EXPECT_GT(pts[0].vbe, pts[1].vbe);
  EXPECT_GT(pts[1].vbe, pts[2].vbe);
  for (const auto& p : pts) {
    EXPECT_DOUBLE_EQ(p.t_sensor, p.t_die_true);
  }
}

TEST_F(LabCampaignTest, RealThermalSeparatesSensorFromDie) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  Laboratory lab(lot_.sample(1), cfg);
  const auto pts = lab.vbe_vs_temperature(1e-6, {-25.0, 75.0});
  // Cold: die above chamber; hot: die below (fixture leak).
  EXPECT_GT(pts[0].t_die_true, to_kelvin(-25.0));
  EXPECT_LT(pts[1].t_die_true, to_kelvin(75.0));
}

TEST_F(LabCampaignTest, IcVbeFamilyHasExponentialDecades) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  cfg.ideal_thermal = true;
  Laboratory lab(lot_.sample(0), cfg);
  const auto fam = lab.icvbe_family({25.0}, 0.3, 0.75, 10);
  ASSERT_EQ(fam.size(), 1u);
  const Series& s = fam[0];
  // ~60 mV per decade: 0.45 V of VBE span covers >= 6 decades.
  EXPECT_GT(s.max_y() / s.min_y(), 1e6);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GT(s.y(i), s.y(i - 1));
  }
}

TEST_F(LabCampaignTest, FamilyShiftsLeftWithTemperature) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  cfg.ideal_thermal = true;
  Laboratory lab(lot_.sample(0), cfg);
  const auto fam = lab.icvbe_family({-50.0, 125.0}, 0.4, 0.6, 5);
  // At the same VBE, the hot device carries far more current (Fig. 5's
  // leftward shift with temperature).
  EXPECT_GT(fam[1].y(2) / fam[0].y(2), 1e2);
}

TEST_F(LabCampaignTest, CellSweepProducesPtatDeltaVbe) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  Laboratory lab(lot_.sample(2), cfg);
  const auto sweep = lab.test_cell_sweep({-25.0, 25.0, 75.0});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].delta_vbe, sweep[1].delta_vbe);
  EXPECT_LT(sweep[1].delta_vbe, sweep[2].delta_vbe);
  // Near (kT/q) ln 8 at the die temperature.
  for (const auto& p : sweep) {
    EXPECT_NEAR(p.delta_vbe,
                thermal_voltage(p.t_die_true) * std::log(8.0), 1.5e-3);
  }
}

TEST_F(LabCampaignTest, VrefCurveIsReproducible) {
  CampaignConfig cfg;
  cfg.seed = 77;
  Laboratory lab1(lot_.sample(1), cfg);
  Laboratory lab2(lot_.sample(1), cfg);
  const auto a = lab1.vref_curve({-20.0, 25.0, 70.0});
  const auto b = lab2.vref_curve({-20.0, 25.0, 70.0});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.y(i), b.y(i));
  }
}

// A VREF(T) point is the test-cell sweep's VREF at the same setting, on
// any grid: on this die a two-point {-55, 125} C grid once read 0 V at
// 125 C (the collapsed cell) while the sweep read 1.2275 V there.
TEST_F(LabCampaignTest, VrefCurvePointsAreTheCellSweepsVref) {
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  DieSample s = lot_.sample(2);
  s.opamp_offset = 0.0;
  const std::vector<double> grid = {-55.0, 125.0};
  Laboratory curve_lab(s, cfg);
  Laboratory sweep_lab(s, cfg);
  const Series curve = curve_lab.vref_curve(grid);
  const auto sweep = sweep_lab.test_cell_sweep(grid);
  ASSERT_EQ(curve.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double got = curve.y(i);
    const double want = sweep[i].vref;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << grid[i] << " C: " << got << " V against " << want << " V";
  }
  EXPECT_GT(curve.y(1), 1.2);
}

TEST_F(LabCampaignTest, MeasuredVrefRisesWithTemperature) {
  // The paper's Fig.-8 measured curve: a clear rise across the range
  // instead of the textbook bell.
  CampaignConfig cfg;
  Laboratory lab(lot_.sample(1), cfg);
  const auto curve = lab.vref_curve({-55.0, 0.0, 60.0, 125.0});
  EXPECT_GT(curve.y(3), curve.y(0) + 3e-3);
  EXPECT_GT(curve.y(1), curve.y(0));
}

TEST_F(LabCampaignTest, InstrumentNoiseVisibleButSmall) {
  CampaignConfig ideal;
  ideal.ideal_instruments = true;
  CampaignConfig real;
  real.seed = 123;
  Laboratory li(lot_.sample(3), ideal);
  Laboratory lr(lot_.sample(3), real);
  const auto pi = li.vbe_vs_temperature(1e-6, {25.0});
  const auto pr = lr.vbe_vs_temperature(1e-6, {25.0});
  const double dv = std::abs(pi[0].vbe - pr[0].vbe);
  EXPECT_GT(dv, 0.0);
  EXPECT_LT(dv, 1e-3);
}

// Every chamber point starts from the analytic guess at its own setting,
// so what a full sweep records at a setting is bit for bit what a fresh
// laboratory records there alone: a point depends only on (die, setting),
// never on the setting measured before it.
TEST_F(LabCampaignTest, ChamberPointDependsOnlyOnDieAndSetting) {
  const LotCampaignConfig lot_cfg;
  CampaignConfig cfg;
  cfg.ideal_instruments = true;
  // Both point types are plain doubles: compare every field's bits.
  const auto same = [](const auto& a, const auto& b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  int vbe_differ = 0;
  int cell_differ = 0;
  for (int die = 1; die <= 30; ++die) {
    const DieSample s = lot_.sample(die);
    Laboratory sweep(s, cfg);
    const auto vbe =
        sweep.vbe_vs_temperature(lot_cfg.classical_ic,
                                 lot_cfg.classical_celsius);
    const auto cell = sweep.test_cell_sweep(lot_cfg.cell_celsius);
    ASSERT_EQ(vbe.size(), lot_cfg.classical_celsius.size());
    ASSERT_EQ(cell.size(), lot_cfg.cell_celsius.size());
    for (std::size_t i = 0; i < vbe.size(); ++i) {
      Laboratory alone(s, cfg);
      const VbePoint p = alone.vbe_vs_temperature(
          lot_cfg.classical_ic, {lot_cfg.classical_celsius[i]})[0];
      if (!same(p, vbe[i])) ++vbe_differ;
    }
    for (std::size_t i = 0; i < cell.size(); ++i) {
      Laboratory alone(s, cfg);
      const CellPoint p =
          alone.test_cell_sweep({lot_cfg.cell_celsius[i]})[0];
      if (!same(p, cell[i])) ++cell_differ;
    }
  }
  EXPECT_EQ(vbe_differ, 0) << "of 240 VBE(T) points";
  EXPECT_EQ(cell_differ, 0) << "of 90 cell points";
}

// The start points make chamber points cheap: from the ideal-diode guess a
// VBE(T) point converges in a few Newton iterations (a cold start at
// -50 C takes 39), and a cell's first thermal pass from its analytic guess
// in a few more.
TEST_F(LabCampaignTest, ChamberPointsConvergeFromTheirGuess) {
  const LotCampaignConfig lot_cfg;
  const CampaignConfig cfg;
  for (int die = 1; die <= 50; ++die) {
    const DieSample s = lot_.sample(die);

    spice::Circuit dut;
    const spice::NodeId e = protocol::build_dut(dut, s.qin, true);
    spice::SimSession dut_session(dut);
    for (double tc : lot_cfg.classical_celsius) {
      dut.get<spice::CurrentSource>("IE").set_value(lot_cfg.classical_ic);
      dut.set_temperature(s.fixture.die_temperature(to_kelvin(tc), 0.0));
      const spice::Unknowns guess = protocol::dut_initial_guess(dut, e);
      const spice::DcResult& r = dut_session.solve(&guess);
      ASSERT_TRUE(r.converged) << "die " << die << " at " << tc << " C";
      EXPECT_LE(r.iterations, 4) << "die " << die << " at " << tc << " C";
    }

    spice::Circuit cell;
    const bandgap::TestCellHandles h =
        bandgap::build_test_cell(cell, protocol::cell_params(s, cfg, 0.0));
    spice::SimSession cell_session(cell);
    for (double tc : lot_cfg.cell_celsius) {
      const double t_die = s.fixture.die_temperature(to_kelvin(tc), 0.0);
      cell.set_temperature(t_die);
      const spice::Unknowns guess = bandgap::cell_initial_guess(cell, h, t_die);
      const spice::DcResult& r = cell_session.solve(&guess);
      ASSERT_TRUE(r.converged) << "die " << die << " at " << tc << " C";
      EXPECT_LE(r.iterations, 5) << "die " << die << " at " << tc << " C";
    }
  }
}

TEST_F(LabCampaignTest, RejectsBadRequests) {
  CampaignConfig cfg;
  Laboratory lab(lot_.sample(0), cfg);
  EXPECT_THROW((void)lab.vbe_vs_temperature(-1e-6, {25.0}), Error);
  EXPECT_THROW((void)lab.icvbe_family({25.0}, 0.3, 0.8, 1), Error);
}

}  // namespace
}  // namespace icvbe::lab
