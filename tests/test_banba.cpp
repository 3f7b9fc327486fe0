// Tests for the sub-1-V current-mode Banba cell (the paper's concluding
// "more accurate low voltage reference" extension).

#include <gtest/gtest.h>

#include <cmath>

#include "icvbe/bandgap/banba_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {
namespace {

BanbaCellParams nominal_params() {
  BanbaCellParams p;
  const auto truth = lab::ProcessTruth::nominal();
  p.qa_model = truth.pnp;
  p.qb_model = truth.pnp;
  // Keep the reference cell clean for the functional tests.
  p.qa_model.iss_e = p.qb_model.iss_e = 0.0;
  p.qa_model.iss = p.qb_model.iss = 0.0;
  p.pmos = banba_default_pmos();
  return p;
}

TEST(BanbaCell, OperatesBelowOneVolt) {
  BanbaCellParams p = nominal_params();
  spice::Circuit c;
  auto h = build_banba_cell(c, p);
  const auto obs = solve_banba_at(c, h, p, 298.15);
  // "more and more bandgap reference voltages operate down to 600 mV":
  // the current-mode output sits far below the 1.2 V classic value, from a
  // 1.0 V supply.
  EXPECT_GT(obs.vref, 0.35);
  EXPECT_LT(obs.vref, 0.75);
  EXPECT_LT(obs.vref, p.vdd);
}

TEST(BanbaCell, MatchesFirstOrderPrediction) {
  BanbaCellParams p = nominal_params();
  spice::Circuit c;
  auto h = build_banba_cell(c, p);
  const auto obs = solve_banba_at(c, h, p, 298.15);
  const double predicted = banba_ideal_vref(p, obs.v_branch, 298.15);
  EXPECT_NEAR(obs.vref, predicted, 0.05 * predicted);
}

TEST(BanbaCell, TemperatureStabilityIsBandgapClass) {
  BanbaCellParams p = nominal_params();
  spice::Circuit c;
  auto h = build_banba_cell(c, p);
  double vmin = 1e9, vmax = -1e9;
  for (double t = 233.15; t <= 398.15; t += 15.0) {
    const double v = solve_banba_at(c, h, p, t).vref;
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  // Untrimmed spread stays within ~2 % of the output over the military
  // range -- a functioning bandgap, not a divider.
  EXPECT_LT(vmax - vmin, 0.02 * vmax);
}

TEST(BanbaCell, R2ScalesOutputWithoutRetuning) {
  BanbaCellParams p = nominal_params();
  spice::Circuit c1, c2;
  auto h1 = build_banba_cell(c1, p, "bgb");
  const double v1 = solve_banba_at(c1, h1, p, 298.15).vref;
  BanbaCellParams p2 = p;
  p2.r2 = p.r2 * 0.5;
  auto h2 = build_banba_cell(c2, p2, "bgb");
  const double v2 = solve_banba_at(c2, h2, p2, 298.15).vref;
  EXPECT_NEAR(v2 / v1, 0.5, 0.03);
}

TEST(BanbaCell, BranchPotentialsForcedEqual) {
  // The op-amp forces the two branch heads together within gain error.
  BanbaCellParams p = nominal_params();
  spice::Circuit c;
  auto h = build_banba_cell(c, p);
  (void)solve_banba_at(c, h, p, 298.15);  // leaves the circuit at 298.15 K
  // Re-solve with the same warm-started path and inspect both heads.
  const auto obs = solve_banba_at(c, h, p, 298.15);
  spice::Circuit c2;
  auto h2 = build_banba_cell(c2, p);
  c2.set_temperature(298.15);
  const int n = c2.assign_unknowns();
  spice::Unknowns guess(static_cast<std::size_t>(n));
  auto set = [&](spice::NodeId node, double v) {
    if (node != spice::kGround) guess.raw()[node - 1] = v;
  };
  set(h2.vdd, p.vdd);
  set(h2.n1, obs.v_branch);
  set(h2.n2, obs.v_branch);
  set(c2.node("bgb.n2e"), obs.v_branch - 0.05);
  set(h2.vref, obs.vref);
  set(h2.gate, 0.35);
  const spice::Unknowns x = spice::SimSession(c2).solve_or_throw(&guess);
  EXPECT_NEAR(x.node_voltage(h2.n1), x.node_voltage(h2.n2), 50e-6);
}

TEST(BanbaCell, ExtractedCardChangesPredictionVisibly) {
  // The point of the whole exercise: plugging a wrong (EG, XTI) couple
  // into the same deck moves the predicted low-voltage reference curve.
  BanbaCellParams good = nominal_params();
  BanbaCellParams bad = nominal_params();
  bad.qa_model.eg = bad.qb_model.eg = 1.27;   // a corrupted classical couple
  bad.qa_model.xti = bad.qb_model.xti = -3.0;
  spice::Circuit cg, cb;
  auto hg = build_banba_cell(cg, good);
  auto hb = build_banba_cell(cb, bad);
  double spread_good = 0.0, spread_bad = 0.0;
  double gmin = 1e9, gmax = -1e9, bmin = 1e9, bmax = -1e9;
  for (double t = 233.15; t <= 398.15; t += 33.0) {
    const double vg = solve_banba_at(cg, hg, good, t).vref;
    const double vb = solve_banba_at(cb, hb, bad, t).vref;
    gmin = std::min(gmin, vg);
    gmax = std::max(gmax, vg);
    bmin = std::min(bmin, vb);
    bmax = std::max(bmax, vb);
  }
  spread_good = gmax - gmin;
  spread_bad = bmax - bmin;
  // The corrupted card predicts a clearly different (worse) drift.
  EXPECT_GT(std::abs(spread_bad - spread_good), 1e-3);
}

TEST(BanbaCell, RejectsBadParameters) {
  BanbaCellParams p = nominal_params();
  p.vdd = 0.5;
  spice::Circuit c;
  EXPECT_THROW((void)build_banba_cell(c, p), Error);
}

}  // namespace
}  // namespace icvbe::bandgap
