// Tests for lab::LotCampaign: the parallel lot engine must be
// deterministic in the thread count (bit-identical results for 1 vs N
// workers), deterministic run-to-run, and consistent with running the
// per-die procedure by hand.

#include <gtest/gtest.h>

#include <cmath>

#include "icvbe/lab/lot_campaign.hpp"

namespace icvbe::lab {
namespace {

LotCampaignConfig small_config() {
  LotCampaignConfig cfg;
  cfg.samples = 6;
  cfg.seed_base = 9000;
  return cfg;
}

void expect_bit_identical(const DieCharacterisation& a,
                          const DieCharacterisation& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.ok, b.ok);
  // Exact equality on purpose: determinism means bit-identical doubles.
  EXPECT_EQ(a.eg_classical, b.eg_classical);
  EXPECT_EQ(a.eg_meijer, b.eg_meijer);
  EXPECT_EQ(a.xti_meijer, b.xti_meijer);
  EXPECT_EQ(a.eg_measured_t, b.eg_measured_t);
  EXPECT_EQ(a.xti_measured_t, b.xti_measured_t);
  EXPECT_EQ(a.delta_t1, b.delta_t1);
  EXPECT_EQ(a.delta_t3, b.delta_t3);
  ASSERT_EQ(a.cell.size(), b.cell.size());
  for (std::size_t i = 0; i < a.cell.size(); ++i) {
    EXPECT_EQ(a.cell[i].vref, b.cell[i].vref);
    EXPECT_EQ(a.cell[i].delta_vbe, b.cell[i].delta_vbe);
    EXPECT_EQ(a.cell[i].t_sensor, b.cell[i].t_sensor);
  }
}

TEST(LotCampaignTest, ThreadCountDoesNotChangeResults) {
  LotCampaignConfig serial = small_config();
  serial.threads = 1;
  LotCampaignConfig parallel = small_config();
  parallel.threads = 4;

  const auto a = LotCampaign(SiliconLot{}, serial).run();
  const auto b = LotCampaign(SiliconLot{}, parallel).run();

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_identical(a[i], b[i]);
  }

  // The lot statistics are plain folds over index-ordered results, so they
  // inherit the bit-identity.
  const LotSummary sa = LotCampaign::summarise(a);
  const LotSummary sb = LotCampaign::summarise(b);
  EXPECT_EQ(sa.dies_ok, sb.dies_ok);
  EXPECT_EQ(sa.eg_classical.count, static_cast<std::size_t>(sa.dies_ok));
  EXPECT_EQ(sa.eg_meijer.mean, sb.eg_meijer.mean);
  EXPECT_EQ(sa.eg_meijer.stddev, sb.eg_meijer.stddev);
  EXPECT_EQ(sa.xti_meijer.q50, sb.xti_meijer.q50);
  EXPECT_EQ(sa.delta_t1.min, sb.delta_t1.min);
  EXPECT_EQ(sa.delta_t3.max, sb.delta_t3.max);
}

TEST(LotCampaignTest, RunMatchesPerDieProcedure) {
  LotCampaignConfig cfg = small_config();
  cfg.samples = 3;
  cfg.threads = 2;
  const LotCampaign campaign{SiliconLot{}, cfg};
  const auto all = campaign.run();
  ASSERT_EQ(all.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    expect_bit_identical(all[static_cast<std::size_t>(i)],
                         campaign.run_die(i));
  }
}

TEST(LotCampaignTest, ResultsAreOrderedAndPlausible) {
  LotCampaignConfig cfg = small_config();
  cfg.classical_celsius = {-25.0, 0.0, 25.0, 50.0, 75.0};
  cfg.samples = 4;
  const LotCampaign campaign{SiliconLot{}, cfg};
  const auto dies = campaign.run();

  const SiliconLot lot;
  ASSERT_EQ(dies.size(), 4u);
  for (std::size_t i = 0; i < dies.size(); ++i) {
    const auto& d = dies[i];
    EXPECT_EQ(d.index, static_cast<int>(i) + 1);
    ASSERT_TRUE(d.ok) << d.error;
    // The analytical method clusters around the truth; the classical
    // best-fit carries the systematic bias the paper documents, so it only
    // has to land in the physically sensible window.
    EXPECT_NEAR(d.eg_meijer, lot.true_eg(), 0.15);
    EXPECT_GT(d.eg_classical, 1.0);
    EXPECT_LT(d.eg_classical, 1.6);
    EXPECT_GT(d.xti_meijer, -2.0);
    EXPECT_LT(d.xti_meijer, 8.0);
    ASSERT_EQ(d.cell.size(), 3u);
    // PTAT dVBE rises with temperature.
    EXPECT_LT(d.cell[0].delta_vbe, d.cell[2].delta_vbe);
  }

  const LotSummary s = LotCampaign::summarise(dies);
  EXPECT_EQ(s.dies_ok, 4);
  EXPECT_EQ(s.dies_failed, 0);
  EXPECT_EQ(s.eg_meijer.count, 4u);
  EXPECT_GE(s.eg_meijer.max, s.eg_meijer.q90);
  EXPECT_GE(s.eg_meijer.q90, s.eg_meijer.q50);
  EXPECT_GE(s.eg_meijer.q50, s.eg_meijer.q10);
  EXPECT_GE(s.eg_meijer.q10, s.eg_meijer.min);
  EXPECT_GE(s.eg_meijer.stddev, 0.0);
}

TEST(LotStatisticTest, UsesSampleStandardDeviation) {
  // The lot is a sample of the process, so the spread must be the
  // Bessel-corrected (/(N-1)) standard deviation, not the population
  // (/N) one the original implementation computed.
  const LotStatistic s = LotStatistic::of({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(5.0 / 3.0));  // not sqrt(1.25)
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);

  // Degenerate sizes must not divide by zero.
  EXPECT_DOUBLE_EQ(LotStatistic::of({7.0}).stddev, 0.0);
  EXPECT_EQ(LotStatistic::of({}).count, 0u);
}

TEST(LotCampaignTest, RejectsBadConfig) {
  LotCampaignConfig cfg;
  cfg.samples = 0;
  EXPECT_THROW((LotCampaign{SiliconLot{}, cfg}), Error);
  LotCampaignConfig two;
  two.cell_celsius = {0.0, 50.0};
  EXPECT_THROW((LotCampaign{SiliconLot{}, two}), Error);
}

}  // namespace
}  // namespace icvbe::lab
