#include "icvbe/lab/lot_campaign.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"
#include "protocol.hpp"

namespace icvbe::lab {

LotStatistic LotStatistic::of(std::vector<double> values) {
  LotStatistic s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  // Sample (Bessel-corrected) standard deviation: the lot is a sample of
  // the process, not the whole population of dies it will ever produce.
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(var / static_cast<double>(values.size() - 1))
                 : 0.0;
  auto quantile = [&](double q) {
    const double idx = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  s.q10 = quantile(0.10);
  s.q50 = quantile(0.50);
  s.q90 = quantile(0.90);
  return s;
}

LotCampaign::LotCampaign(SiliconLot lot, LotCampaignConfig config)
    : lot_(std::move(lot)), config_(std::move(config)) {
  ICVBE_REQUIRE(config_.samples > 0, "LotCampaign: need >= 1 sample");
  ICVBE_REQUIRE(config_.cell_celsius.size() == 3,
                "LotCampaign: the Meijer method needs exactly three "
                "chamber temperatures");
}

namespace protocol {

void characterise(const LotCampaignConfig& cfg,
                  const std::function<std::vector<VbePoint>()>& vbe,
                  const std::function<std::vector<CellPoint>()>& cell,
                  DieCharacterisation& out) {
  extract::BestFitOptions opt;
  opt.t0 = to_kelvin(25.0);
  out.eg_classical =
      extract::best_fit_eg_xti(extract::samples_from_lab(vbe()), opt).eg;
  out.cell = cell();
  const auto m = extract::meijer_from_cell(out.cell, cfg.cell_celsius[0],
                                           cfg.cell_celsius[1],
                                           cfg.cell_celsius[2]);
  out.eg_meijer = m.with_computed_t.eg;
  out.xti_meijer = m.with_computed_t.xti;
  out.eg_measured_t = m.with_measured_t.eg;
  out.xti_measured_t = m.with_measured_t.xti;
  const auto cmp = extract::compare_temperatures(m);
  out.delta_t1 = cmp.delta_t1();
  out.delta_t3 = cmp.delta_t3();
  out.ok = true;
}

}  // namespace protocol

DieCharacterisation LotCampaign::run_die(int die_offset) const {
  DieCharacterisation out;
  out.index = kFirstDieIndex + die_offset;
  try {
    CampaignConfig cfg = config_.lab;
    cfg.seed = config_.seed_base + static_cast<std::uint64_t>(out.index);
    Laboratory laboratory(lot_.sample(out.index), cfg);
    protocol::characterise(
        config_,
        [&] {
          return laboratory.vbe_vs_temperature(config_.classical_ic,
                                               config_.classical_celsius);
        },
        [&] { return laboratory.test_cell_sweep(config_.cell_celsius); },
        out);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

std::vector<DieCharacterisation> LotCampaign::run() const {
  const auto n = static_cast<std::size_t>(config_.samples);
  std::vector<DieCharacterisation> results(n);

  // One die loop: workers claim groups of kBatchLanes consecutive dies
  // and run them on their own lanes. Dies write only their own slots:
  // scheduling decides who, never what.
  constexpr std::size_t width = linalg::kBatchLanes;
  common::for_each_index(
      (n + width - 1) / width, config_.threads,
      [&](unsigned) { return protocol::LaneGroup(*this, results); },
      [&](protocol::LaneGroup& lanes, std::size_t g) {
        const std::size_t first = g * width;
        lanes.run(first, std::min(width, n - first));
      });
  return results;
}

LotSummary LotCampaign::summarise(
    const std::vector<DieCharacterisation>& dies) {
  LotSummary s;
  std::vector<double> eg_c, eg_m, xti_m, d1, d3;
  for (const auto& die : dies) {
    if (!die.ok) {
      ++s.dies_failed;
      continue;
    }
    ++s.dies_ok;
    eg_c.push_back(die.eg_classical);
    eg_m.push_back(die.eg_meijer);
    xti_m.push_back(die.xti_meijer);
    d1.push_back(die.delta_t1);
    d3.push_back(die.delta_t3);
  }
  s.eg_classical = LotStatistic::of(std::move(eg_c));
  s.eg_meijer = LotStatistic::of(std::move(eg_m));
  s.xti_meijer = LotStatistic::of(std::move(xti_m));
  s.delta_t1 = LotStatistic::of(std::move(d1));
  s.delta_t3 = LotStatistic::of(std::move(d3));
  return s;
}

}  // namespace icvbe::lab
