// lot: the paper's own traffic. One op characterises a fixed Monte-Carlo
// lot with the CLI's `icvbe lot` defaults (classical + Meijer methods,
// per-die path) on two worker threads and summarises it: many small
// nonlinear Newton solves, BJT exp() stamping, the instrument models and
// the EG/XTI extraction.

#include <cmath>
#include <cstring>
#include <optional>

#include "bench.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/lot_campaign.hpp"

namespace icvbe_bench {
namespace {

using namespace icvbe;

constexpr int kDies = 400;
constexpr unsigned kThreads = 2;
/// Dies replayed layer by layer in a traced run (every kReplayStride-th).
constexpr int kReplayStride = 25;

lab::LotCampaignConfig lot_config(const Options& opt, unsigned threads) {
  lab::LotCampaignConfig cfg;
  cfg.samples = kDies;
  cfg.threads = threads;
  // Seed 1 characterises the same dies as `icvbe lot`.
  cfg.seed_base = 9000 + 1000000 * (opt.seed - 1);
  return cfg;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_statistic(const lab::LotStatistic& a, const lab::LotStatistic& b) {
  return a.count == b.count && same_bits(a.mean, b.mean) &&
         same_bits(a.stddev, b.stddev) && same_bits(a.min, b.min) &&
         same_bits(a.max, b.max) && same_bits(a.q10, b.q10) &&
         same_bits(a.q50, b.q50) && same_bits(a.q90, b.q90);
}

bool same_summary(const lab::LotSummary& a, const lab::LotSummary& b) {
  return a.dies_ok == b.dies_ok && a.dies_failed == b.dies_failed &&
         same_statistic(a.eg_classical, b.eg_classical) &&
         same_statistic(a.eg_meijer, b.eg_meijer) &&
         same_statistic(a.xti_meijer, b.xti_meijer) &&
         same_statistic(a.delta_t1, b.delta_t1) &&
         same_statistic(a.delta_t3, b.delta_t3);
}

bool same_cell(const std::vector<lab::CellPoint>& a,
               const std::vector<lab::CellPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].t_sensor, b[i].t_sensor) ||
        !same_bits(a[i].vbe_qa, b[i].vbe_qa) ||
        !same_bits(a[i].vbe_qb, b[i].vbe_qb) ||
        !same_bits(a[i].delta_vbe, b[i].delta_vbe) ||
        !same_bits(a[i].ic_qa, b[i].ic_qa) ||
        !same_bits(a[i].ic_qb, b[i].ic_qb) ||
        !same_bits(a[i].vref, b[i].vref) ||
        !same_bits(a[i].t_die_true, b[i].t_die_true)) {
      return false;
    }
  }
  return true;
}

/// LotCampaign::run_die's exact sequence, one public call per span.
/// Returns true iff every result matches the campaign's die bitwise.
bool replay_die(const lab::SiliconLot& lot, const lab::LotCampaignConfig& cfg,
                const lab::DieCharacterisation& want, Tracer& tracer) {
  ScopedSpan die(tracer, "lab.die");
  lab::CampaignConfig lab_cfg = cfg.lab;
  lab_cfg.seed = cfg.seed_base + static_cast<std::uint64_t>(want.index);
  std::optional<lab::Laboratory> laboratory;
  {
    ScopedSpan s(tracer, "lab.ctor");
    laboratory.emplace(lot.sample(want.index), lab_cfg);
  }
  std::vector<lab::VbePoint> pts;
  {
    ScopedSpan s(tracer, "lab.vbe_t");
    pts = laboratory->vbe_vs_temperature(cfg.classical_ic,
                                         cfg.classical_celsius);
  }
  double eg_classical = 0.0;
  {
    ScopedSpan s(tracer, "extract.best_fit");
    extract::BestFitOptions fit;
    fit.t0 = to_kelvin(25.0);
    eg_classical =
        extract::best_fit_eg_xti(extract::samples_from_lab(pts), fit).eg;
  }
  std::vector<lab::CellPoint> cell;
  {
    ScopedSpan s(tracer, "lab.cell_sweep");
    cell = laboratory->test_cell_sweep(cfg.cell_celsius);
  }
  extract::MeijerCampaignResult m;
  extract::TemperatureComparison cmp;
  {
    ScopedSpan s(tracer, "extract.meijer");
    m = extract::meijer_from_cell(cell, cfg.cell_celsius[0],
                                  cfg.cell_celsius[1], cfg.cell_celsius[2]);
    cmp = extract::compare_temperatures(m);
  }
  return want.ok && same_bits(eg_classical, want.eg_classical) &&
         same_cell(cell, want.cell) &&
         same_bits(m.with_computed_t.eg, want.eg_meijer) &&
         same_bits(m.with_computed_t.xti, want.xti_meijer) &&
         same_bits(m.with_measured_t.eg, want.eg_measured_t) &&
         same_bits(m.with_measured_t.xti, want.xti_measured_t) &&
         same_bits(cmp.delta_t1(), want.delta_t1) &&
         same_bits(cmp.delta_t3(), want.delta_t3);
}

}  // namespace

void run_lot(const Options& opt, Tracer& tracer, Record& rec) {
  const lab::SiliconLot lot;
  const lab::LotCampaignConfig cfg = lot_config(opt, kThreads);
  const lab::LotCampaign campaign(lot, cfg);

  // The first op is the reference every steady op must reproduce bitwise.
  const std::vector<lab::DieCharacterisation> first_dies = campaign.run();
  const lab::LotSummary first = lab::LotCampaign::summarise(first_dies);
  if (first.dies_failed != 0) rec.problem("dies failed in the first lot");
  rec.values["eg_err_mev"].push_back(
      std::abs(first.eg_meijer.mean - lot.true_eg()) * 1e3);

  // Set-up: constructing SiliconLot and LotCampaign, in batches (one
  // construction is ~0.2 us, near the clock's resolution), at the start
  // of every window.
  const auto measure_setup = [&](int) {
    constexpr int kBatch = 50;
    for (int b = 0; b < 21; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        [[maybe_unused]] const lab::LotCampaign c(lab::SiliconLot{},
                                                  lot_config(opt, kThreads));
      }
      rec.add_setup(ms_since(t0) / 1e3 / kBatch);
    }
  };

  steady_loop(opt, tracer, rec, measure_setup, [&](int) {
    const auto t0 = Clock::now();
    lab::LotSummary s;
    {
      ScopedSpan op(tracer, "op");
      std::vector<lab::DieCharacterisation> dies;
      {
        ScopedSpan run(tracer, "pool.run");
        dies = campaign.run();
      }
      ScopedSpan sum(tracer, "lab.summarise");
      s = lab::LotCampaign::summarise(dies);
    }
    return OpOutcome{ms_since(t0), s.dies_failed == 0 && same_summary(s, first)};
  });

  if (!opt.trace) return;
  tracer.set_active(true);
  for (int i = 0; i < kDies; i += kReplayStride) {
    if (!replay_die(lot, cfg, first_dies[static_cast<std::size_t>(i)], tracer)) {
      rec.problem("replayed die " + std::to_string(i) +
                  " differs from LotCampaign::run_die");
    }
  }
  tracer.set_active(false);

  // Thread-pool efficiency samples (stats.py: median 1-thread lot time
  // over 2 x median 2-thread lot time), interleaved so drift hits both
  // sides alike.
  const lab::LotCampaign serial(lot, lot_config(opt, 1));
  for (int i = 0; i < 7; ++i) {
    auto t0 = Clock::now();
    (void)serial.run();
    rec.values["pool.lot_ms.1"].push_back(ms_since(t0));
    t0 = Clock::now();
    (void)campaign.run();
    rec.values["pool.lot_ms.2"].push_back(ms_since(t0));
  }
}

}  // namespace icvbe_bench
