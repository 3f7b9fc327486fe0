// Monte-Carlo lot study (extension of Fig. 6 / Table 1): run both
// extraction methods over 25 packaged samples and characterise the
// distributions. The paper measured 5 samples; the virtual lab lets us
// show the population-level structure -- every extracted couple falls on
// the characteristic straight, and only the computed-temperature method
// clusters around the silicon truth.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/simd.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/linalg/sparse.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

constexpr int kSamples = 25;

// Batched-lot gate configuration (see run_batched_gate below).
constexpr int kGateDies = 1000;
constexpr std::size_t kGateLanes = linalg::kBatchLanes;
constexpr double kSolverSpeedupGate = 5.0;  // lot-solver throughput
// End-to-end campaign speedup is bounded by per-die BJT stamping and
// instrument modelling (pinned per die by the bit-identity contract):
// measured 1.35-1.64x across runs on a shared 4-core host. Gated with
// headroom for noisy shared CI runners -- the regression this guards is
// the batched path degenerating to (or below) per-die cost, not the last
// 10%.
constexpr double kCampaignSpeedupGate = 1.15;

void run_lot_study() {
  bench::banner(
      "Monte-Carlo lot study: 25 samples, both methods (parallel "
      "LotCampaign)");
  lab::SiliconLot lot;

  lab::LotCampaignConfig cfg;
  cfg.samples = kSamples;
  cfg.seed_base = 9000;
  const lab::LotCampaign campaign(lot, cfg);
  const auto dies = campaign.run();
  const lab::LotSummary s = lab::LotCampaign::summarise(dies);

  Series c3_couples("(C3) couples");
  Series c2_couples("(C2) couples");
  for (const auto& d : dies) {
    if (!d.ok) continue;
    c3_couples.push_back(d.xti_meijer, d.eg_meijer);
    c2_couples.push_back(d.xti_measured_t, d.eg_measured_t);
  }

  Table t({"quantity", "q10", "median", "q90", "truth"});
  t.add_row({"classical EG [eV]", format_fixed(s.eg_classical.q10, 4),
             format_fixed(s.eg_classical.q50, 4),
             format_fixed(s.eg_classical.q90, 4),
             format_fixed(lot.true_eg(), 4)});
  t.add_row({"analytical EG [eV]", format_fixed(s.eg_meijer.q10, 4),
             format_fixed(s.eg_meijer.q50, 4),
             format_fixed(s.eg_meijer.q90, 4),
             format_fixed(lot.true_eg(), 4)});
  t.add_row({"analytical XTI", format_fixed(s.xti_meijer.q10, 2),
             format_fixed(s.xti_meijer.q50, 2),
             format_fixed(s.xti_meijer.q90, 2),
             format_fixed(lot.true_xti(), 2)});
  t.add_row({"dT1 [K]", format_fixed(s.delta_t1.q10, 2),
             format_fixed(s.delta_t1.q50, 2),
             format_fixed(s.delta_t1.q90, 2), "paper: -4.6..-1.8"});
  t.add_row({"dT3 [K]", format_fixed(s.delta_t3.q10, 2),
             format_fixed(s.delta_t3.q50, 2),
             format_fixed(s.delta_t3.q90, 2), "paper: +4.0..+7.3"});
  bench::emit(t, "lot_statistics.csv");

  // Couples cloud: every couple sits near the characteristic straight.
  Series truth("truth");
  truth.push_back(lot.true_xti(), lot.true_eg());
  AsciiPlotOptions popt;
  popt.title = "Extracted couples across the lot (cf. Fig. 6)";
  popt.x_label = "XTI";
  popt.y_label = "EG [eV]";
  popt.height = 16;
  AsciiPlot plot(popt);
  plot.add(c3_couples, '3');
  plot.add(c2_couples, '2');
  plot.add(truth, 'T');
  plot.print(std::cout);

  // Collinearity check: regression of EG on XTI over the C3 cloud should
  // match the characteristic-straight slope.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < c3_couples.size(); ++i) {
    sx += c3_couples.x(i);
    sy += c3_couples.y(i);
    sxx += c3_couples.x(i) * c3_couples.x(i);
    sxy += c3_couples.x(i) * c3_couples.y(i);
  }
  const double n = static_cast<double>(c3_couples.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::cout << "C3 cloud regression slope: " << format_fixed(slope * 1e3, 1)
            << " mV/XTI vs characteristic-straight theory "
            << format_fixed(extract::characteristic_slope_theory(
                                to_kelvin(-25.0), to_kelvin(25.0)) * 1e3, 1)
            << " mV/XTI\n";
}

// ------------------------------------------------ batched-lot gate ---
//
// The tentpole claim of the batched solver is about LOT-SOLVER
// throughput: the per-die path pays pattern construction + symbolic
// analysis + a pivoting factorisation for every die, while the batched
// path pays one analysis for the whole lot and then streams K value
// planes through each frozen refactor/solve. The end-to-end campaign
// speedup is necessarily smaller (device stamping and instrument
// modelling are per-die by the bit-identity contract), so it is gated
// separately at an honest, measured level.

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Cell-shaped MNA test system: n = 7 like the paper's test cell, ring +
/// diagonal pattern, diagonally dominant so the Monte-Carlo value spread
/// never moves a pivot.
struct DieSystem {
  static constexpr std::size_t kN = 7;
  std::vector<std::size_t> row, col;
  std::vector<double> base;

  DieSystem() {
    for (std::size_t i = 0; i < kN; ++i) {
      push(i, i, 4.0 + 0.3 * static_cast<double>(i));
      push(i, (i + 1) % kN, -1.0);
      push((i + 1) % kN, i, -0.8);
    }
    push(0, 3, -0.5);
    push(3, 0, -0.4);
  }
  void push(std::size_t r, std::size_t c, double v) {
    row.push_back(r);
    col.push_back(c);
    base.push_back(v);
  }
  [[nodiscard]] std::size_t nnz() const { return base.size(); }

  /// Deterministic per-die value: a few-percent process-like spread.
  [[nodiscard]] double value(int die, std::size_t s) const {
    return base[s] *
           (1.0 + 0.02 * std::sin(0.7 * static_cast<double>(die) +
                                  1.3 * static_cast<double>(s)));
  }
};

struct SolverTimings {
  double per_die_ms = 0.0;
  double batched_ms = 0.0;
  // Per-stage breakdown of the batched path, medians across reps:
  // stamp = lane loading + RHS packing, reduce = solution scatter-back.
  double stamp_ms = 0.0;
  double refactor_ms = 0.0;
  double solve_ms = 0.0;
  double reduce_ms = 0.0;
  bool bit_identical = false;
};

/// Time kGateDies solves through both paths and bit-compare every
/// solution. Returns medians of `reps` repetitions.
SolverTimings time_lot_solver() {
  const DieSystem sys;
  const std::size_t n = DieSystem::kN;
  const std::size_t k = kGateLanes;

  // Materialise every die's values up front: generation cost is shared by
  // construction, so the timed contrast is pure solver work.
  std::vector<double> vals(static_cast<std::size_t>(kGateDies) * sys.nnz());
  for (int die = 0; die < kGateDies; ++die)
    for (std::size_t s = 0; s < sys.nnz(); ++s)
      vals[static_cast<std::size_t>(die) * sys.nnz() + s] =
          sys.value(die, s);

  std::vector<double> x_per_die(static_cast<std::size_t>(kGateDies) * n);
  std::vector<double> x_batched(static_cast<std::size_t>(kGateDies) * n);

  // Batched path: one pattern, one analysis, K value planes per
  // refactor_batch/solve_batch. `stages` collects the {stamp, refactor,
  // solve, reduce} split for this run.
  auto run_batched = [&](std::vector<double>& x_out, double* stages) {
    linalg::SparseMatrix pattern(n, n);
    for (std::size_t s = 0; s < sys.nnz(); ++s)
      pattern.add(sys.row[s], sys.col[s], sys.base[s]);
    pattern.freeze_pattern();
    linalg::SparseLuFactorization lu;
    lu.refactor(pattern);  // pins the shared symbolic analysis
    linalg::SparseValueBatch batch;
    batch.bind(pattern);
    std::vector<unsigned char> lane_ok(k);
    std::vector<double> rhs(n * k);
    for (int first = 0; first < kGateDies;
         first += static_cast<int>(k)) {
      const std::size_t lanes_now =
          std::min(k, static_cast<std::size_t>(kGateDies - first));
      const auto s0 = Clock::now();
      for (std::size_t l = 0; l < lanes_now; ++l) {
        batch.clear_lane(l);
        const double* v =
            &vals[(static_cast<std::size_t>(first) + l) * sys.nnz()];
        for (std::size_t s = 0; s < sys.nnz(); ++s)
          batch.add(sys.row[s], sys.col[s], v[s], l);
        lane_ok[l] = 1;
      }
      for (std::size_t l = lanes_now; l < k; ++l) {
        batch.clear_lane(l);
        batch.add(0, 0, 1.0, l);  // park unused tail lanes on identity-ish
        lane_ok[l] = 0;
      }
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < k; ++l) rhs[i * k + l] = 1.0;
      const auto s1 = Clock::now();
      lu.refactor_batch(batch, lane_ok);
      const auto s2 = Clock::now();
      lu.solve_batch(rhs);
      const auto s3 = Clock::now();
      for (std::size_t l = 0; l < lanes_now; ++l)
        for (std::size_t i = 0; i < n; ++i)
          x_out[(static_cast<std::size_t>(first) + l) * n + i] =
              rhs[i * k + l];
      if (stages != nullptr) {
        using Ms = std::chrono::duration<double, std::milli>;
        stages[0] += Ms(s1 - s0).count();
        stages[1] += Ms(s2 - s1).count();
        stages[2] += Ms(s3 - s2).count();
        stages[3] += Ms(Clock::now() - s3).count();
      }
    }
  };

  constexpr int kReps = 5;
  std::vector<double> per_die_runs, batched_runs;
  std::vector<std::array<double, 4>> stage_runs;

  for (int rep = 0; rep < kReps; ++rep) {
    // Per-die path: what LotCampaign's per-die rigs pay per die --
    // pattern build + freeze + symbolic analysis + pivoting refactor +
    // solve, from scratch every time.
    const auto t0 = Clock::now();
    for (int die = 0; die < kGateDies; ++die) {
      linalg::SparseMatrix m(n, n);
      const double* v = &vals[static_cast<std::size_t>(die) * sys.nnz()];
      for (std::size_t s = 0; s < sys.nnz(); ++s)
        m.add(sys.row[s], sys.col[s], v[s]);
      m.freeze_pattern();
      linalg::SparseLuFactorization lu;
      lu.refactor(m);
      linalg::Vector b(n, 1.0);
      lu.solve_in_place(b);
      for (std::size_t i = 0; i < n; ++i)
        x_per_die[static_cast<std::size_t>(die) * n + i] = b[i];
    }
    per_die_runs.push_back(ms_since(t0));

    std::array<double, 4> stages{};
    const auto t1 = Clock::now();
    run_batched(x_batched, stages.data());
    batched_runs.push_back(ms_since(t1));
    stage_runs.push_back(stages);
  }

  SolverTimings out;
  std::sort(per_die_runs.begin(), per_die_runs.end());
  std::sort(batched_runs.begin(), batched_runs.end());
  out.per_die_ms = per_die_runs[per_die_runs.size() / 2];
  out.batched_ms = batched_runs[batched_runs.size() / 2];
  auto stage_median = [&](std::size_t s) {
    std::vector<double> v;
    for (const auto& r : stage_runs) v.push_back(r[s]);
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.stamp_ms = stage_median(0);
  out.refactor_ms = stage_median(1);
  out.solve_ms = stage_median(2);
  out.reduce_ms = stage_median(3);
  out.bit_identical = x_per_die == x_batched;  // exact, every die
  return out;
}

struct CampaignTimings {
  double per_die_ms = 0.0;
  double batched_ms = 0.0;
  bool summary_bit_identical = false;
  unsigned threads = 0;
};

/// Run the real 1000-die campaign batched (LotCampaign::run) and per die
/// (run_die over the same dies, one die per claim on the same thread
/// count), and bit-compare the LotSummary.
CampaignTimings time_campaign() {
  lab::LotCampaignConfig cfg;
  cfg.samples = kGateDies;
  cfg.seed_base = 9000;
  const lab::LotCampaign campaign(lab::SiliconLot{}, cfg);

  CampaignTimings out;
  out.threads = common::resolve_thread_count(0);

  // Best of two runs per path: one 1000-die campaign is long enough to
  // catch scheduler noise, and the faster run is the truer cost.
  std::vector<lab::DieCharacterisation> dies_ref(kGateDies);
  out.per_die_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = Clock::now();
    std::atomic<int> next{0};
    common::fan_out(out.threads, [&] {
      for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                  kGateDies;) {
        dies_ref[static_cast<std::size_t>(i)] = campaign.run_die(i);
      }
    });
    out.per_die_ms = std::min(out.per_die_ms, ms_since(t0));
  }

  std::vector<lab::DieCharacterisation> dies_batched;
  out.batched_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto t1 = Clock::now();
    dies_batched = campaign.run();
    out.batched_ms = std::min(out.batched_ms, ms_since(t1));
  }

  const lab::LotSummary a = lab::LotCampaign::summarise(dies_ref);
  const lab::LotSummary b = lab::LotCampaign::summarise(dies_batched);
  auto stat_eq = [](const lab::LotStatistic& x, const lab::LotStatistic& y) {
    return x.count == y.count && x.mean == y.mean && x.stddev == y.stddev &&
           x.min == y.min && x.max == y.max && x.q10 == y.q10 &&
           x.q50 == y.q50 && x.q90 == y.q90;
  };
  out.summary_bit_identical =
      a.dies_ok == b.dies_ok && a.dies_failed == b.dies_failed &&
      stat_eq(a.eg_classical, b.eg_classical) &&
      stat_eq(a.eg_meijer, b.eg_meijer) &&
      stat_eq(a.xti_meijer, b.xti_meijer) &&
      stat_eq(a.delta_t1, b.delta_t1) && stat_eq(a.delta_t3, b.delta_t3);
  return out;
}

void write_gate_json(const SolverTimings& solver, bool solver_passed,
                     const CampaignTimings& campaign, bool campaign_passed,
                     const std::string& path) {
  const double solver_speedup =
      solver.batched_ms > 0.0 ? solver.per_die_ms / solver.batched_ms : 0.0;
  const double campaign_speedup =
      campaign.batched_ms > 0.0 ? campaign.per_die_ms / campaign.batched_ms
                                : 0.0;
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_lot_statistics\",\n"
     << "  \"kernel\": \"batched lot solver (one symbolic analysis, "
     << kGateLanes << " dies per refactor) vs per-die rebuild\",\n"
     << "  \"dies\": " << kGateDies << ",\n"
     << "  \"lanes\": " << kGateLanes << ",\n"
     << "  \"threads\": " << campaign.threads << ",\n"
     << "  \"simd\": " << (common::kSimdEnabled ? "true" : "false") << ",\n"
     << "  \"solver\": {\n"
     << "    \"per_die_ms\": " << solver.per_die_ms << ",\n"
     << "    \"batched_ms\": " << solver.batched_ms << ",\n"
     << "    \"speedup\": " << solver_speedup << ",\n"
     << "    \"gate\": " << kSolverSpeedupGate << ",\n"
     << "    \"stages_ms\": {\n"
     << "      \"stamp\": " << solver.stamp_ms << ",\n"
     << "      \"refactor\": " << solver.refactor_ms << ",\n"
     << "      \"solve\": " << solver.solve_ms << ",\n"
     << "      \"reduce\": " << solver.reduce_ms << "\n"
     << "    },\n"
     << "    \"bit_identical\": "
     << (solver.bit_identical ? "true" : "false") << ",\n"
     << "    \"passed\": " << (solver_passed ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"campaign\": {\n"
     << "    \"per_die_ms\": " << campaign.per_die_ms << ",\n"
     << "    \"batched_ms\": " << campaign.batched_ms << ",\n"
     << "    \"speedup\": " << campaign_speedup << ",\n"
     << "    \"gate\": " << kCampaignSpeedupGate << ",\n"
     << "    \"passed\": " << (campaign_passed ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"summary_bit_identical\": "
     << (campaign.summary_bit_identical ? "true" : "false") << "\n"
     << "}\n";
}

/// Returns false when any gate fails.
bool run_batched_gate() {
  bench::banner(
      "Batched lot solver gate: 1000 dies, one symbolic analysis, " +
      std::to_string(kGateLanes) + " dies per refactor");

  const SolverTimings solver = time_lot_solver();
  const double solver_speedup =
      solver.batched_ms > 0.0 ? solver.per_die_ms / solver.batched_ms : 0.0;
  const bool solver_passed =
      solver.bit_identical && solver_speedup >= kSolverSpeedupGate;

  const CampaignTimings campaign = time_campaign();
  const double campaign_speedup =
      campaign.batched_ms > 0.0 ? campaign.per_die_ms / campaign.batched_ms
                                : 0.0;
  const bool campaign_passed = campaign.summary_bit_identical &&
                               campaign_speedup >= kCampaignSpeedupGate;

  Table t({"path", "baseline [ms]", "batched [ms]", "speedup", "gate"});
  t.add_row({"lot solver (1000 dies)", format_sig(solver.per_die_ms, 4),
             format_sig(solver.batched_ms, 4),
             format_sig(solver_speedup, 3),
             ">= " + format_sig(kSolverSpeedupGate, 3)});
  t.add_row({"campaign end-to-end", format_sig(campaign.per_die_ms, 4),
             format_sig(campaign.batched_ms, 4),
             format_sig(campaign_speedup, 3),
             ">= " + format_sig(kCampaignSpeedupGate, 3)});
  bench::emit(t, "lot_batched_gate.csv");

  std::printf("solver: %.2fx (gate >= %.1fx), solutions bit-identical: %s "
              "-- %s\n",
              solver_speedup, kSolverSpeedupGate,
              solver.bit_identical ? "yes" : "NO",
              solver_passed ? "PASS" : "FAIL");
  std::printf("solver stages [ms]: stamp %.2f, refactor %.2f, solve %.2f, "
              "reduce %.2f\n",
              solver.stamp_ms, solver.refactor_ms, solver.solve_ms,
              solver.reduce_ms);
  std::printf("campaign: %.2fx (gate >= %.2fx, %u threads), LotSummary "
              "bit-identical: %s -- %s\n",
              campaign_speedup, kCampaignSpeedupGate, campaign.threads,
              campaign.summary_bit_identical ? "yes" : "NO",
              campaign_passed ? "PASS" : "FAIL");

  const std::string json_path = bench::results_dir() + "/BENCH_lot.json";
  write_gate_json(solver, solver_passed, campaign, campaign_passed,
                  json_path);
  std::printf("[json] %s\n", json_path.c_str());
  return solver_passed && campaign_passed;
}

void bm_one_sample_both_methods(benchmark::State& state) {
  lab::SiliconLot lot;
  int i = 0;
  for (auto _ : state) {
    lab::CampaignConfig cfg;
    cfg.seed = 9000 + static_cast<std::uint64_t>(++i);
    lab::Laboratory laboratory(lot.sample(i % 25), cfg);
    const auto sweep = laboratory.test_cell_sweep({-25.0, 25.0, 75.0});
    benchmark::DoNotOptimize(
        extract::meijer_from_cell(sweep, -25.0, 25.0, 75.0));
  }
}
BENCHMARK(bm_one_sample_both_methods)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_lot_study();
  const bool gate_passed = run_batched_gate();
  const int bench_rc = icvbe::bench::run_benchmarks(argc, argv);
  return gate_passed ? bench_rc : 1;
}
