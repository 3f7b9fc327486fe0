// SimSession solver throughput: the per-solve cost of the legacy
// free-function path (fresh circuit + fresh solver workspace per point,
// the idiom the lab drivers used before the session refactor) against one
// persistent SimSession (workspace reuse + warm-start continuation) on a
// 100-point temperature sweep of the Banba sub-1-V test cell.
//
// This binary links the icvbe_alloc_hook counting operator new/delete, so
// it also reports allocations per solve: the session path must be
// allocation-free in steady state.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/bandgap/banba_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

constexpr int kPoints = 100;

bandgap::BanbaCellParams nominal_banba() {
  const lab::SiliconLot lot;
  bandgap::BanbaCellParams p;
  p.qa_model = lot.truth().pnp;
  p.qb_model = lot.truth().pnp;
  p.pmos = bandgap::banba_default_pmos();
  return p;
}

std::vector<double> sweep_grid() {
  return spice::SweepGrid::linear(to_kelvin(-55.0), to_kelvin(125.0), kPoints)
      .points();
}

/// Legacy idiom: every point rebuilds the cell and solves with a one-shot
/// workspace (what lab::Laboratory did per chamber setting before the
/// session refactor).
std::vector<double> run_legacy(const bandgap::BanbaCellParams& p,
                               const std::vector<double>& temps) {
  std::vector<double> vref;
  vref.reserve(temps.size());
  for (double t : temps) {
    spice::Circuit c;
    const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
    vref.push_back(bandgap::solve_banba_at(c, h, p, t).vref);
  }
  return vref;
}

/// Session path: one circuit, one workspace, warm-started points. `vref`
/// is preallocated by the caller so the timed region stays heap-silent.
/// `reverse` sweeps the grid top-down -- repetitions alternate direction
/// (boustrophedon) so every point warm-starts from an adjacent one, as a
/// real chamber campaign would.
void run_session(const bandgap::BanbaCellParams& p,
                 const std::vector<double>& temps,
                 const bandgap::BanbaHandles& h, spice::SimSession& session,
                 std::vector<double>& vref, bool reverse) {
  vref.clear();
  const std::size_t n = temps.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = temps[reverse ? n - 1 - i : i];
    vref.push_back(bandgap::solve_banba_at(session, h, p, t).vref);
  }
  if (reverse) std::reverse(vref.begin(), vref.end());
}

void reproduce_throughput() {
  bench::banner(
      "Solver throughput: legacy per-solve path vs persistent SimSession "
      "(100-point temperature sweep, Banba sub-1-V cell)");

  const auto p = nominal_banba();
  const auto temps = sweep_grid();
  constexpr int kReps = 5;  // best-of-N to shrug off scheduler noise

  // --- legacy ---
  std::vector<double> vref_legacy;
  const std::uint64_t a0 = testing::allocation_count();
  double us_legacy = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    vref_legacy = run_legacy(p, temps);
    const auto t1 = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    us_legacy = rep == 0 ? us : std::min(us_legacy, us);
  }
  const std::uint64_t a1 = testing::allocation_count();

  // --- session (built + warmed once, like a real campaign) ---
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  (void)bandgap::solve_banba_at(session, h, p, temps.front());  // warm-up
  std::vector<double> vref_session;
  vref_session.reserve(temps.size());

  const std::uint64_t a2 = testing::allocation_count();
  double us_session = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t2 = Clock::now();
    run_session(p, temps, h, session, vref_session, rep % 2 != 0);
    const auto t3 = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t3 - t2).count();
    us_session = rep == 0 ? us : std::min(us_session, us);
  }
  const std::uint64_t a3 = testing::allocation_count();

  // --- agreement ---
  double max_dv = 0.0;
  for (int i = 0; i < kPoints; ++i) {
    max_dv = std::max(max_dv, std::abs(vref_legacy[static_cast<std::size_t>(
                                           i)] -
                                       vref_session[static_cast<std::size_t>(
                                           i)]));
  }

  const double solves_legacy = 1e6 * kPoints / us_legacy;
  const double solves_session = 1e6 * kPoints / us_session;
  const int total_solves = kReps * kPoints;

  Table t({"path", "time/solve [us]", "solves/sec", "allocs/solve"});
  t.add_row({"legacy free functions", format_fixed(us_legacy / kPoints, 1),
             format_fixed(solves_legacy, 0),
             format_fixed(static_cast<double>(a1 - a0) / total_solves, 1)});
  t.add_row({"SimSession (reused)", format_fixed(us_session / kPoints, 1),
             format_fixed(solves_session, 0),
             format_fixed(static_cast<double>(a3 - a2) / total_solves, 1)});
  bench::emit(t, "solver_throughput.csv");

  std::cout << "speedup: " << format_fixed(us_legacy / us_session, 2)
            << "x   max |dVREF| between paths: " << max_dv << " V\n";
  std::cout << "session steady-state allocations over " << total_solves
            << " solves: " << (a3 - a2) << "\n";
}

void bm_legacy_solve(benchmark::State& state) {
  const auto p = nominal_banba();
  double t = to_kelvin(25.0);
  for (auto _ : state) {
    spice::Circuit c;
    const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
    benchmark::DoNotOptimize(bandgap::solve_banba_at(c, h, p, t));
    t += 0.1;
  }
}
BENCHMARK(bm_legacy_solve)->Unit(benchmark::kMicrosecond);

void bm_plan_run_sweep(benchmark::State& state) {
  // Declarative path: the same 100-point temperature sweep expressed as an
  // AnalysisPlan and executed via SimSession::run (typed axis, compiled
  // probe, allocation-free per point). Apples-to-apples with
  // bm_session_solve x 100.
  const auto p = nominal_banba();
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  const auto temps = sweep_grid();
  (void)bandgap::solve_banba_at(session, h, p, temps.front());  // warm-up

  // Alternate sweep direction per repetition (boustrophedon, like
  // run_session): every point -- including the first of each run --
  // warm-starts from an adjacent temperature.
  spice::AnalysisPlan up;
  up.name = "banba_vref_sweep";
  up.options = opt;
  up.axes = {spice::SweepAxis::temperature_kelvin(spice::SweepGrid::list(
      temps))};
  up.probes = {spice::Probe::node_voltage(c.node_name(h.vref))};
  spice::AnalysisPlan down = up;
  down.axes = {spice::SweepAxis::temperature_kelvin(spice::SweepGrid::list(
      {temps.rbegin(), temps.rend()}))};

  bool reverse = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(reverse ? down : up));
    reverse = !reverse;
  }
  state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(bm_plan_run_sweep)->Unit(benchmark::kMillisecond);

void bm_session_solve(benchmark::State& state) {
  const auto p = nominal_banba();
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  (void)bandgap::solve_banba_at(session, h, p, to_kelvin(25.0));
  double t = to_kelvin(25.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bandgap::solve_banba_at(session, h, p, t));
    t += 0.1;
  }
}
BENCHMARK(bm_session_solve)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_throughput();
  return icvbe::bench::run_benchmarks(argc, argv);
}
