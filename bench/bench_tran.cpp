// Transient startup-settling throughput on generated RC-ladder decks.
//
// Stage 1 (report): for each ladder size, run the deck's full .TRAN
// startup settling (PULSE supply step into an n-stage RC line) with the
// adaptive trapezoidal controller, and record
// wall time, accepted/rejected steps, Newton iterations, the sparse LU's
// refactor counters (full / partial / skipped passes and pivot steps
// replayed, over the whole run including its DC operating point), and
// timestep throughput into results/BENCH_tran.json (plus the usual CSV),
// with the build and machine it ran on. One more
// row runs a 200-stage ladder loaded by a diode-connected PNP -- the
// paper's IC(VBE) cell shape, where only the load's stamp depends on the
// Newton iterate. Every row is a report, not a gate.
//
// Stage 2: google-benchmark timings of the bare TransientSolver::advance()
// stepping kernel (the allocation-free inner loop) for both integration
// methods.

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/common/simd.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/transient.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

spice::ParsedNetlist make_ladder(int nodes, std::uint64_t seed = 42) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kRcLadder;
  spec.nodes = nodes;
  spec.seed = seed;
  return spice::parse_netlist(spice::generate_netlist(spec));
}

/// A 200-stage RC ladder whose far end is loaded by a diode-connected
/// PNP, stepped by a supply pulse.
spice::ParsedNetlist make_pnp_loaded_ladder() {
  constexpr int kStages = 200;
  std::ostringstream d;
  d << "V1 n0 0 PULSE(1 0.5 0 10u 10u 200u 400u)\n";
  for (int k = 1; k <= kStages; ++k) {
    d << "R" << k << " n" << k - 1 << " n" << k << " " << 90 + (k * 37) % 21
      << "\nC" << k << " n" << k << " 0 100p\n";
  }
  d << "Q1 0 0 n" << kStages << " PMOD\n"
    << ".MODEL PMOD PNP (IS=1e-16 BF=50)\n"
    << ".TRAN 5u 500u\n.PROBE V(n" << kStages << ")\n.END\n";
  return spice::parse_netlist(d.str());
}

struct SettleRow {
  std::string load = "none";
  int nodes = 0;
  int unknowns = 0;
  double wall_ms = 0.0;
  long accepted = 0;
  long rejected = 0;
  long newton_iterations = 0;
  linalg::RefactorStats refactors;
  [[nodiscard]] double steps_per_second() const {
    return wall_ms > 0.0 ? 1e3 * static_cast<double>(accepted) / wall_ms
                         : 0.0;
  }
};

SettleRow run_settling(spice::ParsedNetlist parsed, int nodes) {
  parsed.circuit->set_temperature(273.15 + parsed.temperature_celsius);
  spice::SimSession session(*parsed.circuit);
  spice::TransientSolver solver(session, *parsed.plans.front().transient);
  solver.begin();
  const auto t0 = Clock::now();
  while (solver.advance()) {
  }
  const auto t1 = Clock::now();
  SettleRow row;
  row.nodes = nodes;
  row.unknowns = session.unknown_count();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.accepted = solver.steps_accepted();
  row.rejected = solver.steps_rejected();
  row.newton_iterations = solver.newton_iterations();
  row.refactors = session.sparse_lu().refactor_stats();
  return row;
}

/// First "model name" line of /proc/cpuinfo ("unknown" elsewhere).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void write_json(const std::vector<SettleRow>& rows, const std::string& path) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_tran\",\n"
     << "  \"kernel\": \"adaptive trapezoidal .TRAN startup settling on "
        "generated RC-ladder decks, and on a 200-stage ladder loaded by a "
        "diode-connected PNP\",\n"
     << "  \"environment\": {\"compiler\": \"" << __VERSION__
#ifdef NDEBUG
     << "\", \"optimized\": true"
#else
     << "\", \"optimized\": false"
#endif
     << ", \"simd\": " << (common::kSimdEnabled ? "true" : "false")
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << cpu_model() << "\"},\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SettleRow& r = rows[i];
    os << "    {\"load\": \"" << r.load << "\", \"nodes\": " << r.nodes
       << ", \"unknowns\": " << r.unknowns
       << ", \"wall_ms\": " << r.wall_ms << ", \"steps\": " << r.accepted
       << ", \"rejected\": " << r.rejected
       << ", \"newton_iterations\": " << r.newton_iterations
       << ", \"refactors\": {\"full\": " << r.refactors.full
       << ", \"partial\": " << r.refactors.partial
       << ", \"skipped\": " << r.refactors.skipped
       << ", \"steps_replayed\": " << r.refactors.steps_replayed << "}"
       << ", \"steps_per_s\": " << r.steps_per_second() << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void report() {
  bench::banner(
      "Transient startup settling on generated RC ladders (.TRAN, "
      "adaptive trapezoidal)");
  std::vector<SettleRow> rows;
  const int sizes[] = {20, 50, 100, 200};
  for (int nodes : sizes) {
    rows.push_back(run_settling(make_ladder(nodes), nodes));
  }
  rows.push_back(run_settling(make_pnp_loaded_ladder(), 200));
  rows.back().load = "pnp";

  Table t({"load", "nodes", "unknowns", "wall [ms]", "steps", "rejected",
           "newton iters", "full", "partial", "skipped", "replayed",
           "steps/s"});
  for (const SettleRow& r : rows) {
    t.add_row({r.load, std::to_string(r.nodes), std::to_string(r.unknowns),
               format_sig(r.wall_ms, 4),
               std::to_string(r.accepted), std::to_string(r.rejected),
               std::to_string(r.newton_iterations),
               std::to_string(r.refactors.full),
               std::to_string(r.refactors.partial),
               std::to_string(r.refactors.skipped),
               std::to_string(r.refactors.steps_replayed),
               format_sig(r.steps_per_second(), 4)});
  }
  bench::emit(t, "tran_settling.csv");

  const std::string json_path = bench::results_dir() + "/BENCH_tran.json";
  write_json(rows, json_path);
  std::printf("[json] %s\n", json_path.c_str());
}

// ------------------------------------------- registered microbenchmarks --

void bm_advance(benchmark::State& state, spice::IntegrationMethod method) {
  auto parsed = make_ladder(static_cast<int>(state.range(0)));
  spice::SimSession session(*parsed.circuit);
  spice::TransientSpec spec = *parsed.plans.front().transient;
  spec.method = method;
  spec.tstop *= 1e3;  // effectively unbounded: the loop below sets the pace
  spice::TransientSolver solver(session, spec);
  solver.begin();
  for (int i = 0; i < 20; ++i) {
    if (!solver.advance()) break;  // warm-up past breakpoints/analysis
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.advance());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TransientAdvanceBE(benchmark::State& state) {
  bm_advance(state, spice::IntegrationMethod::kBackwardEuler);
}
BENCHMARK(BM_TransientAdvanceBE)->Arg(50);

void BM_TransientAdvanceTrap(benchmark::State& state) {
  bm_advance(state, spice::IntegrationMethod::kTrapezoidal);
}
BENCHMARK(BM_TransientAdvanceTrap)->Arg(50)->Arg(200);

}  // namespace

int main(int argc, char** argv) {
  report();
  return icvbe::bench::run_benchmarks(argc, argv);
}
