// AC small-signal sweep throughput: the session's sparse complex engine
// against a dense complex LU of the same system.
//
// Stage 1 (report): for generated rc-ladder decks of growing size, time
// the per-frequency-point solve_ac() kernel -- complex restamp + sparse LU
// refactor + solve, after its setup (the one symbolic analysis included
// in setup, exactly like a Newton loop's) -- and, as the dense
// reference, the same restamp through AcStamper into a dense complex
// matrix plus linalg::ComplexLuFactorization refactor + solve. Reports
// points/second, asserts the >= 3x sparse gate at >= 200 nodes, and
// records the study in results/BENCH_ac.json plus the usual CSV.
//
// Stage 2: google-benchmark timings of the same kernels plus a whole
// .AC plan run through SimSession::run.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/stamper.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

spice::ParsedNetlist make_ac_deck(int nodes, std::uint64_t seed = 42) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kRcLadder;
  spec.nodes = nodes;
  spec.seed = seed;
  spec.ac_analysis = true;
  return spice::parse_netlist(spice::generate_netlist(spec));
}

/// The dense reference of SimSession::solve_ac: the same complex system
/// about the same operating point, stamped through AcStamper into a dense
/// matrix and solved with linalg::ComplexLuFactorization. Storage is
/// allocated once; solve() reuses it.
class DenseAcSolver {
 public:
  explicit DenseAcSolver(spice::SimSession& session)
      : session_(session),
        op_(session.solve_or_throw()),
        node_unknowns_(session.circuit().node_count() - 1) {
    const auto n = static_cast<std::size_t>(session.unknown_count());
    a_.resize(n, n);
    b_.assign(n, linalg::Complex{});
  }

  const linalg::ComplexVector& solve(double omega) {
    a_.fill(linalg::Complex{});
    std::fill(b_.begin(), b_.end(), linalg::Complex{});
    spice::AcStamper st(a_, b_, node_unknowns_, omega);
    for (const auto& dev : session_.circuit().devices()) {
      dev->stamp_ac(st, op_);
    }
    for (int i = 0; i < node_unknowns_; ++i) {
      st.add_entry(i, i, linalg::Complex(session_.options().gmin_floor));
    }
    lu_.refactor(a_);
    lu_.solve_in_place(b_);
    return b_;
  }

 private:
  spice::SimSession& session_;
  spice::Unknowns op_;
  int node_unknowns_;
  linalg::ComplexMatrix a_;
  linalg::ComplexVector b_;
  linalg::ComplexLuFactorization lu_;
};

/// Mean microseconds per AC point of `solve_at(omega)` over the deck's
/// frequency grid, repeated until >= ~60 ms of work. One untimed call
/// first primes any setup (complex engine, symbolic analysis).
template <typename SolveAt>
double time_ac_point_us(SolveAt&& solve_at, const std::vector<double>& freqs) {
  (void)solve_at(2.0 * M_PI * freqs.front());
  int reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (double f : freqs) (void)solve_at(2.0 * M_PI * f);
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us >= 60000.0 || reps >= 1 << 16) {
      return us / (static_cast<double>(reps) *
                   static_cast<double>(freqs.size()));
    }
    reps *= 4;
  }
}

struct AcRow {
  int nodes = 0;
  int unknowns = 0;
  std::size_t points = 0;
  double dense_us = 0.0;
  double sparse_us = 0.0;
};

std::vector<AcRow> run_study() {
  std::vector<AcRow> rows;
  for (int nodes : {50, 100, 200, 500}) {
    AcRow row;
    row.nodes = nodes;
    auto parsed = make_ac_deck(nodes);
    const std::vector<double> freqs = parsed.plans.front().ac->frequencies();
    row.points = freqs.size();
    spice::SimSession session(*parsed.circuit);
    row.unknowns = session.unknown_count();
    DenseAcSolver dense(session);
    row.dense_us = time_ac_point_us(
        [&](double w) -> const auto& { return dense.solve(w); }, freqs);
    row.sparse_us = time_ac_point_us(
        [&](double w) -> const auto& { return session.solve_ac(w); }, freqs);
    rows.push_back(row);
  }
  return rows;
}

void write_json(const std::vector<AcRow>& rows, const std::string& path) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_ac\",\n"
     << "  \"kernel\": \"solve_ac per frequency point (restamp + complex "
        "refactor + solve)\",\n"
     << "  \"workload\": \"rc-ladder --ac, .AC DEC 10 10 100K\",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AcRow& r = rows[i];
    os << "    {\"nodes\": " << r.nodes << ", \"unknowns\": " << r.unknowns
       << ", \"points\": " << r.points
       << ", \"dense_us_per_point\": " << r.dense_us
       << ", \"sparse_us_per_point\": " << r.sparse_us
       << ", \"dense_points_per_sec\": " << 1e6 / r.dense_us
       << ", \"sparse_points_per_sec\": " << 1e6 / r.sparse_us
       << ", \"speedup\": " << (r.dense_us / r.sparse_us) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// Returns false if the acceptance gate (sparse >= 3x dense on a
/// >= 200-node AC ladder sweep) is missed; the sparse-stress CI job runs
/// this binary, so a complex-engine regression cannot slip through green.
[[nodiscard]] bool report() {
  bench::banner(
      "AC sweep throughput: dense complex LU vs the sparse engine "
      "(us/point)");
  const std::vector<AcRow> rows = run_study();

  Table t({"nodes", "unknowns", "points", "dense [us/pt]", "sparse [us/pt]",
           "dense [pt/s]", "sparse [pt/s]", "speedup"});
  for (const AcRow& r : rows) {
    t.add_row({std::to_string(r.nodes), std::to_string(r.unknowns),
               std::to_string(r.points), format_sig(r.dense_us, 4),
               format_sig(r.sparse_us, 4), format_sig(1e6 / r.dense_us, 4),
               format_sig(1e6 / r.sparse_us, 4),
               format_sig(r.dense_us / r.sparse_us, 3)});
  }
  bench::emit(t, "ac_sweep.csv");

  bool gate_ok = true;
  for (const AcRow& r : rows) {
    if (r.nodes >= 200 && r.dense_us < 3.0 * r.sparse_us) {
      std::printf("GATE FAILED: %d-node AC ladder speedup %.2fx below the "
                  "3x target\n",
                  r.nodes, r.dense_us / r.sparse_us);
      gate_ok = false;
    }
  }

  const std::string json_path = bench::results_dir() + "/BENCH_ac.json";
  write_json(rows, json_path);
  std::printf("[json] %s\n", json_path.c_str());
  return gate_ok;
}

// ------------------------------------------- registered microbenchmarks --

void BM_AcPointDense(benchmark::State& state) {
  auto parsed = make_ac_deck(static_cast<int>(state.range(0)));
  spice::SimSession session(*parsed.circuit);
  DenseAcSolver dense(session);
  double f = 10.0;
  for (auto _ : state) {
    f = f < 1e5 ? f * 1.2589254117941673 : 10.0;
    const auto& x = dense.solve(2.0 * M_PI * f);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_AcPointDense)->Arg(100)->Arg(200);

void BM_AcPointSparse(benchmark::State& state) {
  auto parsed = make_ac_deck(static_cast<int>(state.range(0)));
  spice::SimSession session(*parsed.circuit);
  (void)session.solve_or_throw();
  (void)session.solve_ac(2.0 * M_PI * 10.0);
  double f = 10.0;
  for (auto _ : state) {
    f = f < 1e5 ? f * 1.2589254117941673 : 10.0;
    const auto& x = session.solve_ac(2.0 * M_PI * f);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_AcPointSparse)->Arg(100)->Arg(200)->Arg(500);

void BM_AcPlanRun(benchmark::State& state) {
  auto parsed = make_ac_deck(static_cast<int>(state.range(0)));
  spice::SimSession session(*parsed.circuit);
  for (auto _ : state) {
    const spice::SweepResult r = session.run(parsed.plans.front());
    benchmark::DoNotOptimize(r.rows());
  }
}
BENCHMARK(BM_AcPlanRun)->Arg(200);

}  // namespace

int main(int argc, char** argv) {
  const bool gate_ok = report();
  const int rc = bench::run_benchmarks(argc, argv);
  return gate_ok ? rc : 1;
}
