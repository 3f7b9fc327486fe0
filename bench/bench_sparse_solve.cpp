// The sparse linear engine against a dense LU on generated netlists.
//
// Stage 1 (reproduction-style report): for each topology/size, stamp the
// MNA system at its solved DC operating point and time the
// refactor+solve every Newton iteration runs, on the sparse engine and on
// linalg::LuFactorization of the same system (to_dense()). Prints the
// crossover and records the study in results/BENCH_sparse.json (plus the
// usual CSV).
//
// Stage 2 (ordering A/B): legacy set-based minimum degree vs the AMD +
// BTF default (SparseOptions) at 1000-node ladder/mesh --
// symbolic-analysis time, steady refactor+solve time, and factor fill.
// Gate: the new default's steady refactor+solve is no slower than legacy
// within 1.25x noise slack.
//
// Stage 3 (stress, ICVBE_SPARSE_STRESS=1): single-shot analysis timing at
// a 10k-node grid (gate: AMD symbolic analysis >= 10x faster than legacy)
// plus an AMD-only 1e5-node clock-tree row. CI runs this in the
// sparse-stress job and uploads results/BENCH_sparse.json.
//
// Stage 4: google-benchmark timings of the same kernels plus a full
// session-level DC solve on the sparse path.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/stamper.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

/// One circuit's MNA system, stamped at its converged operating point --
/// exactly the matrix a Newton iteration hands to the linear engine.
struct StampedSystem {
  std::unique_ptr<spice::Circuit> circuit;
  int unknowns = 0;
  linalg::SparseMatrix sparse;
  linalg::Vector rhs;
};

StampedSystem make_system(spice::SyntheticTopology topology, int nodes,
                          std::uint64_t seed = 42) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = topology;
  spec.nodes = nodes;
  spec.seed = seed;
  auto parsed = spice::parse_netlist(spice::generate_netlist(spec));

  StampedSystem out;
  out.circuit = std::move(parsed.circuit);
  spice::SimSession session(*out.circuit);
  const spice::Unknowns& x = session.solve_or_throw();
  const int n = session.unknown_count();
  const int node_unknowns = out.circuit->node_count() - 1;
  out.unknowns = n;

  const auto un = static_cast<std::size_t>(n);
  out.rhs.assign(un, 0.0);
  out.sparse.resize(un, un);
  {
    spice::Stamper st(out.sparse, out.rhs, node_unknowns);
    for (const auto& dev : out.circuit->devices()) dev->stamp(st, x);
    for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, 1e-12);
  }
  out.sparse.freeze_pattern();
  return out;
}

/// Microseconds per call, adaptively repeated to >= ~60 ms of work.
template <typename F>
double time_us(F&& f) {
  f();  // warm-up (first sparse refactor runs the symbolic analysis)
  int reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) f();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us >= 60000.0 || reps >= 1 << 20) return us / reps;
    reps *= 4;
  }
}

struct CrossoverRow {
  std::string topology;
  int nodes = 0;
  int unknowns = 0;
  double dense_us = 0.0;
  double sparse_us = 0.0;
  std::size_t factor_nnz = 0;
};

std::vector<CrossoverRow> run_crossover_study() {
  std::vector<CrossoverRow> rows;
  const int sizes[] = {16, 32, 48, 64, 100, 200, 500, 1000};
  for (auto topology : {spice::SyntheticTopology::kDiodeLadder,
                        spice::SyntheticTopology::kMesh}) {
    for (int nodes : sizes) {
      StampedSystem sys = make_system(topology, nodes);
      const auto un = static_cast<std::size_t>(sys.unknowns);
      linalg::Vector x(un);

      const linalg::Matrix dense = sys.sparse.to_dense();
      linalg::LuFactorization dlu;
      const double dense_us = time_us([&] {
        dlu.refactor(dense);
        x = sys.rhs;
        dlu.solve_in_place(x);
      });
      linalg::SparseLuFactorization slu;
      const double sparse_us = time_us([&] {
        slu.refactor(sys.sparse);
        x = sys.rhs;
        slu.solve_in_place(x);
      });

      CrossoverRow row;
      row.topology = spice::topology_name(topology);
      row.nodes = nodes;
      row.unknowns = sys.unknowns;
      row.dense_us = dense_us;
      row.sparse_us = sparse_us;
      row.factor_nnz = slu.factor_nonzeros();
      rows.push_back(row);
    }
  }
  return rows;
}

// ------------------------------------------------ ordering A/B (stage 2) --

struct OrderingRow {
  std::string topology;
  int nodes = 0;
  int unknowns = 0;
  double legacy_analysis_us = 0.0;
  double amd_analysis_us = 0.0;
  double legacy_steady_us = 0.0;
  double amd_steady_us = 0.0;
  std::size_t legacy_nnz = 0;
  std::size_t amd_nnz = 0;
};

/// Measure one ordering on one stamped system: steady refactor+solve and
/// symbolic-analysis cost (fresh analyze+refactor minus the steady
/// refactor, clamped at zero -- isolates the symbolic work).
void measure_ordering(const StampedSystem& sys,
                      const linalg::SparseOptions& opts, double& analysis_us,
                      double& steady_us, std::size_t& nnz) {
  linalg::SparseLuFactorization f;
  f.set_options(opts);
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  steady_us = time_us([&] {
    f.refactor(sys.sparse);
    x = sys.rhs;
    f.solve_in_place(x);
  });
  const double fresh_us = time_us([&] {
    f.invalidate_analysis();
    f.refactor(sys.sparse);
  });
  analysis_us = std::max(0.0, fresh_us - steady_us);
  nnz = f.factor_nonzeros();
}

std::vector<OrderingRow> run_ordering_study() {
  std::vector<OrderingRow> rows;
  for (auto topology : {spice::SyntheticTopology::kResistorLadder,
                        spice::SyntheticTopology::kMesh}) {
    OrderingRow row;
    row.topology = spice::topology_name(topology);
    row.nodes = 1000;
    StampedSystem sys = make_system(topology, row.nodes);
    row.unknowns = sys.unknowns;
    measure_ordering(sys, linalg::SparseOptions::legacy(),
                     row.legacy_analysis_us, row.legacy_steady_us,
                     row.legacy_nnz);
    measure_ordering(sys, linalg::SparseOptions{}, row.amd_analysis_us,
                     row.amd_steady_us, row.amd_nnz);
    rows.push_back(row);
  }
  return rows;
}

// ------------------------------------------------ stress gate (stage 3) --

bool stress_enabled() {
  const char* v = std::getenv("ICVBE_SPARSE_STRESS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

struct StressReport {
  bool ran = false;
  int grid_unknowns = 0;
  double grid_legacy_analysis_us = 0.0;
  double grid_amd_analysis_us = 0.0;
  std::size_t grid_legacy_nnz = 0;
  std::size_t grid_amd_nnz = 0;
  int tree_unknowns = 0;
  double tree_amd_analysis_us = 0.0;
  double tree_amd_steady_us = 0.0;
  std::size_t tree_amd_nnz = 0;
};

/// Single-shot analyze+refactor timing (the legacy ordering at 10k nodes
/// is way too slow for the adaptive repeat loop).
double single_shot_us(linalg::SparseLuFactorization& f,
                      const linalg::SparseMatrix& m) {
  const auto t0 = Clock::now();
  f.invalidate_analysis();
  f.refactor(m);
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

StressReport run_stress_study() {
  StressReport rep;
  rep.ran = true;

  // 10k-node grid: legacy vs AMD, analysis isolated by subtracting one
  // steady refactor from the fresh analyze+refactor shot.
  {
    StampedSystem sys = make_system(spice::SyntheticTopology::kGrid, 10000);
    rep.grid_unknowns = sys.unknowns;
    linalg::SparseLuFactorization leg;
    leg.set_options(linalg::SparseOptions::legacy());
    const double leg_fresh = single_shot_us(leg, sys.sparse);
    const auto t0 = Clock::now();
    leg.refactor(sys.sparse);
    const double leg_steady =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    rep.grid_legacy_analysis_us = std::max(0.0, leg_fresh - leg_steady);
    rep.grid_legacy_nnz = leg.factor_nonzeros();

    linalg::SparseLuFactorization amd;
    const double amd_fresh = single_shot_us(amd, sys.sparse);
    const auto t1 = Clock::now();
    amd.refactor(sys.sparse);
    const double amd_steady =
        std::chrono::duration<double, std::micro>(Clock::now() - t1).count();
    rep.grid_amd_analysis_us = std::max(1.0, amd_fresh - amd_steady);
    rep.grid_amd_nnz = amd.factor_nonzeros();
  }

  // 1e5-node clock tree: AMD-only (legacy would take minutes); the tree
  // pattern has near-zero fill under a good ordering, so nnz is the
  // quality check here.
  {
    StampedSystem sys =
        make_system(spice::SyntheticTopology::kClockTree, 100000);
    rep.tree_unknowns = sys.unknowns;
    linalg::SparseLuFactorization amd;
    const double fresh = single_shot_us(amd, sys.sparse);
    linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
    const auto t0 = Clock::now();
    amd.refactor(sys.sparse);
    x = sys.rhs;
    amd.solve_in_place(x);
    rep.tree_amd_steady_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    rep.tree_amd_analysis_us = std::max(0.0, fresh - rep.tree_amd_steady_us);
    rep.tree_amd_nnz = amd.factor_nonzeros();
  }
  return rep;
}

/// Smallest unknown count from which the sparse engine stays ahead. When
/// sparse wins every measured size (the usual outcome), this reports the
/// smallest size measured -- the true crossover is at or below it.
int crossover_unknowns(const std::vector<CrossoverRow>& rows) {
  int crossover = 0;
  int smallest = 0;
  for (const CrossoverRow& r : rows) {
    smallest = smallest == 0 ? r.unknowns : std::min(smallest, r.unknowns);
    if (r.sparse_us > r.dense_us) {
      crossover = std::max(crossover, r.unknowns + 1);
    }
  }
  return crossover == 0 ? smallest : crossover;
}

void write_json(const std::vector<CrossoverRow>& rows, int crossover,
                const std::vector<OrderingRow>& ordering,
                const StressReport& stress, const std::string& path) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_sparse_solve\",\n"
     << "  \"kernel\": \"MNA refactor+solve per Newton iteration\",\n"
     << "  \"measured_crossover_unknowns\": " << crossover << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CrossoverRow& r = rows[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"nodes\": "
       << r.nodes << ", \"unknowns\": " << r.unknowns
       << ", \"dense_us\": " << r.dense_us
       << ", \"sparse_us\": " << r.sparse_us
       << ", \"speedup\": " << (r.dense_us / r.sparse_us)
       << ", \"factor_nnz\": " << r.factor_nnz << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"ordering_rows\": [\n";
  for (std::size_t i = 0; i < ordering.size(); ++i) {
    const OrderingRow& r = ordering[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"nodes\": "
       << r.nodes << ", \"unknowns\": " << r.unknowns
       << ", \"legacy_analysis_us\": " << r.legacy_analysis_us
       << ", \"amd_analysis_us\": " << r.amd_analysis_us
       << ", \"legacy_steady_us\": " << r.legacy_steady_us
       << ", \"amd_steady_us\": " << r.amd_steady_us
       << ", \"legacy_factor_nnz\": " << r.legacy_nnz
       << ", \"amd_factor_nnz\": " << r.amd_nnz << "}"
       << (i + 1 < ordering.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (stress.ran) {
    os << ",\n  \"stress\": {\n"
       << "    \"grid_10k\": {\"unknowns\": " << stress.grid_unknowns
       << ", \"legacy_analysis_us\": " << stress.grid_legacy_analysis_us
       << ", \"amd_analysis_us\": " << stress.grid_amd_analysis_us
       << ", \"analysis_speedup\": "
       << (stress.grid_legacy_analysis_us / stress.grid_amd_analysis_us)
       << ", \"legacy_factor_nnz\": " << stress.grid_legacy_nnz
       << ", \"amd_factor_nnz\": " << stress.grid_amd_nnz << "},\n"
       << "    \"clock_tree_100k\": {\"unknowns\": " << stress.tree_unknowns
       << ", \"amd_analysis_us\": " << stress.tree_amd_analysis_us
       << ", \"amd_refactor_solve_us\": " << stress.tree_amd_steady_us
       << ", \"amd_factor_nnz\": " << stress.tree_amd_nnz << "}\n"
       << "  }";
  }
  os << "\n}\n";
}

/// Returns false if the PR acceptance gate (>= 3x at >= 500 nodes) is
/// missed, which fails the bench binary -- the sparse-stress CI job runs
/// it, so a kernel regression cannot slip through as a green build.
[[nodiscard]] bool report() {
  bench::banner(
      "Dense vs sparse refactor+solve on generated netlists (us/iteration)");
  const std::vector<CrossoverRow> rows = run_crossover_study();

  Table t({"topology", "nodes", "unknowns", "dense [us]", "sparse [us]",
           "speedup", "factor nnz"});
  for (const CrossoverRow& r : rows) {
    t.add_row({r.topology, std::to_string(r.nodes),
               std::to_string(r.unknowns), format_sig(r.dense_us, 4),
               format_sig(r.sparse_us, 4),
               format_sig(r.dense_us / r.sparse_us, 3),
               std::to_string(r.factor_nnz)});
  }
  bench::emit(t, "sparse_crossover.csv");

  const int crossover = crossover_unknowns(rows);
  std::printf(
      "\nmeasured crossover: sparse wins from <= %d unknowns on the "
      "refactor+solve kernel.\n",
      crossover);

  // Crossover gate: >= 3x on a >= 500-node netlist.
  bool gate_ok = true;
  for (const CrossoverRow& r : rows) {
    if (r.nodes >= 500 && r.dense_us < 3.0 * r.sparse_us) {
      std::printf("GATE FAILED: %s/%d speedup %.2fx below the 3x target\n",
                  r.topology.c_str(), r.nodes, r.dense_us / r.sparse_us);
      gate_ok = false;
    }
  }

  // Stage 2: ordering A/B. Gate: the AMD+BTF default must not
  // slow the steady refactor+solve path at existing sizes (1.25x slack
  // absorbs timer noise on shared runners).
  bench::banner("Ordering A/B: legacy min-degree vs AMD+BTF");
  const std::vector<OrderingRow> ordering = run_ordering_study();
  Table ot({"topology", "unknowns", "legacy analysis [us]", "amd analysis [us]",
            "legacy steady [us]", "amd steady [us]", "legacy nnz", "amd nnz"});
  for (const OrderingRow& r : ordering) {
    ot.add_row({r.topology, std::to_string(r.unknowns),
                format_sig(r.legacy_analysis_us, 4),
                format_sig(r.amd_analysis_us, 4),
                format_sig(r.legacy_steady_us, 4),
                format_sig(r.amd_steady_us, 4), std::to_string(r.legacy_nnz),
                std::to_string(r.amd_nnz)});
  }
  bench::emit(ot, "sparse_ordering.csv");
  for (const OrderingRow& r : ordering) {
    if (r.amd_steady_us > 1.25 * r.legacy_steady_us) {
      std::printf(
          "GATE FAILED: %s/%d AMD steady refactor+solve %.1f us vs legacy "
          "%.1f us (> 1.25x)\n",
          r.topology.c_str(), r.nodes, r.amd_steady_us, r.legacy_steady_us);
      gate_ok = false;
    }
  }

  // Stage 3: the 10k/100k stress gate, opt-in (ICVBE_SPARSE_STRESS=1) --
  // the legacy ordering alone costs ~seconds at 10k nodes.
  StressReport stress;
  if (stress_enabled()) {
    bench::banner("Symbolic stress gate (ICVBE_SPARSE_STRESS=1)");
    stress = run_stress_study();
    const double speedup =
        stress.grid_legacy_analysis_us / stress.grid_amd_analysis_us;
    std::printf(
        "grid 10k (%d unknowns): legacy analysis %.0f us, AMD analysis "
        "%.0f us -> %.1fx (gate >= 10x)\n"
        "  factor nnz: legacy %zu, AMD %zu\n"
        "clock-tree 100k (%d unknowns): AMD analysis %.0f us, "
        "refactor+solve %.0f us, factor nnz %zu\n",
        stress.grid_unknowns, stress.grid_legacy_analysis_us,
        stress.grid_amd_analysis_us, speedup, stress.grid_legacy_nnz,
        stress.grid_amd_nnz, stress.tree_unknowns,
        stress.tree_amd_analysis_us, stress.tree_amd_steady_us,
        stress.tree_amd_nnz);
    if (speedup < 10.0) {
      std::printf(
          "GATE FAILED: AMD symbolic analysis only %.1fx faster than legacy "
          "at the 10k grid (>= 10x required)\n",
          speedup);
      gate_ok = false;
    }
  } else {
    std::printf(
        "\n[stress] skipped (set ICVBE_SPARSE_STRESS=1 for the 10k-grid "
        "analysis gate and the 1e5 clock-tree row)\n");
  }

  const std::string json_path = bench::results_dir() + "/BENCH_sparse.json";
  write_json(rows, crossover, ordering, stress, json_path);
  std::printf("[json] %s\n", json_path.c_str());
  return gate_ok;
}

// ------------------------------------------- registered microbenchmarks --

void BM_DenseRefactorSolve(benchmark::State& state) {
  StampedSystem sys = make_system(spice::SyntheticTopology::kMesh,
                                  static_cast<int>(state.range(0)));
  const linalg::Matrix dense = sys.sparse.to_dense();
  linalg::LuFactorization lu;
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  lu.refactor(dense);
  for (auto _ : state) {
    lu.refactor(dense);
    x = sys.rhs;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseRefactorSolve)->Arg(100)->Arg(500);

void BM_SparseRefactorSolve(benchmark::State& state) {
  StampedSystem sys = make_system(spice::SyntheticTopology::kMesh,
                                  static_cast<int>(state.range(0)));
  linalg::SparseLuFactorization lu;
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  lu.refactor(sys.sparse);
  for (auto _ : state) {
    lu.refactor(sys.sparse);
    x = sys.rhs;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseRefactorSolve)->Arg(100)->Arg(500)->Arg(1000);

void BM_SparseSessionDcSolve(benchmark::State& state) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kMesh;
  spec.nodes = static_cast<int>(state.range(0));
  auto parsed = spice::parse_netlist(spice::generate_netlist(spec));
  spice::SimSession session(*parsed.circuit);
  auto& v1 = parsed.circuit->get<spice::VoltageSource>("V1");
  (void)session.solve_or_throw();
  double dv = 0.0;
  for (auto _ : state) {
    v1.set_value(5.0 + 0.01 * (dv = 0.01 - dv));  // nudge, stay warm
    const spice::DcResult& r = session.solve();
    benchmark::DoNotOptimize(r.converged);
  }
}
BENCHMARK(BM_SparseSessionDcSolve)->Arg(500)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  const bool gate_ok = report();
  const int rc = bench::run_benchmarks(argc, argv);
  return gate_ok ? rc : 1;
}
