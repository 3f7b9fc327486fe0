// grid_sweep and tree_load: one cold in-process `icvbe run` per op on a
// generated deck -- parse, SimSession, run(plan), CSV written to memory.
// grid_sweep is refactor-bound (a 10k-node linear grid, 7-point .DC);
// tree_load is set-up bound (a 1e5-node clock tree: parse, pattern sort,
// slot searches, node interning) and bypasses the refactor work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/device.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe_bench {
namespace {

using namespace icvbe;

struct DeckOutput {
  std::string csv;
  spice::SweepResult result;
};

/// One op: the CLI's `icvbe run <deck>` path in process. Set-up is the
/// parse + bind part. The op ends after every object is destroyed.
OpOutcome deck_op(const std::string& deck, Tracer& tracer, Record& rec,
                  DeckOutput& out) {
  const auto t0 = Clock::now();
  {
    ScopedSpan op_span(tracer, "op");
    spice::ParsedNetlist parsed;
    {
      ScopedSpan s(tracer, "netlist.parse");
      parsed = spice::parse_netlist(deck);
    }
    auto& c = *parsed.circuit;
    c.set_temperature(to_kelvin(parsed.temperature_celsius));
    std::optional<spice::SimSession> session;
    {
      ScopedSpan s(tracer, "session.bind");
      session.emplace(c);
    }
    if (!tracer.active()) rec.add_setup(ms_since(t0) / 1e3);
    spice::AnalysisPlan plan =
        *parsed.find_plan(spice::AnalysisKind::kDcSweep);
    plan.threads = 1;
    RowTimer rows(tracer);
    {
      ScopedSpan s(tracer, "plan.run");
      out.result = session->run(plan, tracer.active() ? &rows : nullptr);
    }
    std::ostringstream csv;
    {
      ScopedSpan s(tracer, "plan.csv");
      out.result.write_csv(csv);
    }
    out.csv = csv.str();
  }
  return {ms_since(t0), true};
}

/// The circuits are linear, so every probe is proportional to the swept
/// source: a seed-independent check of the solution.
bool linear_in_source(const spice::SweepResult& r) {
  for (std::size_t p = 0; p < r.probe_count(); ++p) {
    const double k0 = r.value(p, 0) / r.axis_value(0, 0);
    for (std::size_t row = 1; row < r.rows(); ++row) {
      const double k = r.value(p, row) / r.axis_value(0, row);
      if (!(std::abs(k - k0) <= 1e-9 * std::abs(k0))) return false;
    }
  }
  return r.rows() > 1;
}

/// Full-precision text of a result (the reference-file format).
std::string full_precision(const spice::SweepResult& r) {
  std::string out;
  char buf[64];
  for (std::size_t row = 0; row < r.rows(); ++row) {
    for (std::size_t a = 0; a < r.axis_count(); ++a) {
      std::snprintf(buf, sizeof buf, "%.17g,", r.axis_value(a, row));
      out += buf;
    }
    for (std::size_t p = 0; p < r.probe_count(); ++p) {
      std::snprintf(buf, sizeof buf, "%.17g", r.value(p, row));
      out += buf;
      out += p + 1 < r.probe_count() ? ',' : '\n';
    }
  }
  return out;
}

/// Compare against the default-seed reference within the 1e-10 relative
/// tolerance the sparse-equivalence tests state.
void check_reference(const Options& opt, const spice::SweepResult& r,
                     Record& rec) {
  const std::string path =
      opt.reference + "/" + opt.workload + ".seed1.csv";
  if (opt.record_reference) {
    std::ofstream(path) << full_precision(r);
    return;
  }
  std::ifstream in(path);
  if (!in) {
    rec.problem("missing reference " + path);
    return;
  }
  std::stringstream text;
  text << in.rdbuf();
  std::string cells = text.str();
  std::replace(cells.begin(), cells.end(), ',', ' ');
  std::istringstream values(cells);
  std::vector<double> want;
  for (double v = 0.0; values >> v;) want.push_back(v);
  std::vector<double> got;
  for (std::size_t row = 0; row < r.rows(); ++row) {
    for (std::size_t a = 0; a < r.axis_count(); ++a) {
      got.push_back(r.axis_value(a, row));
    }
    for (std::size_t p = 0; p < r.probe_count(); ++p) {
      got.push_back(r.value(p, row));
    }
  }
  if (got.size() != want.size()) {
    rec.problem("reference shape differs");
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= 1e-10 * std::abs(want[i]) + 1e-300)) {
      rec.problem("result differs from the default-seed reference");
      return;
    }
  }
}

void run_deck_workload(const Options& opt, spice::SyntheticTopology topology,
                       int nodes, Tracer& tracer, Record& rec) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = topology;
  spec.nodes = nodes;
  spec.seed = opt.seed;
  const std::string deck = spice::generate_netlist(spec);

  // The first op is the reference the steady ops must reproduce byte for
  // byte; it also faults in the allocator's pages. Its set-up sample is
  // dropped with it.
  DeckOutput first;
  (void)deck_op(deck, tracer, rec, first);
  rec.setup_s.clear();
  if (!linear_in_source(first.result)) {
    rec.problem("result is not proportional to the swept source");
  }
  if (opt.seed == 1) check_reference(opt, first.result, rec);

  DeckOutput out;
  steady_loop(opt, tracer, rec, [](int) {}, [&](int) {
    OpOutcome o = deck_op(deck, tracer, rec, out);
    o.ok = out.csv == first.csv;
    return o;
  });

  if (opt.trace) {
    tracer.set_active(true);
    for (int i = 0; i < 3; ++i) replay_mna(deck, tracer, rec);
    tracer.set_active(false);
    rec.counts["plan.rows"] = static_cast<double>(first.result.rows());
  }
}

}  // namespace

void replay_mna(const std::string& deck, Tracer& tracer, Record& rec) {
  ScopedSpan replay(tracer, "replay");
  spice::ParsedNetlist parsed;
  {
    ScopedSpan s(tracer, "netlist.parse");
    parsed = spice::parse_netlist(deck);
  }
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  int n = 0;
  {
    ScopedSpan s(tracer, "session.assign");
    n = c.assign_unknowns();
  }
  const int node_unknowns = c.node_count() - 1;
  const auto size = static_cast<std::size_t>(n);
  linalg::SparseMatrix a(size, size);
  linalg::Vector b(size, 0.0);
  const spice::Unknowns x(size);
  double adds = 0.0;
  {
    // Building-mode stamp of every device plus the gmin diagonal, then
    // the COO -> CSR compile: the session's pattern discovery.
    ScopedSpan s(tracer, "devices.pattern");
    spice::Stamper st(a, b, node_unknowns);
    for (const auto& dev : c.devices()) dev->stamp(st, x);
    for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, 0.0);
    adds = static_cast<double>(a.nonzeros());  // one COO entry per add
    ScopedSpan f(tracer, "linalg.freeze_pattern");
    a.freeze_pattern();
  }
  for (const auto& dev : c.devices()) dev->reset_state();
  {
    ScopedSpan s(tracer, "devices.stamp");
    a.fill(0.0);
    std::fill(b.begin(), b.end(), 0.0);
    spice::Stamper st(a, b, node_unknowns);
    for (const auto& dev : c.devices()) dev->stamp(st, x);
    for (int i = 0; i < node_unknowns; ++i) {
      st.add_entry(i, i, spice::NewtonOptions{}.gmin_floor);
    }
  }
  linalg::SparseLuFactorization lu;
  lu.set_options(spice::NewtonOptions{}.sparse_options);
  {
    ScopedSpan s(tracer, "linalg.analyze");
    lu.refactor(a);
  }
  {
    ScopedSpan s(tracer, "linalg.refactor");
    lu.refactor(a);
  }
  linalg::Vector rhs = b;
  {
    ScopedSpan s(tracer, "linalg.solve");
    lu.solve_in_place(rhs);
  }
  for (double v : rhs) {
    if (!std::isfinite(v)) {
      rec.problem("replayed MNA solve is not finite");
      break;
    }
  }
  rec.counts["netlist.devices"] = static_cast<double>(c.devices().size());
  rec.counts["session.unknowns"] = static_cast<double>(n);
  rec.counts["devices.adds"] = adds;
  rec.counts["linalg.matrix_nnz"] = static_cast<double>(a.nonzeros());
  rec.counts["linalg.factor_nnz"] = static_cast<double>(lu.factor_nonzeros());
  rec.counts["linalg.btf_blocks"] = static_cast<double>(lu.btf_block_count());
  rec.counts["linalg.supernode_cols"] =
      static_cast<double>(lu.supernode_size());
  rec.counts["linalg.analyses"] = static_cast<double>(lu.analysis_count());
}

void run_grid_sweep(const Options& opt, Tracer& tracer, Record& rec) {
  run_deck_workload(opt, spice::SyntheticTopology::kGrid, 10000, tracer, rec);
}

void run_tree_load(const Options& opt, Tracer& tracer, Record& rec) {
  run_deck_workload(opt, spice::SyntheticTopology::kClockTree, 100000, tracer,
                    rec);
}

}  // namespace icvbe_bench
