// Dense-vs-sparse equivalence and stress harness over generated synthetic
// netlists (spice/netlist_gen.hpp): the sessions' sparse CSR engine must
// reproduce a dense LU reference (dense_oracle.hpp) to <= 1e-10 across DC
// solves and full analysis plans, stay allocation-free per point (this
// binary links icvbe_alloc_hook), and keep the plan contract's
// bit-identical parallel fanout.
//
// Default sizes keep the suite inside the ordinary ctest budget; set
// ICVBE_SPARSE_STRESS=1 (the Release CI job does) to add the large
// configurations.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

#include "dense_oracle.hpp"

namespace icvbe::spice {
namespace {

constexpr double kAgreeTol = 1e-10;

bool stress_enabled() {
  const char* env = std::getenv("ICVBE_SPARSE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Newton tolerances tight enough that the session and the dense oracle
/// converge to within ~1e-12 of the true operating point: at the default
/// reltol=1e-6 each would legitimately stop microvolts from the root (and
/// from each other), drowning the 1e-10 comparison in solver slack. The
/// absolute floors stay above the ~3e-12 iterate noise of a 500-unknown
/// solve, or convergence would be unreachable.
NewtonOptions tight_options() {
  NewtonOptions opt;
  opt.v_abstol = 1e-11;
  opt.i_abstol = 1e-14;
  opt.reltol = 1e-12;
  return opt;
}

struct EquivalenceCase {
  SyntheticTopology topology;
  int nodes;
};

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> cases = {
      {SyntheticTopology::kResistorLadder, 50},
      {SyntheticTopology::kResistorLadder, 500},
      {SyntheticTopology::kDiodeLadder, 50},
      {SyntheticTopology::kDiodeLadder, 200},
      {SyntheticTopology::kBjtLadder, 50},
      {SyntheticTopology::kBjtLadder, 200},
      {SyntheticTopology::kMesh, 100},
      {SyntheticTopology::kMesh, 500},
      {SyntheticTopology::kGrid, 400},
      {SyntheticTopology::kClockTree, 300},
  };
  if (stress_enabled()) {
    cases.push_back({SyntheticTopology::kResistorLadder, 2000});
    cases.push_back({SyntheticTopology::kDiodeLadder, 1000});
    cases.push_back({SyntheticTopology::kMesh, 1000});
    cases.push_back({SyntheticTopology::kGrid, 2500});
    cases.push_back({SyntheticTopology::kClockTree, 4000});
  }
  return cases;
}

std::string case_name(const EquivalenceCase& c) {
  return std::string(topology_name(c.topology)) + "/" +
         std::to_string(c.nodes);
}

ParsedNetlist parse_case(const EquivalenceCase& c, std::uint64_t seed = 42) {
  SyntheticNetlistSpec spec;
  spec.topology = c.topology;
  spec.nodes = c.nodes;
  spec.seed = seed;
  return parse_netlist(generate_netlist(spec));
}

TEST(SparseEquivalence, DcOperatingPointMatchesDense) {
  for (const EquivalenceCase& c : equivalence_cases()) {
    SCOPED_TRACE(case_name(c));
    auto dense_deck = parse_case(c);
    auto sparse_deck = parse_case(c);

    oracle::DenseOracle dense(*dense_deck.circuit, tight_options());
    SimSession sparse(*sparse_deck.circuit, tight_options());

    const Unknowns& xd = dense.solve();
    const Unknowns& xs = sparse.solve_or_throw();
    ASSERT_EQ(xd.size(), xs.size());
    for (std::size_t i = 0; i < xd.size(); ++i) {
      EXPECT_NEAR(xd.raw()[i], xs.raw()[i], kAgreeTol)
          << "unknown " << i << " of " << xd.size();
    }
  }
}

TEST(SparseEquivalence, DeckPlanColumnsMatchDense) {
  for (const EquivalenceCase& c : equivalence_cases()) {
    SCOPED_TRACE(case_name(c));
    auto dense_deck = parse_case(c);
    auto sparse_deck = parse_case(c);
    ASSERT_FALSE(dense_deck.plans.empty());

    const AnalysisPlan& plan = dense_deck.plans.front();
    SimSession sparse(*sparse_deck.circuit, tight_options());
    const SweepResult rs = sparse.run(plan);

    // The reference walks the same single source axis point by point.
    ASSERT_EQ(plan.axes.size(), 1u);
    ASSERT_EQ(plan.axes[0].kind(), SweepAxis::Kind::kVsource);
    auto& source =
        dense_deck.circuit->get<VoltageSource>(plan.axes[0].device());
    oracle::DenseOracle dense(*dense_deck.circuit, tight_options());
    ASSERT_EQ(rs.rows(), rs.inner_values().size());
    for (std::size_t r = 0; r < rs.rows(); ++r) {
      source.set_value(rs.inner_values()[r]);
      const Unknowns& xd = dense.solve();
      for (std::size_t p = 0; p < rs.probe_count(); ++p) {
        EXPECT_NEAR(plan.probes[p].eval(*dense_deck.circuit, xd),
                    rs.value(p, r), kAgreeTol)
            << "probe " << p << " row " << r;
      }
    }
  }
}

TEST(SparseEquivalence, TwoAxisPlanBitIdenticalAcrossThreadCounts) {
  // The plan contract (test_plan) on the sparse path: outer rows fanned
  // across per-thread clones must produce bit-identical columns for any
  // thread count.
  const EquivalenceCase c{SyntheticTopology::kDiodeLadder, 200};
  AnalysisPlan plan;
  plan.name = "sparse-fanout";
  plan.axes.push_back(
      SweepAxis::temperature_celsius(SweepGrid::list({0.0, 27.0, 75.0})));
  plan.axes.push_back(
      SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 11)));
  plan.probes.push_back(parse_probe("V(n200)"));
  plan.probes.push_back(parse_probe("I(V1)"));

  std::vector<SweepResult> results;
  for (unsigned threads : {1u, 2u, 4u}) {
    auto deck = parse_case(c);
    deck.circuit->set_temperature(300.15);
    plan.threads = threads;
    SimSession session(*deck.circuit, tight_options());
    results.push_back(session.run(plan));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    for (std::size_t p = 0; p < results[0].probe_count(); ++p) {
      for (std::size_t r = 0; r < results[0].rows(); ++r) {
        EXPECT_EQ(results[0].value(p, r), results[v].value(p, r))
            << "thread variant " << v << " probe " << p << " row " << r;
      }
    }
  }
}

TEST(SparseEquivalence, SparseSolveIsAllocationFreeAfterSetup) {
  auto deck = parse_case({SyntheticTopology::kMesh, 500});
  SimSession session(*deck.circuit, tight_options());

  // First solve performs the one-time symbolic analysis.
  (void)session.solve_or_throw();
  // Steady-state warm solves must not touch the heap at all.
  auto& v1 = deck.circuit->get<VoltageSource>("V1");
  const std::uint64_t a0 = testing::allocation_count();
  for (int i = 0; i < 5; ++i) {
    v1.set_value(5.0 + 0.05 * i);
    (void)session.solve_or_throw();
  }
  const std::uint64_t a1 = testing::allocation_count();
  EXPECT_EQ(a1 - a0, 0u)
      << "sparse Newton steady state allocated on the heap";
}

TEST(SparseEquivalence, SparsePlanAllocationsIndependentOfPointCount) {
  // The test_plan discipline on the sparse path: a run over 10x the
  // points must allocate exactly as much as the small run (per-run setup
  // only, nothing per point).
  auto deck = parse_case({SyntheticTopology::kMesh, 200});
  SimSession session(*deck.circuit, tight_options());

  AnalysisPlan small;
  small.name = "alloc-small";
  small.axes.push_back(
      SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 10)));
  small.probes.push_back(parse_probe("V(" +
                                     generated_probe_node(
                                         {SyntheticTopology::kMesh, 200, 42,
                                          true}) +
                                     ")"));
  AnalysisPlan large = small;
  large.name = "alloc-large";
  large.axes[0] = SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 100));

  // Warm-up run: symbolic analysis plus any lazy result-shape setup.
  (void)session.run(small);

  const std::uint64_t a0 = testing::allocation_count();
  const SweepResult rs = session.run(small);
  const std::uint64_t a1 = testing::allocation_count();
  const SweepResult rl = session.run(large);
  const std::uint64_t a2 = testing::allocation_count();
  EXPECT_EQ(rs.rows(), 10u);
  EXPECT_EQ(rl.rows(), 100u);
  EXPECT_EQ(a1 - a0, a2 - a1)
      << "sparse run() allocation count scales with point count";
}

TEST(SparseEquivalence, SymbolicAnalysisSurvivesAWholePlanRun) {
  // Engine-level counterpart of the zero-alloc assertion: the whole sweep
  // must reuse one symbolic analysis (pattern and pivot order are
  // operating-point independent).
  auto deck = parse_case({SyntheticTopology::kDiodeLadder, 200});
  SimSession session(*deck.circuit, tight_options());
  ASSERT_FALSE(deck.plans.empty());
  const SweepResult r = session.run(deck.plans.front());
  EXPECT_GT(r.rows(), 0u);
}

}  // namespace
}  // namespace icvbe::spice
