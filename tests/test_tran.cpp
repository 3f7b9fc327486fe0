// Transient engine tests: companion-model exactness against discrete
// closed forms (the recurrence a backward-Euler / trapezoidal integrator
// must reproduce bit-for-bit up to roundoff), LTE step control behaviour,
// agreement with a dense LU reference, and the allocation-free stepping
// contract.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/transient.hpp"
#include "icvbe/testing/alloc_hook.hpp"

#include "dense_oracle.hpp"
#include "kcl_check.hpp"
#include "serve_deck.hpp"

namespace {

using namespace icvbe;
using namespace icvbe::spice;

/// Fixed-step spec: pure single-method stepping on a uniform grid, the
/// shape the closed-form comparisons need.
TransientSpec fixed_spec(IntegrationMethod method, double h, double tstop,
                         bool uic = false) {
  TransientSpec spec;
  spec.tstep = h;
  spec.tstop = tstop;
  spec.method = method;
  spec.adaptive = false;
  spec.uic = uic;
  return spec;
}

// ------------------------------------------------------------------- RC ---

/// V1(1 V) - R - out - C - gnd, started discharged via UIC.
struct RcFixture {
  Circuit circuit;
  double r = 1e3;
  double c = 1e-6;
  RcFixture() {
    const NodeId in = circuit.node("in");
    const NodeId out = circuit.node("out");
    circuit.add_vsource("V1", in, kGround, 1.0);
    circuit.add_resistor("R1", in, out, r);
    circuit.add_capacitor("C1", out, kGround, c);
  }
};

TEST(TransientRcTest, BackwardEulerMatchesDiscreteClosedForm) {
  RcFixture f;
  SimSession session(f.circuit);
  const double h = 1e-5;
  TransientSolver solver(
      session, fixed_spec(IntegrationMethod::kBackwardEuler, h, 1e-3, true));
  const SweepResult result = solver.run({parse_probe("V(out)")});

  // BE on C dv/dt = (Vs - v)/R: v_{n+1} = (v_n + h/RC Vs) / (1 + h/RC),
  // i.e. v_n = Vs (1 - alpha^n) with alpha = 1 / (1 + h/RC) from v_0 = 0.
  const double alpha = 1.0 / (1.0 + h / (f.r * f.c));
  ASSERT_EQ(result.rows(), 101u);
  for (std::size_t n = 0; n < result.rows(); ++n) {
    const double expected =
        1.0 - std::pow(alpha, static_cast<double>(n));
    EXPECT_NEAR(result.value(0, n), expected, 1e-8)
        << "step " << n << " t = " << result.axis_value(0, n);
  }
}

TEST(TransientRcTest, TrapezoidalMatchesDiscreteRecurrence) {
  RcFixture f;
  SimSession session(f.circuit);
  const double h = 1e-5;
  TransientSolver solver(
      session, fixed_spec(IntegrationMethod::kTrapezoidal, h, 1e-3, true));
  const SweepResult result =
      solver.run({parse_probe("V(out)"), parse_probe("I(C1)")});

  // The exact recurrence of the trapezoidal companion from a committed
  // (v_0, i_0) = (0, 0) start: solve the stamped system by hand per step.
  const double geq = 2.0 * f.c / h;
  double v = 0.0;
  double ic = 0.0;
  ASSERT_EQ(result.rows(), 101u);
  EXPECT_NEAR(result.value(0, 0), 0.0, 1e-15);
  for (std::size_t n = 1; n < result.rows(); ++n) {
    // KCL at out: (Vs - v') / R = geq (v' - v) - ic.
    const double v_new =
        (1.0 / f.r + geq * v + ic) / (1.0 / f.r + geq);
    const double ic_new = geq * (v_new - v) - ic;
    v = v_new;
    ic = ic_new;
    EXPECT_NEAR(result.value(0, n), v, 1e-8) << "step " << n;
    EXPECT_NEAR(result.value(1, n), ic, 1e-8) << "step " << n;
  }
  // Sanity against the continuous response. The dominant deviation is the
  // committed i_0 = 0 start (the source steps discontinuously at t = 0+,
  // the pre-step current is zero), worth ~h/(2 tau) = 5e-3 decaying with
  // the homogeneous solution -- not the integrator's own O(h^2) error.
  const double t_end = result.axis_value(0, result.rows() - 1);
  EXPECT_NEAR(result.value(0, result.rows() - 1),
              1.0 - std::exp(-t_end / (f.r * f.c)), 5e-3);
}

TEST(TransientRcTest, IcDirectiveOverridesOperatingPoint) {
  // R || C discharging from .IC V(out)=1 without UIC: the operating point
  // (0 V) is solved first, then the .IC override applies.
  Circuit circuit;
  const NodeId out = circuit.node("out");
  circuit.add_resistor("R1", out, kGround, 1e3);
  circuit.add_capacitor("C1", out, kGround, 1e-6);
  SimSession session(circuit);
  const double h = 1e-5;
  TransientSpec spec = fixed_spec(IntegrationMethod::kBackwardEuler, h, 5e-4);
  spec.initial_conditions = {{"out", 1.0}};
  TransientSolver solver(session, spec);
  const SweepResult result = solver.run({parse_probe("V(out)")});

  const double alpha = 1.0 / (1.0 + h / (1e3 * 1e-6));
  for (std::size_t n = 0; n < result.rows(); ++n) {
    EXPECT_NEAR(result.value(0, n), std::pow(alpha, static_cast<double>(n)),
                1e-8)
        << "step " << n;
  }
}

// ------------------------------------------------------------------- RL ---

TEST(TransientRlTest, BackwardEulerMatchesDiscreteClosedForm) {
  // V1(1 V) - R - mid - L - gnd energising from i = 0.
  Circuit circuit;
  const NodeId in = circuit.node("in");
  const NodeId mid = circuit.node("mid");
  const double r = 10.0;
  const double l = 1e-3;
  circuit.add_vsource("V1", in, kGround, 1.0);
  circuit.add_resistor("R1", in, mid, r);
  circuit.add_inductor("L1", mid, kGround, l);
  SimSession session(circuit);
  const double h = 1e-6;
  TransientSolver solver(
      session,
      fixed_spec(IntegrationMethod::kBackwardEuler, h, 2e-4, true));
  const SweepResult result = solver.run({parse_probe("I(L1)")});

  // BE on L di/dt = Vs - i R: i_{n+1} = (i_n + h/L Vs) / (1 + h R / L),
  // i.e. i_n = (Vs/R)(1 - alpha^n) with alpha = 1 / (1 + h R / L).
  const double alpha = 1.0 / (1.0 + h * r / l);
  for (std::size_t n = 0; n < result.rows(); ++n) {
    EXPECT_NEAR(result.value(0, n),
                (1.0 / r) * (1.0 - std::pow(alpha, static_cast<double>(n))),
                1e-8)
        << "step " << n;
  }
}

TEST(TransientRlTest, UicDeviceInitialConditionImprints) {
  // L (IC = 0.5 A) freewheeling into a parallel R: i decays geometrically
  // and the t = 0 row must already read the imprinted 0.5 A.
  Circuit circuit;
  const NodeId a = circuit.node("a");
  const double r = 2.0;
  const double l = 1e-3;
  circuit.add_resistor("R1", a, kGround, r);
  circuit.add_inductor("L1", a, kGround, l, 0.5);
  SimSession session(circuit);
  const double h = 1e-6;
  TransientSolver solver(
      session,
      fixed_spec(IntegrationMethod::kBackwardEuler, h, 1e-4, true));
  const SweepResult result = solver.run({parse_probe("I(L1)")});

  const double alpha = 1.0 / (1.0 + h * r / l);
  EXPECT_DOUBLE_EQ(result.value(0, 0), 0.5);
  for (std::size_t n = 0; n < result.rows(); ++n) {
    EXPECT_NEAR(result.value(0, n),
                0.5 * std::pow(alpha, static_cast<double>(n)), 1e-8)
        << "step " << n;
  }
}

// ------------------------------------------------------------------- LC ---

TEST(TransientLcTest, TrapezoidalMatchesRecurrenceAndConservesEnergy) {
  // Ideal LC tank rung from V(a) = 1, i = 0: trapezoidal must preserve the
  // quadratic invariant C v^2 + L i^2 exactly (up to roundoff) -- the
  // property that makes it the oscillation-safe default.
  Circuit circuit;
  const NodeId a = circuit.node("a");
  const double c = 1e-9;
  const double l = 1e-6;
  circuit.add_capacitor("C1", a, kGround, c, 1.0);
  circuit.add_inductor("L1", a, kGround, l);
  NewtonOptions options;
  options.gmin_floor = 0.0;  // no artificial damping in the tank
  SimSession session(circuit, options);
  const double h = 1e-9;  // ~200 steps per period
  TransientSpec spec =
      fixed_spec(IntegrationMethod::kTrapezoidal, h, 1e-6, true);
  spec.initial_conditions = {{"a", 1.0}};
  TransientSolver solver(session, spec);
  const SweepResult result =
      solver.run({parse_probe("V(a)"), parse_probe("I(L1)")});

  // Exact recurrence of the stamped trapezoidal system.
  const double geq = 2.0 * c / h;
  double v = 1.0, ic = 0.0, il = 0.0;
  const double e0 = c * v * v + l * il * il;
  for (std::size_t n = 1; n < result.rows(); ++n) {
    // KCL at a: geq (v' - v) - ic + il' = 0 with
    // il' = il + (h / 2L)(v + v').
    const double v_new = ((geq - h / (2.0 * l)) * v + ic - il) /
                         (geq + h / (2.0 * l));
    const double il_new = il + h / (2.0 * l) * (v + v_new);
    const double ic_new = geq * (v_new - v) - ic;
    v = v_new;
    il = il_new;
    ic = ic_new;
    EXPECT_NEAR(result.value(0, n), v, 1e-8) << "step " << n;
    EXPECT_NEAR(result.value(1, n), il, 1e-8) << "step " << n;

    const double e = c * result.value(0, n) * result.value(0, n) +
                     l * result.value(1, n) * result.value(1, n);
    EXPECT_NEAR(e / e0, 1.0, 1e-8) << "energy drift at step " << n;
  }
  // ~5 periods in: the oscillation has not decayed.
  double vmax_tail = 0.0;
  for (std::size_t n = result.rows() - 250; n < result.rows(); ++n) {
    vmax_tail = std::max(vmax_tail, std::abs(result.value(0, n)));
  }
  EXPECT_GT(vmax_tail, 0.999);
}

// ---------------------------------------------------------- LTE control ---

/// RC lowpass behind a delayed fast PULSE edge; used by the step-control
/// tests.
std::vector<double> lte_case_times(long* rejected = nullptr) {
  Circuit circuit;
  const NodeId in = circuit.node("in");
  const NodeId out = circuit.node("out");
  auto& v1 = circuit.add_vsource("V1", in, kGround, 0.0);
  v1.set_waveform(
      Waveform::pulse(0.0, 1.0, 1e-3, 1e-5, 1e-5, 2e-3, 0.0));
  circuit.add_resistor("R1", in, out, 10e3);
  circuit.add_capacitor("C1", out, kGround, 10e-9);
  SimSession session(circuit);
  TransientSpec spec;
  spec.tstep = 5e-5;
  spec.tstop = 6e-3;
  TransientSolver solver(session, spec);
  solver.begin();
  std::vector<double> times{solver.time()};
  while (solver.advance()) times.push_back(solver.time());
  if (rejected != nullptr) *rejected = solver.steps_rejected();
  return times;
}

TEST(TransientLteTest, StepShrinksOnEdgeAndGrowsOnSmoothTail) {
  const std::vector<double> times = lte_case_times();
  double min_edge_step = 1e9;
  double max_pre_edge_step = 0.0;
  double max_settle_step = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double h = times[i] - times[i - 1];
    const double t = times[i];
    if (t > 1e-3 && t <= 1.2e-3) min_edge_step = std::min(min_edge_step, h);
    if (t <= 1e-3) max_pre_edge_step = std::max(max_pre_edge_step, h);
    if (t > 2e-3 && t <= 3e-3) {
      max_settle_step = std::max(max_settle_step, h);
    }
  }
  // Shrinks into the edge by well over an order of magnitude relative to
  // the quiescent stretch before it...
  EXPECT_LT(min_edge_step, max_pre_edge_step / 10.0);
  // ...and grows back out on the smooth settling tail.
  EXPECT_GT(max_settle_step, min_edge_step * 10.0);
  // A breakpoint lands a step exactly on the edge start.
  const double edge = 1e-3;
  double closest = 1e9;
  for (double t : times) closest = std::min(closest, std::abs(t - edge));
  EXPECT_LT(closest, 1e-9);
}

TEST(TransientLteTest, StepSequenceIsDeterministic) {
  long rejected_a = 0;
  long rejected_b = 0;
  const std::vector<double> a = lte_case_times(&rejected_a);
  const std::vector<double> b = lte_case_times(&rejected_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "step " << i;  // bit-identical, not just close
  }
  EXPECT_EQ(rejected_a, rejected_b);
}

TEST(TransientLteTest, StepRejectedAtTheMinimumStepEndsTheRun) {
  // No step follows a 1e17 Hz sine, so the error estimate rejects every
  // step down to the minimum one. The run must end there with an error
  // naming the time it stuck at, not accept minimum steps until memory
  // runs out; the loop is capped so that a regression fails, not hangs.
  auto parsed = parse_netlist(R"(
V1 in 0 SIN(0 1 1e17)
R1 in out 1k
C1 out 0 1n
.TRAN 1u 10u
.PROBE V(out)
.END
)");
  const AnalysisPlan* plan = parsed.find_plan(AnalysisKind::kTransient);
  ASSERT_NE(plan, nullptr);
  SimSession session(*parsed.circuit);
  TransientSolver solver(session, *plan->transient);
  solver.begin();
  std::string error;
  long steps = 0;
  try {
    while (solver.advance() && ++steps < 100000) {
    }
  } catch (const NumericalError& e) {
    error = e.what();
  }
  const std::string prefix = "transient: timestep too small at t = ";
  ASSERT_EQ(error.rfind(prefix, 0), 0u)
      << "after " << steps << " steps: '" << error << "'";
  // t prints with significant digits: a sub-microsecond time is not 0.
  const double t = std::stod(error.substr(prefix.size()));
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1e-5);
}

// ---------------------------------------- dense reference + allocations ---

TEST(TransientEngineTest, DenseAndSparseResultsAgreeOnRcLadderDeck) {
  SyntheticNetlistSpec gen;
  gen.topology = SyntheticTopology::kRcLadder;
  gen.nodes = 80;
  gen.seed = 11;
  const std::string deck = generate_netlist(gen);

  auto parsed = parse_netlist(deck);
  ASSERT_FALSE(parsed.plans.empty());
  ASSERT_TRUE(parsed.plans.front().transient.has_value());
  AnalysisPlan plan = parsed.plans.front();
  // Uniform grid so the session and the dense reference step through the
  // same timepoints, and tight Newton tolerances so solver slack stays
  // below the 1e-10 comparison.
  plan.transient->adaptive = false;
  plan.transient->tstep = plan.transient->tstop / 100.0;
  NewtonOptions options;
  options.v_abstol = 1e-11;
  options.i_abstol = 1e-14;
  options.reltol = 1e-12;
  SimSession session(*parsed.circuit, options);
  const SweepResult sparse = session.run(plan);

  auto reference = parse_netlist(deck);
  oracle::DenseOracle dense(*reference.circuit, options);
  const std::vector<Unknowns> xd =
      dense.fixed_step_transient(*plan.transient);
  ASSERT_EQ(sparse.rows(), xd.size());
  for (std::size_t p = 0; p < sparse.probe_count(); ++p) {
    for (std::size_t r = 0; r < sparse.rows(); ++r) {
      EXPECT_NEAR(plan.probes[p].eval(*reference.circuit, xd[r]),
                  sparse.value(p, r), 1e-10)
          << "probe " << p << " row " << r;
    }
  }
}

TEST(TransientEngineTest, DenseAndSparseResultsAgreeOnCurrentDrivenRcLadder) {
  // The generated ladder with its PULSE voltage source swapped for a PULSE
  // current source (1.8 mA into n1, loaded by 1k): a current-source
  // waveform through a transient, session against the dense reference.
  SyntheticNetlistSpec gen;
  gen.topology = SyntheticTopology::kRcLadder;
  gen.nodes = 80;
  gen.seed = 11;
  std::string deck = generate_netlist(gen);
  const auto swap = [&deck](const std::string& from, const std::string& to) {
    const std::size_t at = deck.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    deck.replace(at, from.size(), to);
  };
  swap("V1 n1 0 PULSE(0 1.8 ", "RL n1 0 1k\nI1 0 n1 PULSE(0 1.8m ");
  swap("I(V1)", "V(n1)");

  auto parsed = parse_netlist(deck);
  AnalysisPlan plan = parsed.plans.front();
  plan.transient->adaptive = false;
  plan.transient->tstep = plan.transient->tstop / 100.0;
  NewtonOptions options;
  options.v_abstol = 1e-11;
  options.i_abstol = 1e-14;
  options.reltol = 1e-12;
  SimSession session(*parsed.circuit, options);
  const SweepResult sparse = session.run(plan);

  auto reference = parse_netlist(deck);
  oracle::DenseOracle dense(*reference.circuit, options);
  const std::vector<Unknowns> xd =
      dense.fixed_step_transient(*plan.transient);
  ASSERT_EQ(sparse.rows(), xd.size());
  for (std::size_t p = 0; p < sparse.probe_count(); ++p) {
    for (std::size_t r = 0; r < sparse.rows(); ++r) {
      EXPECT_NEAR(plan.probes[p].eval(*reference.circuit, xd[r]),
                  sparse.value(p, r), 1e-10)
          << "probe " << p << " row " << r;
    }
  }
  // The source drove the ladder: V(n1) settles at 1.8 mA * 1k.
  EXPECT_NEAR(sparse.value(1, sparse.rows() - 1), 1.8, 0.1);
}

/// A pulsed source into a diode clamp with an RC and an RL branch:
/// V1 - R1 - a, D1 a-0, C1 a-0, R2 a-b, L1 b-0. With `diode_first` the
/// diode comes before C1 and L1 in device order, so they follow the first
/// nonlinear device and are no part of the linear prefix; otherwise the
/// order is a parsed deck's (linear devices first). Nodes and aux unknowns
/// number alike either way.
void build_clamp(Circuit& c, bool diode_first) {
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", in, kGround, 0.0)
      .set_waveform(Waveform::pulse(0.0, 1.5, 1e-6, 1e-6, 1e-6, 8e-6));
  c.add_resistor("R1", in, a, 1e3, 2e-3);
  c.add_resistor("R2", a, b, 2e3);
  DiodeModel dm;
  dm.is = 1e-14;
  if (diode_first) c.add_diode("D1", a, kGround, dm);
  c.add_capacitor("C1", a, kGround, 1e-9);
  c.add_inductor("L1", b, kGround, 1e-3);
  if (!diode_first) c.add_diode("D1", a, kGround, dm);
}

/// Tight Newton tolerances: solver slack stays far below the comparisons.
NewtonOptions tight_options() {
  NewtonOptions options;
  options.v_abstol = 1e-11;
  options.i_abstol = 1e-14;
  options.reltol = 1e-12;
  return options;
}

/// Every solution of a TransientSolver run on `c`, t = 0 included.
std::vector<Unknowns> transient_solutions(Circuit& c,
                                          const TransientSpec& spec) {
  SimSession session(c, tight_options());
  TransientSolver solver(session, spec);
  solver.begin();
  std::vector<Unknowns> out{solver.solution()};
  while (solver.advance()) out.push_back(solver.solution());
  return out;
}

TEST(TransientEngineTest, ReactiveDevicesAfterTheNonlinearOneCountOnce) {
  // C1 and L1 stamp after the diode, outside the linear prefix: their
  // companion conductance still comes from (alpha/h)*C, once. Counting it
  // twice or leaving it out moves every step against both references.
  const TransientSpec spec =
      fixed_spec(IntegrationMethod::kTrapezoidal, 1e-7, 2e-5);
  Circuit late;
  build_clamp(late, true);
  ASSERT_EQ(linear_prefix(late), 3u);
  Circuit parsed_order;
  build_clamp(parsed_order, false);
  ASSERT_EQ(linear_prefix(parsed_order), 5u);
  Circuit reference;
  build_clamp(reference, true);

  const std::vector<Unknowns> x = transient_solutions(late, spec);
  const std::vector<Unknowns> xp = transient_solutions(parsed_order, spec);
  oracle::DenseOracle dense(reference, tight_options());
  const std::vector<Unknowns> xd = dense.fixed_step_transient(spec);
  ASSERT_EQ(x.size(), 201u);
  ASSERT_EQ(xp.size(), x.size());
  ASSERT_EQ(xd.size(), x.size());
  double swing = 0.0;
  for (std::size_t r = 0; r < x.size(); ++r) {
    for (std::size_t i = 0; i < x[r].size(); ++i) {
      EXPECT_NEAR(x[r].raw()[i], xp[r].raw()[i], 1e-12)
          << "step " << r << " unknown " << i;
      EXPECT_NEAR(x[r].raw()[i], xd[r].raw()[i], 1e-10)
          << "step " << r << " unknown " << i;
    }
    swing = std::max(swing, x[r].node_voltage(late.find_node("b")));
  }
  // The pulse drives both branches: the diode clamps node a and L1's
  // branch carries current.
  EXPECT_GT(swing, 0.05);
}

TEST(TransientEngineTest, RunAfterReprogrammingMatchesAFreshSession) {
  // A second run on one session after set_capacitance, a resistor value
  // and a temperature change must print what a fresh session prints: the
  // run's G_lin and C come from the values of that run, not the last.
  TransientSpec spec;
  spec.tstep = 2e-7;
  spec.tstop = 2e-5;
  const std::vector<Probe> probes = {parse_probe("V(a)"),
                                     parse_probe("V(b)"),
                                     parse_probe("I(L1)")};
  const auto reprogram = [](Circuit& c) {
    c.get<Capacitor>("C1").set_capacitance(2.2e-9);
    c.get<Resistor>("R2").set_nominal_resistance(1.5e3);
    c.set_temperature(350.0);
  };
  const auto same_rows = [](const SweepResult& p, const SweepResult& q) {
    if (p.rows() != q.rows()) return false;
    for (std::size_t r = 0; r < p.rows(); ++r) {
      if (std::bit_cast<std::uint64_t>(p.axis_value(0, r)) !=
          std::bit_cast<std::uint64_t>(q.axis_value(0, r))) {
        return false;
      }
      for (std::size_t k = 0; k < p.probe_count(); ++k) {
        if (std::bit_cast<std::uint64_t>(p.value(k, r)) !=
            std::bit_cast<std::uint64_t>(q.value(k, r))) {
          return false;
        }
      }
    }
    return true;
  };

  Circuit warm;
  build_clamp(warm, false);
  SimSession session(warm);
  const SweepResult before = TransientSolver(session, spec).run(probes);
  reprogram(warm);
  session.begin_variant();
  session.prime();
  const SweepResult after = TransientSolver(session, spec).run(probes);

  Circuit fresh;
  build_clamp(fresh, false);
  reprogram(fresh);
  SimSession cold(fresh);
  const SweepResult expected = TransientSolver(cold, spec).run(probes);

  EXPECT_TRUE(same_rows(after, expected));
  EXPECT_FALSE(same_rows(before, expected));  // the change shows
}

TEST(TransientEngineTest, DcAfterTransientMatchesAFreshSession) {
  // A DC plan after a TRAN plan on one session must print what a fresh
  // session prints. The sweep re-programs R2 (a linear-prefix device) and
  // V1 between solves, so every DC attempt builds the linear part from
  // the values of its own point; the TRAN run's part must not serve it.
  AnalysisPlan tran;
  tran.transient = TransientSpec{};
  tran.transient->tstep = 2e-7;
  tran.transient->tstop = 2e-5;
  tran.probes = {parse_probe("V(a)")};
  AnalysisPlan dc;
  dc.axes = {SweepAxis::resistor("R2", SweepGrid::list({500.0, 4e3})),
             SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.5, 7))};
  dc.probes = {parse_probe("V(a)"), parse_probe("V(b)"),
               parse_probe("I(L1)")};

  Circuit warm;
  build_clamp(warm, false);
  SimSession session(warm);
  (void)session.run(tran);
  session.begin_variant();
  const SweepResult got = session.run(dc);

  Circuit fresh;
  build_clamp(fresh, false);
  SimSession cold(fresh);
  const SweepResult want = cold.run(dc);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t k = 0; k < want.probe_count(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value(k, r)),
                std::bit_cast<std::uint64_t>(want.value(k, r)))
          << "row " << r << " probe " << k;
    }
  }
}

TEST(TransientEngineTest, LadderWithPnpLoadRestampsNeverMissTheTape) {
  // Every Newton iteration of the transient restamps the same add
  // sequence, so after the first restamp records the tape no add searches,
  // and the refactors replay only the steps the PNP's rows reach.
  auto parsed = parse_netlist(testdeck::serve_deck());
  SimSession session(*parsed.circuit);
  const SweepResult r =
      session.run(*parsed.find_plan(AnalysisKind::kTransient));
  EXPECT_GT(r.rows(), 100u);
  EXPECT_EQ(session.sparse_matrix().tape().misses(), 0u);
  const linalg::RefactorStats& stats = session.sparse_lu().refactor_stats();
  EXPECT_GT(stats.partial, 0u);
  EXPECT_LT(stats.steps_replayed,
            (stats.full + stats.partial + stats.skipped) *
                session.sparse_lu().size() / 2)
      << "replays should cover well under half the pivot steps";
}

TEST(TransientEngineTest, ServeDeckTranWorkIsPinnedAsCounts) {
  // The server benchmark's deck, run once on a fresh session. Its step
  // control and Newton work are pinned as counts, so a speed change in the
  // linear kernels shows as cheaper iterations, not as fewer of them; a
  // change to the Newton loop or the step control that does take fewer
  // must re-pin them. The last one: no convergence on a limited iterate
  // and the history-polynomial predictor took the run from 163 accepted,
  // 14 rejected and 490 iterations to the counts below.
  auto parsed = parse_netlist(testdeck::serve_deck());
  const AnalysisPlan& plan = *parsed.find_plan(AnalysisKind::kTransient);
  parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
  SimSession session(*parsed.circuit);
  TransientSolver solver(session, *plan.transient);
  const SweepResult r = solver.run(plan.probes);
  EXPECT_EQ(solver.steps_accepted(), 149);
  EXPECT_EQ(solver.steps_rejected(), 10);
  EXPECT_EQ(solver.newton_iterations(), 318);
  // 335 refactors: the one symbolic analysis (the DC operating point's
  // first iteration), then only partial replays.
  EXPECT_EQ(session.sparse_lu().analysis_count(), 1);
  const linalg::RefactorStats& stats = session.sparse_lu().refactor_stats();
  EXPECT_EQ(stats.full, 0u);
  EXPECT_EQ(stats.partial, 334u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.steps_replayed, 16986u);
  EXPECT_GT(r.rows(), 100u);
}

// ------------------------------------------------------------------ KCL ---

/// Runs a deck's .TRAN as `icvbe tran` does (deck temperature, .NODESET
/// seed) through begin()/advance() and checks every accepted timepoint
/// against KCL. After commit() a capacitor's or inductor's terminals()
/// carry the companion current of the accepted point, so kcl::check_kcl
/// checks the discretised KCL the step solved. The t = 0 point is checked
/// when it is a solved operating point (no UIC, no .IC override). Returns
/// the number of points checked.
long expect_every_step_passes_kcl(ParsedNetlist parsed,
                                  const std::string& name) {
  Circuit& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const AnalysisPlan* plan = parsed.find_plan(AnalysisKind::kTransient);
  EXPECT_NE(plan, nullptr) << name;
  if (plan == nullptr) return 0;
  SimSession session(c);
  if (!parsed.nodesets.empty()) {
    session.seed_warm_start(parsed.nodeset_guess());
  }
  TransientSolver solver(session, *plan->transient);
  solver.begin();
  long checked = 0;
  int failures = 0;
  const auto check = [&] {
    ++checked;
    const kcl::KclResult r = kcl::check_kcl(c, solver.solution());
    if (!r.ok && ++failures <= 3) {
      ADD_FAILURE() << name << " at t = " << solver.time()
                    << " s: KCL fails at node " << c.node_name(r.worst_node)
                    << ", |sum I| = " << r.residual << " A > " << r.bound
                    << " A";
    }
  };
  if (!plan->transient->uic && plan->transient->initial_conditions.empty()) {
    check();
  }
  while (solver.advance()) check();
  EXPECT_EQ(failures, 0) << name << ": of " << checked << " points";
  return checked;
}

TEST(TransientKclTest, EveryServeDeckStepPasses) {
  EXPECT_GT(expect_every_step_passes_kcl(
                parse_netlist(testdeck::serve_deck()), "serve"),
            100);
}

TEST(TransientKclTest, EveryExampleDeckStepPasses) {
  for (const char* name : {"lc_tank", "rc_lowpass_tran", "startup_ramp",
                           "tran_ac_combo"}) {
    std::ifstream in(std::filesystem::path(ICVBE_EXAMPLE_DECKS) /
                     (std::string(name) + ".cir"));
    ASSERT_TRUE(in) << name;
    EXPECT_GT(expect_every_step_passes_kcl(parse_netlist(in), name), 10)
        << name;
  }
}

TEST(TransientEngineTest, AdvanceIsAllocationFreeAfterSetup) {
  SyntheticNetlistSpec gen;
  gen.topology = SyntheticTopology::kRcLadder;
  gen.nodes = 30;
  gen.seed = 3;
  auto parsed = parse_netlist(generate_netlist(gen));
  ASSERT_TRUE(parsed.plans.front().transient.has_value());
  SimSession session(*parsed.circuit);
  TransientSolver solver(session, *parsed.plans.front().transient);
  solver.begin();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(solver.advance());

  const std::uint64_t before = icvbe::testing::allocation_count();
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(solver.advance());
  const std::uint64_t after = icvbe::testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "allocated in the transient stepping loop";
}

TEST(TransientEngineTest, RunReservesForItsStepsNotItsGrid) {
  // A grid near the kMaxGridPoints bound, cancelled at its first row:
  // nothing run() holds before the first step may scale with the grid
  // (an estimate from the grid would reserve ~256 MB per column here).
  RcFixture f;
  SimSession session(f.circuit);
  TransientSpec spec;
  spec.tstep = 1.25e-7;
  spec.tstop = 1.0;
  ASSERT_GT(spec.grid_points(), 0.5 * kMaxGridPoints);
  ASSERT_LE(spec.grid_points(), kMaxGridPoints);
  TransientSolver solver(session, spec);
  struct CancelAtFirstRow final : RunObserver {
    bool on_row(std::size_t, const double*, std::size_t, const double*,
                std::size_t) override {
      return false;
    }
  } cancel;
  const std::vector<Probe> probes = {parse_probe("V(out)"),
                                     parse_probe("V(in)"),
                                     parse_probe("I(V1)")};
  icvbe::testing::reset_largest_allocation();
  EXPECT_THROW((void)solver.run(probes, &cancel), CancelledError);
  EXPECT_LT(icvbe::testing::largest_allocation(), std::size_t{1} << 20);
}

// -------------------------------------------------- plan / deck plumbing ---

TEST(TransientPlanTest, DeckTranRunsThroughSessionRun) {
  const char* deck = R"(
V1 in 0 PULSE(0 1 0 1u)
R1 in out 1k
C1 out 0 1u
.TRAN 10u 1m
.PROBE V(out) I(V1)
.END
)";
  auto parsed = parse_netlist(deck);
  ASSERT_FALSE(parsed.plans.empty());
  ASSERT_TRUE(parsed.plans.front().transient.has_value());
  SimSession session(*parsed.circuit);
  const SweepResult result = session.run(parsed.plans.front());
  ASSERT_EQ(result.axis_labels().size(), 1u);
  EXPECT_EQ(result.axis_labels()[0], "TIME");
  ASSERT_EQ(result.probe_count(), 2u);
  ASSERT_GE(result.rows(), 3u);
  EXPECT_DOUBLE_EQ(result.axis_value(0, 0), 0.0);
  EXPECT_NEAR(result.axis_value(0, result.rows() - 1), 1e-3, 1e-9);
  // Monotone non-decreasing time axis, final value near the asymptote.
  for (std::size_t r = 1; r < result.rows(); ++r) {
    EXPECT_GT(result.axis_value(0, r), result.axis_value(0, r - 1));
  }
  // tstop is one time constant: the recorded end value sits at 1 - 1/e.
  EXPECT_NEAR(result.value(0, result.rows() - 1), 1.0 - std::exp(-1.0),
              1e-2);
  // series() works on the single TIME axis.
  const Series s = result.series(0);
  EXPECT_EQ(s.size(), result.rows());
}

TEST(TransientPlanTest, TransientPlanRejectsSweepAxes) {
  RcFixture f;
  SimSession session(f.circuit);
  AnalysisPlan plan;
  plan.transient = fixed_spec(IntegrationMethod::kBackwardEuler, 1e-5, 1e-4);
  plan.axes.push_back(SweepAxis::temperature_celsius(
      SweepGrid::list({25.0})));
  plan.probes = {parse_probe("V(out)")};
  EXPECT_THROW((void)session.run(plan), PlanError);
}

TEST(TransientPlanTest, SolverValidatesSpec) {
  RcFixture f;
  SimSession session(f.circuit);
  TransientSpec bad;
  bad.tstep = 0.0;
  bad.tstop = 1e-3;
  EXPECT_THROW(TransientSolver(session, bad), Error);
  bad.tstep = 1e-5;
  bad.tstop = 0.0;
  EXPECT_THROW(TransientSolver(session, bad), Error);
  // More than kMaxGridPoints steps, through tstep, tstop or tmax.
  bad.tstep = 1e-300;
  bad.tstop = 1.0;
  EXPECT_THROW(TransientSolver(session, bad), Error);
  bad.tstep = 1e-9;
  bad.tstop = 1e300;
  EXPECT_THROW(TransientSolver(session, bad), Error);
  bad.tstop = 1.0;
  bad.tstep = 1e-6;
  bad.tmax = 1e-300;
  EXPECT_THROW(TransientSolver(session, bad), Error);
  bad.tmax = 0.0;
  EXPECT_NO_THROW(TransientSolver(session, bad));  // 1e6 steps: allowed
}

TEST(TransientPlanTest, UnknownIcNodeThrows) {
  RcFixture f;
  SimSession session(f.circuit);
  TransientSpec spec = fixed_spec(IntegrationMethod::kBackwardEuler, 1e-5,
                                  1e-4);
  spec.initial_conditions = {{"nope", 1.0}};
  TransientSolver solver(session, spec);
  EXPECT_THROW(solver.begin(), CircuitError);
}

// ----------------------------------------------------------- waveforms ---

TEST(WaveformTest, PulseValueAndCorners) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-3, 1e-4, 2e-4, 5e-4, 2e-3);
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at(1e-3), 0.0);       // edge start is still v1
  EXPECT_NEAR(w.value_at(1.05e-3), 0.5, 1e-12);  // mid-rise (fmod noise)
  EXPECT_DOUBLE_EQ(w.value_at(1.2e-3), 1.0);     // on the flat top
  EXPECT_NEAR(w.value_at(1.7e-3), 0.5, 1e-12);   // mid-fall
  EXPECT_DOUBLE_EQ(w.value_at(1.9e-3), 0.0);     // back at v1
  EXPECT_DOUBLE_EQ(w.value_at(3.2e-3), 1.0);     // second period top
  EXPECT_DOUBLE_EQ(w.dc_value(), 0.0);

  std::vector<double> bps;
  w.append_breakpoints(4e-3, bps);
  // Two full periods of 4 corners each fit in [0, 4 ms].
  EXPECT_EQ(bps.size(), 8u);
  EXPECT_DOUBLE_EQ(bps[0], 1e-3);
  EXPECT_DOUBLE_EQ(bps[1], 1.1e-3);
}

TEST(WaveformTest, BreakpointCapIsPerWaveform) {
  // A pulse dense enough to hit the per-waveform cap must not starve a
  // later source of its corners.
  std::vector<double> bps;
  const Waveform dense =
      Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9, 4e-9);
  dense.append_breakpoints(1.0, bps);
  EXPECT_EQ(bps.size(), Waveform::kMaxBreakpoints);
  const Waveform late = Waveform::pwl({{0.0, 0.0}, {0.5, 1.0}});
  late.append_breakpoints(1.0, bps);
  EXPECT_EQ(bps.size(), Waveform::kMaxBreakpoints + 1);
  EXPECT_DOUBLE_EQ(bps.back(), 0.5);
}

TEST(WaveformTest, StepPulseHoldsForever) {
  const Waveform w = Waveform::pulse(0.2, 1.8);
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.2);
  EXPECT_DOUBLE_EQ(w.value_at(1e-9), 1.8);
  EXPECT_DOUBLE_EQ(w.value_at(100.0), 1.8);
}

TEST(WaveformTest, SinAndPwl) {
  const Waveform s = Waveform::sin(0.5, 0.25, 1e3);
  EXPECT_DOUBLE_EQ(s.value_at(0.0), 0.5);
  EXPECT_NEAR(s.value_at(0.25e-3), 0.75, 1e-12);  // quarter period peak
  EXPECT_NEAR(s.value_at(1e-3), 0.5, 1e-12);

  const Waveform p = Waveform::pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.value_at(2.0), 2.0);
  EXPECT_DOUBLE_EQ(p.value_at(10.0), 2.0);  // clamps past the last knot
  EXPECT_THROW((void)Waveform::pwl({{1.0, 0.0}, {0.5, 1.0}}), Error);
}

TEST(WaveformTest, ClonePreservesWaveform) {
  Circuit circuit;
  auto& v1 = circuit.add_vsource("V1", circuit.node("a"), kGround, 0.0);
  v1.set_waveform(Waveform::pulse(0.0, 1.0, 0.0, 1e-6));
  circuit.add_resistor("R1", circuit.node("a"), kGround, 1e3);
  const Circuit copy = circuit.clone();
  const auto& v1c = copy.get<VoltageSource>("V1");
  ASSERT_TRUE(v1c.has_waveform());
  EXPECT_DOUBLE_EQ(v1c.waveform().value_at(0.5e-6), 0.5);
}

}  // namespace
