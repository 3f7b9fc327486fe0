// Tests for the declarative analysis-plan API (spice/plan.hpp): probe
// parse/print round-trips, grids, SimSession::run golden equivalence
// against hand-written solve() loops, deterministic parallel 2-axis execution,
// and the zero-allocation-per-point guarantee (this binary links the
// icvbe_alloc_hook counting operator new/delete).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/testing/alloc_hook.hpp"

#include "dense_oracle.hpp"

namespace icvbe::spice {
namespace {

void build_diode_rig(Circuit& c) {
  DiodeModel dm;
  dm.is = 1e-14;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  c.add_vsource("V1", in, kGround, 0.0);
  c.add_resistor("R1", in, a, 1e3);
  c.add_diode("D1", a, kGround, dm);
}

bandgap::TestCellParams nominal_cell_params() {
  const lab::SiliconLot lot;
  bandgap::TestCellParams p;
  p.qa_model = lot.truth().pnp;
  p.qb_model = lot.truth().pnp;
  return p;
}

// ------------------------------------------------------------- probes ---

TEST(ProbeTest, ParseToStringRoundTrip) {
  const char* exprs[] = {
      "V(out)",
      "I(V1)",
      "IC(Q1)",
      "IB(Q1)",
      "IE(Q1)",
      "ISUB(Q1)",
      "(V(a)-V(b))",
      "((V(a)-V(b))*1000)",
      "(IC(QA)/IC(QB))",
      "0.00125",
  };
  for (const char* text : exprs) {
    const Probe p = parse_probe(text);
    EXPECT_EQ(p.to_string(), text) << "first print of " << text;
    EXPECT_EQ(parse_probe(p.to_string()).to_string(), p.to_string())
        << "round trip of " << text;
  }
}

TEST(ProbeTest, ParsePrecedenceAndSugar) {
  // * binds tighter than +.
  EXPECT_EQ(parse_probe("V(a)+V(b)*2").to_string(), "(V(a)+(V(b)*2))");
  // V(a,b) stays one typed differential pair (NOT expression sugar: in an
  // .AC analysis it must read |V(a)-V(b)|, which real subtraction of two
  // magnitudes cannot express).
  const Probe diff = parse_probe("V(a,b)");
  EXPECT_EQ(diff.kind(), Probe::Kind::kNodeVoltage);
  EXPECT_EQ(diff.target(), "a");
  EXPECT_EQ(diff.target2(), "b");
  EXPECT_EQ(diff.to_string(), "V(a,b)");
  // SPICE number suffixes work inside expressions.
  EXPECT_EQ(parse_probe("2.5k").value(), 2500.0);
  // Unary minus folds into constants.
  EXPECT_EQ(parse_probe("-3").value(), -3.0);
}

TEST(ProbeTest, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_probe(""), PlanError);
  EXPECT_THROW((void)parse_probe("V(out"), PlanError);
  EXPECT_THROW((void)parse_probe("W(out)"), PlanError);
  EXPECT_THROW((void)parse_probe("V(a))"), PlanError);
  EXPECT_THROW((void)parse_probe("V()"), PlanError);
  EXPECT_THROW((void)parse_probe("1 + "), PlanError);
}

TEST(ProbeTest, EvalAgainstSolvedCircuit) {
  Circuit c;
  build_diode_rig(c);
  c.get<VoltageSource>("V1").set_value(1.0);
  SimSession session(c);
  const Unknowns& x = session.solve_or_throw();

  const double v_a = x.node_voltage(c.find_node("a"));
  const double v_in = x.node_voltage(c.find_node("in"));
  EXPECT_DOUBLE_EQ(parse_probe("V(a)").eval(c, x), v_a);
  EXPECT_DOUBLE_EQ(parse_probe("V(in,a)").eval(c, x), v_in - v_a);
  EXPECT_DOUBLE_EQ(parse_probe("I(R1)").eval(c, x),
                   c.get<Resistor>("R1").terminals(x).pin[0].amps);
  EXPECT_DOUBLE_EQ(parse_probe("I(V1)").eval(c, x),
                   c.get<VoltageSource>("V1").terminals(x).pin[0].amps);
  EXPECT_DOUBLE_EQ(parse_probe("V(a)*2+1").eval(c, x), v_a * 2.0 + 1.0);
  EXPECT_THROW((void)parse_probe("V(nope)").eval(c, x), CircuitError);
  EXPECT_THROW((void)parse_probe("I(nope)").eval(c, x), CircuitError);
  EXPECT_THROW((void)parse_probe("IC(R1)").eval(c, x), CircuitError);
}

/// what() of the CircuitError `f` throws ("" if it throws none).
template <typename F>
std::string circuit_error_of(F&& f) {
  try {
    f();
  } catch (const CircuitError& e) {
    return e.what();
  }
  return "";
}

TEST(ProbeTest, CurrentLeavesReadTerminalsByOneRule) {
  // An op-amp follower into a load, and a diode-connected NPN.
  ParsedNetlist parsed = parse_netlist(
      "V1 in 0 1\n"
      "U1 out in out\n"
      "RL out 0 1k\n"
      "RQ in q 10k\n"
      "Q1 q q 0 NPN1\n"
      ".MODEL NPN1 NPN (IS=1e-16 BF=100)\n");
  Circuit& c = *parsed.circuit;
  SimSession session(c);
  const Unknowns& x = session.solve_or_throw();

  // I(U1) is the op-amp's terminal 0, its output current: the follower
  // sources V(out)/RL into the load, so the current into it is negative.
  const CompiledProbeSet set({parse_probe("I(U1)"), parse_probe("IB(Q1)")}, c);
  const double i_u1 = c.find("U1")->terminals(x).pin[0].amps;
  EXPECT_EQ(parse_probe("I(U1)").eval(c, x), i_u1);
  EXPECT_EQ(set.eval(0, x), i_u1);
  EXPECT_NEAR(i_u1, -x.node_voltage(c.find_node("out")) / 1e3, 1e-9);
  EXPECT_EQ(set.eval(1, x), c.get<Bjt>("Q1").currents(x).ib);

  // The error messages of the current leaves, through eval and compile.
  const std::vector<std::pair<std::string, std::string>> errors = {
      {"I(Q1)", "I(Q1): device has no branch current (use IC/IB/IE for "
                "BJTs)"},
      {"I(nope)", "I(nope): no device with that name"},
      {"IC(RL)", "device 'RL' has unexpected type"},
      {"IC(nope)", "no device named 'nope'"},
  };
  for (const auto& [text, message] : errors) {
    const Probe p = parse_probe(text);
    EXPECT_EQ(circuit_error_of([&] { (void)p.eval(c, x); }), message);
    EXPECT_EQ(circuit_error_of([&] { CompiledProbeSet bad({p}, c); }),
              message);
  }
}

// -------------------------------------------------------------- grids ---

TEST(SweepGridTest, MaterialiseAndValidate) {
  const auto lin = SweepGrid::linear(0.0, 1.0, 5).points();
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin[0], 0.0);
  EXPECT_DOUBLE_EQ(lin[2], 0.5);
  EXPECT_DOUBLE_EQ(lin[4], 1.0);

  const auto lst = SweepGrid::list({3.0, 1.0, 2.0}).points();
  ASSERT_EQ(lst.size(), 3u);
  EXPECT_DOUBLE_EQ(lst[0], 3.0);

  const auto log = SweepGrid::log_decades(1.0, 100.0, 2).points();
  EXPECT_DOUBLE_EQ(log.front(), 1.0);
  EXPECT_NEAR(log.back(), 100.0, 1e-9);
  const auto tiny = SweepGrid::log_decades(1e-8, 1e-5, 3).points();
  ASSERT_EQ(tiny.size(), 10u);
  EXPECT_NEAR(tiny.front(), 1e-8, 1e-20);
  EXPECT_NEAR(tiny.back(), 1e-5, 1e-12);
  for (std::size_t i = 1; i < tiny.size(); ++i) EXPECT_GT(tiny[i], tiny[i - 1]);

  EXPECT_THROW((void)SweepGrid::linear(0.0, 1.0, 1), PlanError);
  EXPECT_THROW((void)SweepGrid::list({}), PlanError);
  EXPECT_THROW((void)SweepGrid::log_decades(-1.0, 1.0, 3), PlanError);
}

// ----------------------------------------------------- run(): golden ---

TEST(AnalysisPlanTest, RunMatchesLegacyVsourceSweep) {
  // A 1-axis plan is the hand-written set/solve/probe loop, bit for bit.
  const auto values = SweepGrid::linear(0.0, 2.0, 41).points();

  Circuit ref;
  build_diode_rig(ref);
  SimSession ref_session(ref);
  auto& v1 = ref.get<VoltageSource>("V1");
  const NodeId a = ref.find_node("a");
  std::vector<double> golden;
  for (double v : values) {
    v1.set_value(v);
    golden.push_back(ref_session.solve_or_throw().node_voltage(a));
  }

  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  AnalysisPlan plan;
  plan.name = "diode_sweep";
  plan.axes = {SweepAxis::vsource("V1", SweepGrid::list(values))};
  plan.probes = {Probe::node_voltage("a")};
  const SweepResult got = session.run(plan);

  ASSERT_EQ(got.rows(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value(0, i)),
              std::bit_cast<std::uint64_t>(golden[i]))
        << "point " << i;
  }
}

TEST(AnalysisPlanTest, RunMatchesLegacyTemperatureSweepOnTestCell) {
  // The full bandgap test cell over temperature, warm-started from the
  // analytic guess: the declarative plan path must reproduce the
  // hand-written loop over SimSession::solve() bit for bit.
  const auto params = nominal_cell_params();
  const auto temps =
      SweepGrid::linear(to_kelvin(-40.0), to_kelvin(120.0), 9).points();

  Circuit ref;
  const auto hr = bandgap::build_test_cell(ref, params);
  SimSession ref_session(ref);
  ref.set_temperature(temps[0]);  // the guess reads temperature state
  ref_session.seed_warm_start(bandgap::cell_initial_guess(ref, hr, temps[0]));
  std::vector<double> golden;
  for (double t : temps) {
    ref.set_temperature(t);
    golden.push_back(ref_session.solve_or_throw().node_voltage(hr.vref));
  }

  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);
  c.set_temperature(temps[0]);
  session.seed_warm_start(bandgap::cell_initial_guess(c, h, temps[0]));
  AnalysisPlan plan;
  plan.name = "vref_sweep";
  plan.axes = {SweepAxis::temperature_kelvin(SweepGrid::list(temps))};
  plan.probes = {Probe::node_voltage(c.node_name(h.vref))};
  const SweepResult got = session.run(plan);

  ASSERT_EQ(got.rows(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value(0, i)),
              std::bit_cast<std::uint64_t>(golden[i]))
        << "T=" << temps[i];
  }
}

TEST(AnalysisPlanTest, LabIcvbeFamilyMatchesHandRolledLoop) {
  // Fig. 5 golden: the plan-based Laboratory::icvbe_family must reproduce
  // the legacy hand-rolled bias loop exactly (ideal instruments/thermal
  // isolate the solver path).
  lab::SiliconLot lot;
  lab::CampaignConfig cfg;
  cfg.ideal_instruments = true;
  cfg.ideal_thermal = true;
  lab::Laboratory laboratory(lot.sample(0), cfg);
  const std::vector<double> chambers{-50.0, 25.0, 125.0};
  const double vbe_min = 0.3, vbe_max = 0.75;
  const int points = 21;
  const auto family = laboratory.icvbe_family(chambers, vbe_min, vbe_max,
                                              points);

  // Legacy reference: fresh rig, explicit per-point set/solve/probe loop
  // (the pre-plan implementation).
  Circuit c;
  const NodeId e = c.node("e");
  c.add_vsource("VE", e, kGround, 0.6);
  c.add_bjt("DUT", kGround, kGround, e, lot.sample(0).qin, 1.0, kGround);
  SimSession session(c);
  auto& ve = c.get<VoltageSource>("VE");
  const auto& dut = c.get<Bjt>("DUT");

  ASSERT_EQ(family.size(), chambers.size());
  for (std::size_t f = 0; f < chambers.size(); ++f) {
    c.set_temperature(to_kelvin(chambers[f]));
    for (int i = 0; i < points; ++i) {
      const double setpoint =
          vbe_min + (vbe_max - vbe_min) * static_cast<double>(i) /
                        static_cast<double>(points - 1);
      ve.set_value(setpoint);
      const DcResult& r = session.solve();
      ASSERT_TRUE(r.converged);
      const double ic =
          std::max(std::abs(dut.currents(r.solution).ic), 1e-16);
      EXPECT_NEAR(family[f].y(static_cast<std::size_t>(i)), ic,
                  1e-12 * std::max(1.0, ic))
          << "chamber " << chambers[f] << " point " << i;
      EXPECT_DOUBLE_EQ(family[f].x(static_cast<std::size_t>(i)), setpoint);
    }
  }
}

// ------------------------------------------- 2-axis + parallelism ---

TEST(AnalysisPlanTest, TwoAxisParallelIsBitIdenticalForAnyThreadCount) {
  AnalysisPlan plan;
  plan.name = "grid";
  plan.axes = {SweepAxis::temperature_kelvin(SweepGrid::linear(250.0, 400.0,
                                                               6)),
               SweepAxis::vsource("V1", SweepGrid::linear(0.0, 2.0, 17))};
  plan.probes = {Probe::node_voltage("a"), Probe::branch_current("V1")};

  SweepResult results[3];
  const unsigned thread_counts[] = {1, 2, 5};
  for (int k = 0; k < 3; ++k) {
    Circuit c;
    build_diode_rig(c);
    SimSession session(c);
    plan.threads = thread_counts[k];
    results[k] = session.run(plan);
  }

  ASSERT_EQ(results[0].rows(), 6u * 17u);
  for (int k = 1; k < 3; ++k) {
    ASSERT_EQ(results[k].rows(), results[0].rows());
    for (std::size_t p = 0; p < results[0].probe_count(); ++p) {
      for (std::size_t r = 0; r < results[0].rows(); ++r) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(results[k].value(p, r)),
                  std::bit_cast<std::uint64_t>(results[0].value(p, r)))
            << "threads=" << thread_counts[k] << " probe=" << p
            << " row=" << r;
      }
    }
  }
}

// A plan carries no solver settings: every point solves under the
// NewtonOptions of the session that runs it, on this session and on every
// per-thread clone. One Newton iteration never converges (the first
// iteration is never accepted), so each run must fail.
TEST(AnalysisPlanTest, RunsUnderTheSessionsOptionsOnEveryThreadCount) {
  NewtonOptions one_iteration;
  one_iteration.max_iterations = 1;

  AnalysisPlan dc;
  dc.name = "grid";
  dc.axes = {SweepAxis::resistor("R1", SweepGrid::linear(1e3, 4e3, 4)),
             SweepAxis::vsource("V1", SweepGrid::linear(0.5, 2.0, 4))};
  dc.probes = {Probe::node_voltage("a")};

  AnalysisPlan ac;
  ac.name = "ac";
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kLinear;
  spec.points = 4;
  spec.fstart = 1e3;
  spec.fstop = 4e3;
  ac.ac = spec;
  ac.probes = {parse_probe("VM(a)")};

  for (const unsigned threads : {1u, 2u}) {
    for (AnalysisPlan* plan : {&dc, &ac}) {
      Circuit c;
      build_diode_rig(c);
      c.get<VoltageSource>("V1").set_value(2.0);
      c.get<VoltageSource>("V1").set_ac(1.0);
      SimSession session(c, one_iteration);
      plan->threads = threads;
      EXPECT_THROW((void)session.run(*plan), NumericalError)
          << plan->name << " threads=" << threads;
    }
  }

  // The AC workers stamp the session's gmin_floor too: a raised floor
  // moves every point, identically on one thread and on two.
  NewtonOptions leaky;
  leaky.gmin_floor = 1e-3;
  SweepResult results[3];
  const NewtonOptions options[] = {NewtonOptions{}, leaky, leaky};
  const unsigned thread_counts[] = {1, 1, 2};
  for (int k = 0; k < 3; ++k) {
    Circuit c;
    build_diode_rig(c);
    c.get<VoltageSource>("V1").set_value(2.0);
    c.get<VoltageSource>("V1").set_ac(1.0);
    SimSession session(c, options[k]);
    ac.threads = thread_counts[k];
    results[k] = session.run(ac);
  }
  for (std::size_t r = 0; r < results[0].rows(); ++r) {
    EXPECT_NE(results[1].value(0, r), results[0].value(0, r)) << "row=" << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[2].value(0, r)),
              std::bit_cast<std::uint64_t>(results[1].value(0, r)))
        << "row=" << r;
  }
}

TEST(AnalysisPlanTest, TwoAxisRowsAreBitIdenticalForAnySchedule) {
  // A self-biased NPN driven far above its design supply: a cold solve at
  // V1 = 40 V needs gmin stepping, so the fallback ladder re-analyses
  // mid-row. Every row must still start from the same pinned analysis,
  // whichever session ran what before it: any thread count, any
  // repetition, and a second run() on the same session all print the
  // first serial run's bits.
  const char* deck = R"(
V1 vcc 0 2
Q1 c b 0 NPN1
R1 vcc c 10k
R2 c b 87.3k
R3 b 0 1.27MEG
.MODEL NPN1 NPN (IS=1e-16 BF=100)
.STEP R1 5k 40k 5k
.DC V1 40 100 10
.PROBE V(c) V(b) I(V1)
)";
  const auto run_deck = [&](unsigned threads) {
    auto parsed = parse_netlist(deck);
    auto& c = *parsed.circuit;
    c.set_temperature(to_kelvin(parsed.temperature_celsius));
    SimSession session(c);
    AnalysisPlan plan = parsed.plans.front();
    plan.threads = threads;
    return session.run(plan);
  };
  const auto expect_bitwise = [](const SweepResult& got,
                                 const SweepResult& ref,
                                 const std::string& what) {
    ASSERT_EQ(got.rows(), ref.rows()) << what;
    for (std::size_t p = 0; p < ref.probe_count(); ++p) {
      for (std::size_t r = 0; r < ref.rows(); ++r) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value(p, r)),
                  std::bit_cast<std::uint64_t>(ref.value(p, r)))
            << what << " probe=" << p << " row=" << r;
      }
    }
  };

  {
    // The deck reaches the fallback ladder: a cold solve at the first
    // inner point falls down it to gmin stepping.
    auto parsed = parse_netlist(deck);
    auto& c = *parsed.circuit;
    c.set_temperature(to_kelvin(parsed.temperature_celsius));
    c.get<VoltageSource>("V1").set_value(40.0);
    SimSession session(c);
    const DcResult& cold = session.solve();
    ASSERT_TRUE(cold.converged);
    EXPECT_EQ(cold.strategy, "gmin");
  }

  const SweepResult reference = run_deck(1);
  ASSERT_EQ(reference.rows(), 8u * 7u);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (int rep = 0; rep < 20; ++rep) {
      expect_bitwise(run_deck(threads), reference,
                     "threads=" + std::to_string(threads) +
                         " rep=" + std::to_string(rep));
    }
  }

  // A warm session re-running the plan (a server's repeated RUN).
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  SimSession session(c);
  const AnalysisPlan& plan = parsed.plans.front();
  expect_bitwise(session.run(plan), reference, "first run");
  session.begin_variant();
  expect_bitwise(session.run(plan), reference, "second run");
}

/// V1 -> R1 -> collector of Q1, R2 collector -> base, R3 base -> ground,
/// with Q1 added *before* the resistors. (The deck parser instantiates
/// semiconductors after every other element, so a parsed circuit's device
/// order is already linear-first; only Circuit-API circuits interleave.)
void build_bjt_first_rig(Circuit& c) {
  const NodeId vcc = c.node("vcc");
  const NodeId col = c.node("c");
  const NodeId base = c.node("b");
  c.add_vsource("V1", vcc, kGround, 2.0);
  c.add_bjt("Q1", col, base, kGround, BjtModel{});
  c.add_resistor("R1", vcc, col, 10e3);
  c.add_resistor("R2", col, base, 100e3);
  c.add_resistor("R3", base, kGround, 1e6);
  c.set_temperature(300.15);
}

TEST(AnalysisPlanTest, NonlinearFirstRigMatchesDenseOracle) {
  // Q1 is added before R1..R3, so the session's linear part holds only V1
  // and it restamps Q1 and the resistors on every iteration. Every row
  // must agree with a dense LU. (The batched lanes on this rig are pinned
  // against the scalar session by test_lot_batch.)
  NewtonOptions tight;
  tight.v_abstol = 1e-11;
  tight.i_abstol = 1e-14;
  tight.reltol = 1e-12;
  AnalysisPlan plan;
  plan.name = "bjt_first";
  plan.axes = {SweepAxis::resistor("R1", SweepGrid::linear(5e3, 20e3, 4)),
               SweepAxis::vsource("V1", SweepGrid::linear(0.5, 3.0, 11))};
  plan.probes = {Probe::node_voltage("c"), Probe::node_voltage("b"),
                 Probe::branch_current("V1")};

  SweepResult got;
  {
    Circuit c;
    build_bjt_first_rig(c);
    SimSession session(c, tight);
    got = session.run(plan);
  }
  ASSERT_EQ(got.rows(), 4u * 11u);

  Circuit c;
  build_bjt_first_rig(c);
  oracle::DenseOracle dense(c, tight);
  for (std::size_t r = 0; r < got.rows(); ++r) {
    auto& r1 = c.get<Resistor>("R1");
    r1.set_nominal_resistance(got.axis_value(0, r));
    r1.set_temperature(c.temperature());
    c.get<VoltageSource>("V1").set_value(got.axis_value(1, r));
    const Unknowns& x = dense.solve();
    for (std::size_t p = 0; p < got.probe_count(); ++p) {
      EXPECT_NEAR(plan.probes[p].eval(c, x), got.value(p, r), 1e-10)
          << "probe=" << p << " row=" << r;
    }
  }
  // The load is on: Q1 pulls the collector well below the open-circuit
  // divider at the top of the sweep.
  EXPECT_LT(got.value(0, got.rows() - 1), 2.0);
}

TEST(AnalysisPlanTest, TwoAxisResistorStepMatchesManualReprogramming) {
  // Outer axis re-programs a resistor (the trim-curve shape); compare one
  // row against a manually re-programmed 1-axis run.
  AnalysisPlan plan;
  plan.name = "load_step";
  plan.axes = {SweepAxis::resistor("R1", SweepGrid::list({500.0, 2e3})),
               SweepAxis::vsource("V1", SweepGrid::linear(0.5, 1.5, 5))};
  plan.probes = {Probe::node_voltage("a")};

  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  const SweepResult grid = session.run(plan);

  Circuit c2;
  build_diode_rig(c2);
  c2.get<Resistor>("R1").set_nominal_resistance(2e3);
  SimSession s2(c2);
  AnalysisPlan row;
  row.axes = {SweepAxis::vsource("V1", SweepGrid::linear(0.5, 1.5, 5))};
  row.probes = {Probe::node_voltage("a")};
  const SweepResult second_row = s2.run(row);

  for (std::size_t i = 0; i < 5u; ++i) {
    EXPECT_NEAR(grid.value(0, 5u + i), second_row.value(0, i), 1e-12);
  }
}

TEST(AnalysisPlanTest, ResistorAxisHonoursTemperatureCoefficient) {
  // Every axis point keeps the tempco scaling of the circuit temperature
  // (1k TC1=2m at 127 C is 1.2k, not 1k): set_nominal_resistance carries
  // the resistor's last temperature factor.
  const char* deck = R"(
I1 0 n 1m
R1 n 0 1k TC1=2m
.TEMP 127
.DC R1 1k 2k 1k
.PROBE V(n)
)";
  auto parsed = parse_netlist(deck);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  SimSession session(c);
  const SweepResult r = session.run(parsed.plans.front());
  ASSERT_EQ(r.rows(), 2u);
  EXPECT_NEAR(r.value(0, 0), 1.2, 1e-4);   // 1k * 1.2 * 1mA
  EXPECT_NEAR(r.value(0, 1), 2.4, 1e-4);   // 2k * 1.2 * 1mA
}

TEST(AnalysisPlanTest, RunPutsSweptValuesBack) {
  // A warm session outlives its runs: every swept device and the
  // temperature go back to their pre-run values however the run ends.
  Circuit c;
  build_diode_rig(c);
  c.get<VoltageSource>("V1").set_value(0.3);
  c.set_temperature(300.0);
  SimSession session(c);
  AnalysisPlan plan;
  plan.axes = {SweepAxis::temperature_kelvin(SweepGrid::list({250.0, 350.0})),
               SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.2, 4))};
  plan.probes = {Probe::node_voltage("a")};
  (void)session.run(plan);
  EXPECT_EQ(c.get<VoltageSource>("V1").value(), 0.3);
  EXPECT_EQ(c.temperature(), 300.0);

  // A run cancelled after its first point unwinds the same way.
  struct CancelAfterFirstRow : RunObserver {
    bool on_row(std::size_t, const double*, std::size_t, const double*,
                std::size_t) override {
      return false;
    }
  } cancel;
  plan.axes = {SweepAxis::resistor("R1", SweepGrid::list({2e3, 3e3}))};
  EXPECT_THROW((void)session.run(plan, &cancel), CancelledError);
  EXPECT_EQ(c.get<Resistor>("R1").nominal_resistance(), 1e3);
  EXPECT_EQ(c.get<Resistor>("R1").resistance(), 1e3);
}

TEST(AnalysisPlanTest, RejectsSameTargetOnBothAxes) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);

  AnalysisPlan twice;
  twice.axes = {SweepAxis::vsource("V1", SweepGrid::list({1.0, 2.0})),
                SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.0, 3))};
  twice.probes = {Probe::node_voltage("a")};
  EXPECT_THROW((void)session.run(twice), PlanError);

  AnalysisPlan two_temps;
  two_temps.axes = {SweepAxis::temperature_celsius(SweepGrid::list({25.0})),
                    SweepAxis::temperature_kelvin(
                        SweepGrid::list({300.0, 310.0}))};
  two_temps.probes = {Probe::node_voltage("a")};
  EXPECT_THROW((void)session.run(two_temps), PlanError);
}

// --------------------------------------------------- result shaping ---

TEST(SweepResultTest, ConversionsAndCsv) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);

  AnalysisPlan plan;
  plan.name = "shapes";
  plan.axes = {SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.0, 3))};
  plan.probes = {Probe::node_voltage("a"), Probe::branch_current("V1")};
  const SweepResult r = session.run(plan);

  EXPECT_EQ(r.axis_count(), 1u);
  EXPECT_EQ(r.probe_count(), 2u);
  EXPECT_EQ(r.axis_labels()[0], "V1");
  EXPECT_EQ(r.probe_labels()[0], "V(a)");
  const Series s = r.series(0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.x(1), 0.5);
  EXPECT_DOUBLE_EQ(s.y(1), r.value(0, 1));
  EXPECT_THROW((void)r.series_family(0), Error);

  const Table t = r.table();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 3u);

  std::ostringstream os;
  r.write_csv(os);
  EXPECT_EQ(os.str().substr(0, 10), "V1,V(a),I(");

  // 2-axis: family conversion.
  AnalysisPlan plan2 = plan;
  plan2.axes = {SweepAxis::temperature_kelvin(SweepGrid::list({300.0,
                                                               350.0})),
                SweepAxis::vsource("V1", SweepGrid::linear(0.0, 1.0, 3))};
  const SweepResult r2 = session.run(plan2);
  EXPECT_EQ(r2.axis_count(), 2u);
  EXPECT_DOUBLE_EQ(r2.axis_value(0, 4), 350.0);
  EXPECT_DOUBLE_EQ(r2.axis_value(1, 4), 0.5);
  const auto fam = r2.series_family(0);
  ASSERT_EQ(fam.size(), 2u);
  EXPECT_EQ(fam[0].size(), 3u);
  EXPECT_THROW((void)r2.series(0), Error);
}

TEST(AnalysisPlanTest, ValidatesShape) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);

  AnalysisPlan no_axes;
  no_axes.probes = {Probe::node_voltage("a")};
  EXPECT_THROW((void)session.run(no_axes), PlanError);

  AnalysisPlan no_probes;
  no_probes.axes = {SweepAxis::vsource("V1", SweepGrid::list({1.0}))};
  EXPECT_THROW((void)session.run(no_probes), PlanError);

  AnalysisPlan three_axes;
  three_axes.axes = {SweepAxis::vsource("V1", SweepGrid::list({1.0})),
                     SweepAxis::vsource("V1", SweepGrid::list({1.0})),
                     SweepAxis::vsource("V1", SweepGrid::list({1.0}))};
  three_axes.probes = {Probe::node_voltage("a")};
  EXPECT_THROW((void)session.run(three_axes), PlanError);

  AnalysisPlan bad_device;
  bad_device.axes = {SweepAxis::vsource("NOPE", SweepGrid::list({1.0}))};
  bad_device.probes = {Probe::node_voltage("a")};
  EXPECT_THROW((void)session.run(bad_device), CircuitError);
}

// -------------------------------------------------- deck end-to-end ---

TEST(AnalysisPlanTest, DeckDescribedAnalysisExecutes) {
  const char* deck = R"(
V1 in 0 5
R1 in out 1k
R2 out 0 3k
.STEP R2 LIST 1k 3k
.DC V1 0 4 1
.PROBE V(out) I(V1) V(in,out)
)";
  auto parsed = parse_netlist(deck);
  ASSERT_FALSE(parsed.plans.empty());
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  SimSession session(c);
  const SweepResult r = session.run(parsed.plans.front());

  ASSERT_EQ(r.rows(), 2u * 5u);
  for (std::size_t o = 0; o < 2; ++o) {
    const double r2 = o == 0 ? 1e3 : 3e3;
    for (std::size_t i = 0; i < 5; ++i) {
      const double v = static_cast<double>(i);
      const double expect_out = v * r2 / (1e3 + r2);
      // Tolerances sit above the solver's gmin floor (1e-12 S to ground).
      EXPECT_NEAR(r.value(0, o * 5 + i), expect_out, 1e-7);
      EXPECT_NEAR(r.value(1, o * 5 + i), -v / (1e3 + r2), 1e-10);
      EXPECT_NEAR(r.value(2, o * 5 + i), v - expect_out, 1e-7);
    }
  }
}

// ------------------------------------------------- zero allocations ---

// ------------------------------------------------- streaming observer ---

/// Records every callback; optionally cancels after `cancel_after` rows.
class RecordingObserver : public RunObserver {
 public:
  explicit RecordingObserver(std::size_t cancel_after = SIZE_MAX)
      : cancel_after_(cancel_after) {}

  void on_begin(const std::vector<std::string>& axis_labels,
                const std::vector<std::string>& probe_labels,
                std::size_t expected_rows) override {
    ++begins_;
    axis_labels_ = axis_labels;
    probe_labels_ = probe_labels;
    expected_rows_ = expected_rows;
  }

  bool on_row(std::size_t row, const double* axes, std::size_t axis_count,
              const double* probes, std::size_t probe_count) override {
    Row r;
    r.row = row;
    r.axes.assign(axes, axes + axis_count);
    r.probes.assign(probes, probes + probe_count);
    rows_.push_back(std::move(r));
    return rows_.size() < cancel_after_;
  }

  struct Row {
    std::size_t row = 0;
    std::vector<double> axes;
    std::vector<double> probes;
  };
  int begins_ = 0;
  std::vector<std::string> axis_labels_;
  std::vector<std::string> probe_labels_;
  std::size_t expected_rows_ = 0;
  std::vector<Row> rows_;
  std::size_t cancel_after_;
};

TEST(RunObserverTest, DcSweepStreamsEveryRowInOrder) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);

  AnalysisPlan plan;
  plan.name = "stream";
  plan.axes = {SweepAxis::vsource("V1", SweepGrid::linear(0.0, 2.0, 9))};
  plan.probes = {Probe::node_voltage("a"), Probe::branch_current("V1")};

  RecordingObserver obs;
  const SweepResult r = session.run(plan, &obs);

  EXPECT_EQ(obs.begins_, 1);
  EXPECT_EQ(obs.axis_labels_, r.axis_labels());
  EXPECT_EQ(obs.probe_labels_, r.probe_labels());
  EXPECT_EQ(obs.expected_rows_, r.rows());
  ASSERT_EQ(obs.rows_.size(), r.rows());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    EXPECT_EQ(obs.rows_[i].row, i) << "serial delivery is in row order";
    ASSERT_EQ(obs.rows_[i].axes.size(), 1u);
    EXPECT_EQ(obs.rows_[i].axes[0], r.axis_value(0, i));
    ASSERT_EQ(obs.rows_[i].probes.size(), 2u);
    // Streamed values must be the exact bits the result holds.
    EXPECT_EQ(obs.rows_[i].probes[0], r.value(0, i));
    EXPECT_EQ(obs.rows_[i].probes[1], r.value(1, i));
  }
}

TEST(RunObserverTest, TwoAxisParallelStreamsEveryRowExactlyOnce) {
  // Parallel delivery order is unspecified, but every row arrives exactly
  // once with the exact result bits (the observer is called from worker
  // threads; RecordingObserver is safe here because deliveries are
  // serialised per... no -- they are NOT serialised. Guard with a mutex.)
  class LockedObserver : public RunObserver {
   public:
    bool on_row(std::size_t row, const double* axes, std::size_t axis_count,
                const double* probes, std::size_t probe_count) override {
      const std::lock_guard<std::mutex> lock(mutex_);
      (void)axes;
      (void)axis_count;
      rows_.emplace_back(row, std::vector<double>(probes,
                                                  probes + probe_count));
      return true;
    }
    std::mutex mutex_;
    std::vector<std::pair<std::size_t, std::vector<double>>> rows_;
  };

  AnalysisPlan plan;
  plan.name = "grid";
  plan.axes = {SweepAxis::temperature_kelvin(SweepGrid::linear(250.0, 400.0,
                                                               4)),
               SweepAxis::vsource("V1", SweepGrid::linear(0.0, 2.0, 9))};
  plan.probes = {Probe::node_voltage("a")};
  plan.threads = 4;

  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  LockedObserver obs;
  const SweepResult r = session.run(plan, &obs);

  ASSERT_EQ(obs.rows_.size(), r.rows());
  std::vector<bool> seen(r.rows(), false);
  for (const auto& [row, probes] : obs.rows_) {
    ASSERT_LT(row, r.rows());
    EXPECT_FALSE(seen[row]) << "row " << row << " delivered twice";
    seen[row] = true;
    ASSERT_EQ(probes.size(), 1u);
    EXPECT_EQ(probes[0], r.value(0, row));
  }
}

TEST(RunObserverTest, AcStreamsFrequencyRows) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  VoltageSource& v1 = c.add_vsource("V1", in, kGround, 0.0);
  v1.set_ac(1.0);
  c.add_resistor("R1", in, out, 1.0e3);
  c.add_capacitor("C1", out, kGround, 1.0e-6);
  SimSession session(c);

  AnalysisPlan plan;
  plan.name = "ac";
  AcSpec spec;
  spec.spacing = AcSpec::Spacing::kDecade;
  spec.points = 5;
  spec.fstart = 1.0;
  spec.fstop = 1.0e4;
  plan.ac = spec;
  plan.probes = {parse_probe("VDB(out)")};

  RecordingObserver obs;
  const SweepResult r = session.run(plan, &obs);

  EXPECT_EQ(obs.axis_labels_, std::vector<std::string>{"FREQ"});
  EXPECT_EQ(obs.expected_rows_, r.rows());
  ASSERT_EQ(obs.rows_.size(), r.rows());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    EXPECT_EQ(obs.rows_[i].axes[0], r.axis_value(0, i));
    EXPECT_EQ(obs.rows_[i].probes[0], r.value(0, i));
  }
}

TEST(RunObserverTest, TransientStreamsTimepoints) {
  const char* deck = R"(
V1 in 0 PULSE(0 1 1u 1u 1u 10u 40u)
R1 in out 1k
C1 out 0 1n
.TRAN 0.5u 20u
.PROBE V(out)
)";
  auto parsed = parse_netlist(deck);
  SimSession session(*parsed.circuit);

  RecordingObserver obs;
  const SweepResult r = session.run(parsed.plans.front(), &obs);

  EXPECT_EQ(obs.axis_labels_, std::vector<std::string>{"TIME"});
  EXPECT_EQ(obs.expected_rows_, 0u)
      << "adaptive stepping cannot predict the row count";
  ASSERT_EQ(obs.rows_.size(), r.rows());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    EXPECT_EQ(obs.rows_[i].row, i);
    EXPECT_EQ(obs.rows_[i].axes[0], r.axis_value(0, i));
    EXPECT_EQ(obs.rows_[i].probes[0], r.value(0, i));
  }
}

TEST(RunObserverTest, CancellationThrowsAndSessionStaysUsable) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);

  AnalysisPlan plan;
  plan.name = "cancel-me";
  plan.axes = {SweepAxis::vsource("V1", SweepGrid::linear(0.0, 2.0, 21))};
  plan.probes = {Probe::node_voltage("a")};

  RecordingObserver obs(5);  // cancel after 5 rows
  EXPECT_THROW((void)session.run(plan, &obs), CancelledError);
  EXPECT_EQ(obs.rows_.size(), 5u);

  // A cancelled run must not poison the session: the same plan runs to
  // completion immediately afterwards.
  const SweepResult r = session.run(plan);
  EXPECT_EQ(r.rows(), 21u);
}

TEST(RunObserverTest, ParallelCancellationStopsWorkers) {
  class CancelAfter : public RunObserver {
   public:
    bool on_row(std::size_t, const double*, std::size_t, const double*,
                std::size_t) override {
      return count_.fetch_add(1) < 3;
    }
    std::atomic<int> count_{0};
  };

  AnalysisPlan plan;
  plan.name = "grid-cancel";
  plan.axes = {SweepAxis::temperature_kelvin(SweepGrid::linear(250.0, 400.0,
                                                               8)),
               SweepAxis::vsource("V1", SweepGrid::linear(0.0, 2.0, 9))};
  plan.probes = {Probe::node_voltage("a")};
  plan.threads = 4;

  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  CancelAfter obs;
  EXPECT_THROW((void)session.run(plan, &obs), CancelledError);
  // Cancellation is cooperative at row granularity: each worker delivers
  // at most the row it is on, so the total is bounded well below the full
  // 72-row grid.
  EXPECT_LT(obs.count_.load(), 72);
}

TEST(RunObserverTest, AcCancellationStopsAndTheSessionRerunsLikeAFreshOne) {
  // An RC low-pass over 21 frequencies, cancelled at its third row, on one
  // thread (the session itself) and on four (clones). The run throws and
  // stops short of the grid; the same session's next full run then prints
  // the bits a fresh session's run prints.
  class CancelAfter : public RunObserver {
   public:
    bool on_row(std::size_t, const double*, std::size_t, const double*,
                std::size_t) override {
      return count_.fetch_add(1) + 1 < 3;
    }
    std::atomic<int> count_{0};
  };
  const auto build = [](Circuit& c) {
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add_vsource("V1", in, kGround, 0.0).set_ac(1.0);
    c.add_resistor("R1", in, out, 1.0e3);
    c.add_capacitor("C1", out, kGround, 1.0e-6);
  };
  AnalysisPlan plan;
  plan.name = "ac-cancel";
  AcSpec spec;
  spec.points = 5;
  spec.fstart = 1.0;
  spec.fstop = 1.0e4;
  plan.ac = spec;
  plan.probes = {parse_probe("VDB(out)"), parse_probe("VP(out)")};

  for (const unsigned threads : {1u, 4u}) {
    plan.threads = threads;
    Circuit c;
    build(c);
    SimSession session(c);
    CancelAfter obs;
    EXPECT_THROW((void)session.run(plan, &obs), CancelledError)
        << threads << " threads";
    EXPECT_GE(obs.count_.load(), 3);
    EXPECT_LT(obs.count_.load(), 21) << threads << " threads";

    session.begin_variant();
    const SweepResult again = session.run(plan);
    Circuit fresh_circuit;
    build(fresh_circuit);
    SimSession fresh(fresh_circuit);
    const SweepResult want = fresh.run(plan);
    ASSERT_EQ(again.rows(), 21u);
    ASSERT_EQ(want.rows(), 21u);
    for (std::size_t p = 0; p < want.probe_count(); ++p) {
      for (std::size_t i = 0; i < want.rows(); ++i) {
        EXPECT_EQ(again.value(p, i), want.value(p, i))
            << threads << " threads, probe " << p << " row " << i;
      }
    }
  }
}

TEST(RunObserverTest, TransientCancellationRestoresDcMode) {
  const char* deck = R"(
V1 in 0 PULSE(0 1 1u 1u 1u 10u 40u)
R1 in out 1k
C1 out 0 1n
.TRAN 0.5u 20u
.PROBE V(out)
)";
  auto parsed = parse_netlist(deck);
  SimSession session(*parsed.circuit);

  RecordingObserver obs(3);
  EXPECT_THROW((void)session.run(parsed.plans.front(), &obs), CancelledError);

  // The solver's destructor restored DC mode: a fresh full run succeeds
  // and matches an uncancelled session.
  const SweepResult again = session.run(parsed.plans.front());
  EXPECT_GT(again.rows(), 10u);
}

TEST(AnalysisPlanTest, LinearGridSweepAnalysesOnceAndSkipsEveryRefactor) {
  // A linear circuit's matrix does not depend on the source value a .DC
  // sweep moves, nor on the Newton iterate: one symbolic analysis, and
  // every later refactor sees an identical matrix and is skipped.
  SyntheticNetlistSpec gen;
  gen.topology = SyntheticTopology::kGrid;
  gen.nodes = 400;
  gen.seed = 3;
  auto parsed = parse_netlist(generate_netlist(gen));
  ASSERT_FALSE(parsed.plans.empty());
  SimSession session(*parsed.circuit);
  const SweepResult r = session.run(parsed.plans.front());
  EXPECT_EQ(r.rows(), 7u);
  const linalg::SparseLuFactorization& lu = session.sparse_lu();
  EXPECT_EQ(lu.analysis_count(), 1);
  EXPECT_EQ(lu.refactor_stats().full, 0u);
  EXPECT_EQ(lu.refactor_stats().partial, 0u);
  EXPECT_EQ(lu.refactor_stats().steps_replayed, 0u);
  EXPECT_GE(lu.refactor_stats().skipped, 2u * r.rows() - 1);
  EXPECT_EQ(session.sparse_matrix().tape().misses(), 0u);
}

TEST(AnalysisPlanTest, SteadyStateAllocationsIndependentOfPointCount) {
  // The per-point path of run() must not touch the heap: executing 10x the
  // points performs exactly the same number of allocations (result storage
  // is sized upfront; probes are compiled once).
  const auto params = nominal_cell_params();
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);
  session.seed_warm_start(
      bandgap::cell_initial_guess(c, h, to_kelvin(25.0)));

  AnalysisPlan small;
  small.name = "alloc";
  small.axes = {SweepAxis::temperature_kelvin(
      SweepGrid::linear(to_kelvin(20.0), to_kelvin(45.0), 50))};
  small.probes = {Probe::node_voltage(c.node_name(h.vref))};
  AnalysisPlan large = small;
  large.axes = {SweepAxis::temperature_kelvin(
      SweepGrid::linear(to_kelvin(20.0), to_kelvin(45.0), 500))};

  (void)session.run(small);  // warm-up: lazily sized solver buffers

  const std::uint64_t a0 = icvbe::testing::allocation_count();
  const SweepResult rs = session.run(small);
  const std::uint64_t a1 = icvbe::testing::allocation_count();
  const SweepResult rl = session.run(large);
  const std::uint64_t a2 = icvbe::testing::allocation_count();

  EXPECT_EQ(rs.rows(), 50u);
  EXPECT_EQ(rl.rows(), 500u);
  EXPECT_EQ(a1 - a0, a2 - a1)
      << "run() allocation count scales with point count -- the per-point "
         "path touched the heap";
}

}  // namespace
}  // namespace icvbe::spice
