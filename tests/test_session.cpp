// Tests for spice::SimSession: golden equivalence against the per-point
// bandgap path, warm-start continuation, topology-change guard, the
// zero-allocation guarantee of the Newton inner loop (this binary links
// the icvbe_alloc_hook counting operator new/delete), and newton_update's
// rejection of a non-finite iterate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "icvbe/bandgap/banba_cell.hpp"
#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/transient.hpp"
#include "icvbe/testing/alloc_hook.hpp"

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

TEST(SimSessionTest, GoldenTemperatureSweepOnTestCell) {
  // The full bandgap test cell over temperature: the session path must
  // reproduce the legacy per-point path to <= 1e-12.
  const auto params = nominal_cell_params();
  const auto temps =
      SweepGrid::linear(to_kelvin(-40.0), to_kelvin(120.0), 9).points();

  // Legacy: fresh circuit + solve_cell_at(circuit, ...) per point.
  std::vector<double> golden;
  for (double t : temps) {
    Circuit c;
    const auto h = bandgap::build_test_cell(c, params);
    golden.push_back(bandgap::solve_cell_at(c, h, t).vref);
  }

  // Session with the legacy start policy (analytic guess at every point):
  // the reused workspace must reproduce the per-point path to <= 1e-12.
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    session.invalidate_warm_start();  // same start point as the legacy path
    const auto obs = bandgap::solve_cell_at(session, h, temps[i]);
    EXPECT_NEAR(obs.vref, golden[i], 1e-12) << "T=" << temps[i];
  }

  // Warm-start continuation lands on the same operating point within the
  // Newton tolerance (different iterates, same solution).
  Circuit cw;
  const auto hw = bandgap::build_test_cell(cw, params);
  SimSession warm(cw);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    const auto obs = bandgap::solve_cell_at(warm, hw, temps[i]);
    EXPECT_NEAR(obs.vref, golden[i], 1e-8) << "T=" << temps[i];
  }
}

TEST(SimSessionTest, WarmStartReducesIterations) {
  const auto params = nominal_cell_params();
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);

  (void)bandgap::solve_cell_at(session, h, 300.0);
  c.set_temperature(300.5);
  const int cold_like = session.solve().iterations;  // warm from 300.0
  EXPECT_TRUE(session.solve().converged);

  // A fresh cold session needs strictly more iterations than the warm
  // continuation half a kelvin away.
  Circuit c2;
  const auto h2 = bandgap::build_test_cell(c2, params);
  SimSession s2(c2);
  c2.set_temperature(300.5);
  const auto guess = bandgap::cell_initial_guess(c2, h2, 300.5);
  s2.seed_warm_start(guess);
  const int from_guess = s2.solve().iterations;
  EXPECT_LE(cold_like, from_guess);
}

TEST(SimSessionTest, TopologyChangeIsDetected) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  EXPECT_TRUE(session.solve().converged);

  c.add_resistor("R2", c.node("a"), kGround, 1e6);
  EXPECT_THROW((void)session.solve(), CircuitError);
  session.rebind();
  EXPECT_TRUE(session.solve().converged);
}

TEST(SimSessionTest, RunFailureThrowsWithContext) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_vsource("V2", a, kGround, 2.0);  // conflicting ideal sources
  SimSession session(c);
  AnalysisPlan plan;
  plan.name = "conflict";
  plan.axes = {SweepAxis::vsource("V1", SweepGrid::list({1.5}))};
  plan.probes = {Probe::constant(0.0)};
  try {
    (void)session.run(plan);
    FAIL() << "run() returned from a point that cannot converge";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("conflict: DC solve failed at V1=1.5"),
              std::string::npos)
        << e.what();
  }
}

TEST(SimSessionTest, ConstCircuitAccessInProbes) {
  Circuit c;
  build_diode_rig(c);
  c.get<VoltageSource>("V1").set_value(1.0);
  SimSession session(c);
  const Unknowns& x = session.solve_or_throw();

  const Circuit& cc = c;
  EXPECT_NE(cc.find("R1"), nullptr);
  EXPECT_EQ(cc.find("nope"), nullptr);
  const auto& r1 = cc.get<Resistor>("R1");
  EXPECT_GT(std::abs(r1.terminals(x).pin[0].amps), 0.0);
  EXPECT_THROW((void)cc.get<VoltageSource>("R1"), CircuitError);
}

TEST(SimSessionTest, NewtonLoopIsAllocationFreeAfterSetup) {
  const auto params = nominal_cell_params();
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);

  // Warm-up: first solves populate every lazily-sized buffer (the analytic
  // startup guess keeps Newton out of the all-off basin).
  c.set_temperature(to_kelvin(25.0));
  session.seed_warm_start(bandgap::cell_initial_guess(c, h, to_kelvin(25.0)));
  ASSERT_TRUE(session.solve().converged);
  c.set_temperature(to_kelvin(26.0));
  ASSERT_TRUE(session.solve().converged);

  // Steady state: temperature steps + solves must not touch the heap.
  const std::uint64_t before = icvbe::testing::allocation_count();
  bool all_converged = true;
  double vref_sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    c.set_temperature(to_kelvin(25.0 + 0.5 * i));
    const DcResult& r = session.solve();
    all_converged = all_converged && r.converged;
    vref_sum += r.solution.node_voltage(1);
  }
  const std::uint64_t after = icvbe::testing::allocation_count();

  EXPECT_TRUE(all_converged);
  EXPECT_GT(std::abs(vref_sum), 0.0);
  EXPECT_EQ(after - before, 0u)
      << "SimSession::solve() allocated on the steady-state path";
}

TEST(SimSessionTest, BanbaSweepIsAllocationFreeAfterWarmUp) {
  // The sub-1-V cell (PMOS mirror, op-amp, PNPs): 100 points from -55 to
  // 125 C through solve_banba_at on one session warmed at the first point.
  const lab::SiliconLot lot;
  bandgap::BanbaCellParams p;
  p.qa_model = lot.truth().pnp;
  p.qb_model = lot.truth().pnp;
  p.pmos = bandgap::banba_default_pmos();
  Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  NewtonOptions opt;
  opt.max_iterations = 400;
  SimSession session(c, opt);
  const std::vector<double> temps =
      SweepGrid::linear(to_kelvin(-55.0), to_kelvin(125.0), 100).points();
  (void)bandgap::solve_banba_at(session, h, p, temps.front());

  const std::uint64_t before = icvbe::testing::allocation_count();
  double vref_sum = 0.0;
  for (double t : temps) {
    vref_sum += bandgap::solve_banba_at(session, h, p, t).vref;
  }
  const std::uint64_t after = icvbe::testing::allocation_count();

  EXPECT_GT(vref_sum, 0.0);
  EXPECT_EQ(after - before, 0u)
      << "solve_banba_at allocated on a warmed session";
}

// ---------------------------------------------------------------------------
// The linear-device contract (Device::is_nonlinear): a device reporting
// itself linear stamps values independent of the iterate and keeps no
// state a stamp can change. SimSession stamps such devices once per Newton
// attempt and loads that stamp on later iterations, so a device breaking
// the contract would silently freeze at iteration 0.

/// One stamp of `dev` at `x` into a fresh dense system.
struct DenseStamp {
  linalg::Matrix a;  ///< the building-mode stamp, densified
  linalg::Vector b;
};

constexpr int kContractNodes = 4;  // nodes 1..4; one aux row follows

DenseStamp stamp_alone(Device& dev, const Unknowns& x) {
  const std::size_t n = x.size();
  linalg::SparseMatrix a(n, n);
  linalg::Vector b(n, 0.0);
  Stamper st(a, b, kContractNodes);
  dev.stamp(st, x);
  a.freeze_pattern();
  return {a.to_dense(), std::move(b)};
}

bool bitwise_equal(const DenseStamp& p, const DenseStamp& q) {
  const std::size_t n = p.b.size();
  for (std::size_t r = 0; r < n; ++r) {
    if (std::bit_cast<std::uint64_t>(p.b[r]) !=
        std::bit_cast<std::uint64_t>(q.b[r])) {
      return false;
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (std::bit_cast<std::uint64_t>(p.a(r, c)) !=
          std::bit_cast<std::uint64_t>(q.a(r, c))) {
        return false;
      }
    }
  }
  return true;
}

Unknowns iterate(std::initializer_list<double> values) {
  Unknowns x(values.size());
  std::copy(values.begin(), values.end(), x.raw().begin());
  return x;
}

/// A dynamic device in transient mode with non-zero companion memory:
/// state initialised at `x0`, one step committed at `x1`, next step begun.
template <typename Dyn>
std::unique_ptr<Device> stepping(std::unique_ptr<Dyn> d,
                                 IntegrationMethod method) {
  d->set_first_aux(kContractNodes);
  const Unknowns x0 = iterate({0.2, -0.1, 0.05, 0.4, 1e-3});
  const Unknowns x1 = iterate({0.7, 0.3, -0.2, 0.1, 2e-3});
  d->init_state(x0);
  d->begin_step(method, companion_scale(method, 1e-6));
  d->commit(x1);
  d->begin_step(method, companion_scale(method, 5e-7));
  return d;
}

TEST(LinearDeviceContract, StampIgnoresIterateAndKeepsState) {
  using Make = std::function<std::unique_ptr<Device>()>;
  const auto with_aux = [](std::unique_ptr<Device> d) {
    d->set_first_aux(kContractNodes);
    return d;
  };
  const auto be = IntegrationMethod::kBackwardEuler;
  const auto trap = IntegrationMethod::kTrapezoidal;
  const std::vector<std::pair<std::string, Make>> cases = {
      {"Resistor",
       [] {
         auto r = std::make_unique<Resistor>("R1", 1, 2, 1.5e3, 1e-3, 1e-6);
         r->set_temperature(350.0);
         return r;
       }},
      {"VoltageSource",
       [&] {
         return with_aux(std::make_unique<VoltageSource>("V1", 1, 0, 1.2));
       }},
      {"CurrentSource",
       [] { return std::make_unique<CurrentSource>("I1", 2, 3, 1e-4); }},
      {"Vcvs",
       [&] {
         return with_aux(std::make_unique<Vcvs>("E1", 1, 2, 3, 4, 12.5));
       }},
      {"OpAmp",
       [&] {
         return with_aux(std::make_unique<OpAmp>("U1", 1, 2, 3, 1e6, 2e-3));
       }},
      {"Capacitor/DC",
       [] { return std::make_unique<Capacitor>("C1", 1, 2, 1e-9); }},
      {"Inductor/DC",
       [&] { return with_aux(std::make_unique<Inductor>("L1", 3, 4, 1e-6)); }},
      {"Capacitor/BE",
       [&] {
         return stepping(std::make_unique<Capacitor>("C1", 1, 2, 1e-9), be);
       }},
      {"Capacitor/TRAP",
       [&] {
         return stepping(std::make_unique<Capacitor>("C1", 1, 2, 1e-9), trap);
       }},
      {"Inductor/BE",
       [&] {
         return stepping(std::make_unique<Inductor>("L1", 3, 4, 1e-6), be);
       }},
      {"Inductor/TRAP",
       [&] {
         return stepping(std::make_unique<Inductor>("L1", 3, 4, 1e-6), trap);
       }},
  };

  const Unknowns x1 = iterate({0.3, -1.7, 2.5, 0.01, 4e-3});
  const Unknowns x2 = iterate({-4.0, 0.65, 1e-3, 9.0, -7e-2});
  for (const auto& [name, make] : cases) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Device> dev = make();
    EXPECT_FALSE(dev->is_nonlinear());
    const double power_before = dev->power(x1);

    const DenseStamp at_x1 = stamp_alone(*dev, x1);
    const DenseStamp at_x2 = stamp_alone(*dev, x2);
    EXPECT_TRUE(bitwise_equal(at_x1, at_x2))
        << "the stamp depends on the iterate";
    // The two stamps left nothing behind that a later stamp, the power
    // or a probe would see.
    EXPECT_TRUE(bitwise_equal(stamp_alone(*dev, x1), at_x1))
        << "stamping changed the device's state";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dev->power(x1)),
              std::bit_cast<std::uint64_t>(power_before));
    bool stamped_something = false;
    for (std::size_t r = 0; r < x1.size(); ++r) {
      stamped_something = stamped_something || at_x1.b[r] != 0.0;
      for (std::size_t c = 0; c < x1.size(); ++c) {
        stamped_something = stamped_something || at_x1.a(r, c) != 0.0;
      }
    }
    EXPECT_TRUE(stamped_something || name == "Capacitor/DC");
  }
}

TEST(LinearDeviceContract, JunctionDevicesReportNonlinear) {
  EXPECT_TRUE(Diode("D1", 1, 0, DiodeModel{}).is_nonlinear());
  EXPECT_TRUE(Bjt("Q1", 1, 2, 0, BjtModel{}).is_nonlinear());
  EXPECT_TRUE(Mosfet("M1", 1, 2, 0, MosfetModel{}).is_nonlinear());
}

// ---------------------------------------------------------------------------
// The saving itself: a Newton attempt stamps each linear device once and
// each nonlinear device on every iteration.

/// Wraps a device and counts its stamp() calls; reports the wrapped
/// device's linearity.
class CountingDevice final : public Device {
 public:
  CountingDevice(std::unique_ptr<Device> inner, long* stamps)
      : Device(inner->name()), inner_(std::move(inner)), stamps_(stamps) {}

  [[nodiscard]] std::unique_ptr<Device> clone() const override {
    return std::make_unique<CountingDevice>(inner_->clone(), stamps_);
  }
  void set_temperature(double t_kelvin) override {
    inner_->set_temperature(t_kelvin);
  }
  void stamp(Stamper& stamper, const Unknowns& prev) override {
    ++*stamps_;
    inner_->stamp(stamper, prev);
  }
  [[nodiscard]] bool is_nonlinear() const override {
    return inner_->is_nonlinear();
  }
  void reset_state() override { inner_->reset_state(); }
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override {
    return inner_->terminals(x);
  }

 private:
  std::unique_ptr<Device> inner_;
  long* stamps_;
};

/// A 20-stage RC ladder driven by V1, loaded by a diode; one ladder
/// resistor and the diode are wrapped in CountingDevice.
struct CountedLadder {
  Circuit c;
  long linear_stamps = 0;
  long diode_stamps = 0;
  VoltageSource* v1 = nullptr;

  CountedLadder() {
    const auto name = [](char prefix, int k) {
      std::string s(1, prefix);
      s += std::to_string(k);
      return s;
    };
    v1 = &c.add_vsource("V1", c.node("n0"), kGround, 1.0);
    v1->set_waveform(Waveform::pulse(0.0, 1.5, 1e-6, 1e-6, 1e-6, 20e-6));
    for (int k = 1; k <= 20; ++k) {
      const NodeId prev = c.node(name('n', k - 1));
      const NodeId node = c.node(name('n', k));
      if (k == 7) {
        c.add_device(std::make_unique<CountingDevice>(
            std::make_unique<Resistor>(name('R', k), prev, node, 100.0),
            &linear_stamps));
      } else {
        c.add_resistor(name('R', k), prev, node, 100.0);
      }
      c.add_capacitor(name('C', k), node, kGround, 1e-9);
    }
    DiodeModel dm;
    dm.is = 1e-14;
    c.add_device(std::make_unique<CountingDevice>(
        std::make_unique<Diode>("D1", c.node("n20"), kGround, dm),
        &diode_stamps));
  }
};

TEST(SimSessionTest, LinearDevicesStampOncePerNewtonAttempt) {
  CountedLadder rig;
  SimSession session(rig.c);
  rig.linear_stamps = 0;  // the bind's pattern-discovery pass
  rig.diode_stamps = 0;

  long solves = 0;
  long iterations = 0;
  for (const double v : {0.2, 0.7, 1.1, 1.6, 2.4, 3.0}) {
    rig.v1->set_value(v);
    const DcResult& r = session.solve();
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(r.strategy, "newton");
    ++solves;
    iterations += r.iterations;
  }
  // One plain Newton attempt per solve here: the linear device stamped
  // once per attempt, the diode on every iteration.
  EXPECT_EQ(rig.linear_stamps, solves);
  EXPECT_EQ(rig.diode_stamps, iterations);
  EXPECT_GT(iterations, 2 * solves);
}

TEST(SimSessionTest, TransientStampsLinearDevicesOncePerRun) {
  // A transient run stamps a linear prefix device twice in all: once in
  // the operating point's one Newton attempt and once to build G_lin.
  // Every step attempt starts from G_lin + (alpha/h)*C instead, so the
  // count does not grow with the attempts.
  CountedLadder rig;
  SimSession session(rig.c);
  rig.linear_stamps = 0;  // the bind's pattern-discovery pass
  TransientSpec spec;
  spec.tstep = 1e-6;
  spec.tstop = 40e-6;
  TransientSolver tran(session, spec);
  tran.begin();
  EXPECT_EQ(rig.linear_stamps, 2);
  rig.diode_stamps = 0;
  while (tran.advance()) {
  }
  EXPECT_GT(tran.steps_rejected(), 0);
  EXPECT_GT(tran.steps_accepted(), 20);
  EXPECT_EQ(rig.linear_stamps, 2);
  EXPECT_EQ(rig.diode_stamps, tran.newton_iterations());
  EXPECT_GT(tran.newton_iterations(),
            tran.steps_accepted() + tran.steps_rejected());
}

TEST(NewtonUpdateTest, NonFiniteIterateDiverges) {
  // Every entry of the next iterate is tested, node or aux: a NaN slips
  // through max()-based norms and `dx > tol` tests alike, and an infinite
  // node step scales the whole step to zero (0 * inf = NaN).
  const NewtonOptions opt;
  const int nodes = 2;
  const std::vector<double> x0{1.0, 2.0, 1e-3};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf}) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t at = 0; at < x0.size(); ++at) {
        SCOPED_TRACE("bad " + std::to_string(bad) + " stride " +
                     std::to_string(stride) + " at " + std::to_string(at));
        // Lane-fastest planes: unknown i at x_new[i * stride]; the other
        // lanes hold garbage the update must not read.
        std::vector<double> x_new(x0.size() * stride, -7.0);
        for (std::size_t i = 0; i < x0.size(); ++i) {
          x_new[i * stride] = x0[i];
        }
        x_new[at * stride] = bad;
        Unknowns x(x0.size());
        x.raw() = x0;
        EXPECT_EQ(newton_update(opt, nodes, /*first_iteration=*/false,
                                /*limited=*/false, x_new.data(), stride, x),
                  NewtonStep::kDiverged);
      }
    }
  }
}

}  // namespace
}  // namespace icvbe::spice
