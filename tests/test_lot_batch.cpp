// Tests for the batched value-plane solver stack: the SparseValueBatch
// kernel must be bit-identical to scalar frozen refactor/solve, the
// BatchDcSession lockstep Newton must be bit-identical to SimSession per
// lane, a failed or inactive lane must not perturb its lane mates, the
// per-die steady state must be allocation-free, LotCampaign::run() must
// be bit-identical to run_die for any lot size and thread count, and no
// die of a lot-sized spread may leave the lockstep for the per-die path.
// ICVBE_SPARSE_STRESS=1 (test_lot_batch_stress) takes those two lot
// checks to 1000 dies.
// Every batch is linalg::kBatchLanes wide; cases that need fewer dies
// leave the spare lanes inactive, as a short lot does.
//
// This binary links icvbe_alloc_hook (see CMakeLists.txt) for the
// zero-allocation assertion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/batch_session.hpp"
#include "icvbe/spice/bjt.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

namespace icvbe {
namespace {

constexpr std::size_t kLanes = linalg::kBatchLanes;

// ------------------------------------------------- kernel level ---

// Shared MNA-flavoured pattern: tridiagonal conductances plus a
// voltage-source-style aux pair with a structurally zero diagonal, so the
// pivot permutation is not the identity.
linalg::SparseMatrix make_pattern(std::size_t n) {
  linalg::SparseMatrix m(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 0.0);
    if (i + 1 < n) {
      m.add(i, i + 1, 0.0);
      m.add(i + 1, i, 0.0);
    }
  }
  m.add(0, n, 0.0);
  m.add(n, 0, 0.0);
  m.add(n, n, 0.0);  // structurally present, numerically zero
  m.freeze_pattern();
  return m;
}

// Fill `m` with lane `l`'s values: a small deterministic perturbation of
// the reference system, the shape of a Monte-Carlo die.
void fill_lane_values(linalg::SparseMatrix& m, std::size_t n, std::size_t l) {
  const double s = 1.0 + 0.01 * static_cast<double>(l);
  m.fill(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 4.0 * s + 0.1 * static_cast<double>(i));
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0 * s);
      m.add(i + 1, i, -1.0 / s);
    }
  }
  m.add(0, n, 1.0);
  m.add(n, 0, 1.0);
  m.add(n, n, 0.0);
}

TEST(SparseBatchKernelTest, BatchMatchesScalarFrozenRefactorBitwise) {
  const std::size_t n = 24;
  const std::size_t k = kLanes;
  linalg::SparseMatrix m = make_pattern(n);
  const std::size_t nn = n + 1;

  // Scalar reference: one factorisation, analysis pinned at lane 0's
  // values, then a frozen refactor + solve per lane.
  fill_lane_values(m, n, 0);
  linalg::SparseLuFactorization scalar_lu;
  scalar_lu.refactor(m);
  std::vector<linalg::Vector> scalar_x(k);
  for (std::size_t l = 0; l < k; ++l) {
    fill_lane_values(m, n, l);
    scalar_lu.refactor(m);  // same pattern stamp: frozen-pivot refactor
    linalg::Vector b(nn, 0.0);
    for (std::size_t i = 0; i < nn; ++i)
      b[i] = 1.0 + 0.5 * static_cast<double>(i) +
             0.125 * static_cast<double>(l);
    scalar_lu.solve_in_place(b);
    scalar_x[l] = std::move(b);
  }

  // Batch: same analysis reference, every lane in one refactor/solve.
  fill_lane_values(m, n, 0);
  linalg::SparseLuFactorization batch_lu;
  batch_lu.refactor(m);
  linalg::SparseValueBatch batch;
  batch.bind(m);
  for (std::size_t l = 0; l < k; ++l) {
    fill_lane_values(m, n, l);
    batch.load_lane(l, m);
  }
  std::vector<unsigned char> lane_ok(k, 1);
  batch_lu.refactor_batch(batch, lane_ok);
  for (std::size_t l = 0; l < k; ++l) EXPECT_EQ(lane_ok[l], 1);

  std::vector<double> rhs(nn * k);
  for (std::size_t i = 0; i < nn; ++i)
    for (std::size_t l = 0; l < k; ++l)
      rhs[i * k + l] = 1.0 + 0.5 * static_cast<double>(i) +
                       0.125 * static_cast<double>(l);
  batch_lu.solve_batch(rhs);

  // Exact equality on purpose: the lockstep elimination must perform the
  // scalar operation sequence per lane, to the bit.
  for (std::size_t l = 0; l < k; ++l)
    for (std::size_t i = 0; i < nn; ++i)
      EXPECT_EQ(rhs[i * k + l], scalar_x[l][i])
          << "lane " << l << " unknown " << i;
}

TEST(SparseBatchKernelTest, SingularLaneIsFlaggedLaneMatesUnaffected) {
  // Lanes 0-2 carry dies (lane 1 exactly singular); the rest are inactive
  // and never loaded.
  const std::size_t n = 12;
  const std::size_t k = 3;
  linalg::SparseMatrix m = make_pattern(n);
  const std::size_t nn = n + 1;

  fill_lane_values(m, n, 0);
  linalg::SparseLuFactorization scalar_lu;
  scalar_lu.refactor(m);
  std::vector<linalg::Vector> scalar_x(k);
  for (std::size_t l = 0; l < k; ++l) {
    if (l == 1) continue;  // the poisoned lane has no scalar reference
    fill_lane_values(m, n, l);
    scalar_lu.refactor(m);
    linalg::Vector b(nn, 1.0);
    scalar_lu.solve_in_place(b);
    scalar_x[l] = std::move(b);
  }

  fill_lane_values(m, n, 0);
  linalg::SparseLuFactorization batch_lu;
  batch_lu.refactor(m);
  linalg::SparseValueBatch batch;
  batch.bind(m);
  for (std::size_t l = 0; l < k; ++l) {
    fill_lane_values(m, n, l);
    if (l == 1) m.fill(0.0);  // exactly singular
    batch.load_lane(l, m);
  }
  std::vector<unsigned char> lane_ok(kLanes, 0);
  std::fill(lane_ok.begin(), lane_ok.begin() + k, 1);
  batch_lu.refactor_batch(batch, lane_ok);
  EXPECT_EQ(lane_ok[0], 1);
  EXPECT_EQ(lane_ok[1], 0) << "singular lane must be rejected";
  EXPECT_EQ(lane_ok[2], 1);
  for (std::size_t l = k; l < kLanes; ++l) {
    EXPECT_EQ(lane_ok[l], 0) << "inactive lane " << l << " came back ok";
  }

  std::vector<double> rhs(nn * kLanes, 1.0);
  batch_lu.solve_batch(rhs);
  for (std::size_t i = 0; i < nn; ++i) {
    EXPECT_EQ(rhs[i * kLanes + 0], scalar_x[0][i]) << "unknown " << i;
    EXPECT_EQ(rhs[i * kLanes + 2], scalar_x[2][i]) << "unknown " << i;
  }
}

// ------------------------------------------------ session level ---

using spice::BatchDcSession;
using spice::Circuit;
using spice::NewtonOptions;
using spice::SimSession;

struct CellLane {
  Circuit circuit;
  bandgap::TestCellHandles handles;
};

bandgap::TestCellParams lane_params(std::size_t l) {
  // The lab's nominal cell with real (PNP) device cards from the lot.
  bandgap::TestCellParams p = lab::CampaignConfig{}.cell;
  const lab::DieSample die = lab::SiliconLot{}.sample(1);
  p.qa_model = die.qa;
  p.qb_model = die.qb;
  const double scale = 1.0 + 0.01 * static_cast<double>(l);
  p.rx1 *= scale;
  p.rx2 *= scale;
  p.rb *= scale;
  p.opamp_offset = 1e-3 * static_cast<double>(l);
  return p;
}

/// Re-program a test-cell lane to `p`'s resistors and amplifier offset
/// through the device setters (the transistor models stay as built).
void program_cell(Circuit& c, const bandgap::TestCellParams& p) {
  c.get<spice::Resistor>("RX1").set_nominal_resistance(p.rx1);
  c.get<spice::Resistor>("RX2").set_nominal_resistance(p.rx2);
  c.get<spice::Resistor>("RB").set_nominal_resistance(p.rb);
  c.get<spice::OpAmp>("U1").set_offset(p.opamp_offset);
}

TEST(BatchDcSessionTest, CellLanesBitIdenticalToScalarSessions) {
  // Scalar SimSessions per lane vs one shared-analysis BatchDcSession must
  // agree to the bit. Three dies ride the batch; the other lanes sit out.
  const NewtonOptions opt;
  const std::size_t k = 3;
  const double t = to_kelvin(25.0);

  // Scalar references: a fresh sparse-forced SimSession per lane, solved
  // from the analytic startup guess (the lab's own discipline).
  std::vector<spice::Unknowns> scalar_x;
  for (std::size_t l = 0; l < k; ++l) {
    CellLane lane;
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(l));
    lane.circuit.set_temperature(t);
    SimSession session(lane.circuit, opt);
    const spice::Unknowns guess =
        bandgap::cell_initial_guess(lane.circuit, lane.handles, t);
    const auto& r = session.solve(&guess);
    ASSERT_TRUE(r.converged) << "lane " << l;
    EXPECT_EQ(r.strategy, "newton");
    scalar_x.push_back(r.solution);
  }

  // Batch: the k dies through one shared-analysis session. The lanes are
  // built nominal and re-programmed through the device setters, the lot
  // driver's own path.
  std::vector<CellLane> lanes(kLanes);
  std::vector<Circuit*> ptrs;
  for (auto& lane : lanes) {
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(0));
    ptrs.push_back(&lane.circuit);
  }
  BatchDcSession batch(std::move(ptrs), opt);
  for (std::size_t l = k; l < kLanes; ++l) batch.set_lane_active(l, false);
  for (std::size_t l = 0; l < k; ++l) {
    program_cell(lanes[l].circuit, lane_params(l));
    lanes[l].circuit.set_temperature(t);
    batch.begin_variant(l);
    batch.seed_warm_start(
        l, bandgap::cell_initial_guess(lanes[l].circuit, lanes[l].handles, t));
  }
  batch.solve_active();

  for (std::size_t l = 0; l < k; ++l) {
    ASSERT_TRUE(batch.status(l).converged) << "lane " << l;
    const auto& x = batch.solution(l);
    ASSERT_EQ(x.size(), scalar_x[l].size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(x.raw()[i], scalar_x[l].raw()[i])
          << "lane " << l << " unknown " << i;
  }
}

/// The gmin diagonal sits right after the linear prefix in both sessions.
/// Build three dies of one rig, differing only in R1 (the other lanes sit
/// out), and check the batched lanes against cold scalar solves to the
/// bit; `prefix` pins where the
/// rig puts gmin. gmin is raised to the size of the rig's conductances so
/// that the order in which a diagonal slot sums them shows in the bits.
void check_rig_lanes_bit_identical(
    const std::function<void(Circuit&)>& build, std::size_t prefix) {
  const std::size_t k = 3;
  NewtonOptions opt;
  opt.gmin_floor = 3.3e-5;
  const auto r1 = [](std::size_t l) {
    return 10.3e3 + 1.7e3 * static_cast<double>(l);
  };
  std::vector<spice::Unknowns> scalar_x;
  std::vector<int> scalar_iterations;
  for (std::size_t l = 0; l < k; ++l) {
    Circuit c;
    build(c);
    c.get<spice::Resistor>("R1").set_nominal_resistance(r1(l));
    ASSERT_EQ(spice::linear_prefix(c), prefix);
    SimSession session(c, opt);
    const auto& r = session.solve();
    ASSERT_TRUE(r.converged) << "lane " << l;
    ASSERT_EQ(r.strategy, "newton");
    scalar_x.push_back(r.solution);
    scalar_iterations.push_back(r.iterations);
  }

  std::vector<Circuit> lanes(kLanes);
  std::vector<Circuit*> ptrs;
  for (auto& c : lanes) {
    build(c);
    ptrs.push_back(&c);
  }
  BatchDcSession batch(std::move(ptrs), opt);
  for (std::size_t l = k; l < kLanes; ++l) batch.set_lane_active(l, false);
  for (std::size_t l = 0; l < k; ++l) {
    lanes[l].get<spice::Resistor>("R1").set_nominal_resistance(r1(l));
    batch.begin_variant(l);
  }
  batch.solve_active();
  for (std::size_t l = 0; l < k; ++l) {
    ASSERT_TRUE(batch.status(l).converged) << "lane " << l;
    EXPECT_EQ(batch.status(l).iterations, scalar_iterations[l]);
    const auto& x = batch.solution(l);
    ASSERT_EQ(x.size(), scalar_x[l].size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x.raw()[i], scalar_x[l].raw()[i])
          << "lane " << l << " unknown " << i;
    }
  }
}

TEST(BatchDcSessionTest, NonlinearFirstRigLanesBitIdentical) {
  // A diode-connected NPN instantiated before every linear device: the
  // linear prefix is empty, so gmin is stamped first.
  check_rig_lanes_bit_identical(
      [](Circuit& c) {
        const spice::NodeId vcc = c.node("vcc");
        const spice::NodeId n = c.node("c");
        c.add_bjt("Q1", n, n, spice::kGround, spice::BjtModel{});
        c.add_vsource("V1", vcc, spice::kGround, 2.0);
        c.add_resistor("R1", vcc, n, 10e3);
        c.add_resistor("R2", n, spice::kGround, 27.1e3);
      },
      0);
}

TEST(BatchDcSessionTest, LinearOnlyRigLanesBitIdentical) {
  // Every device is linear: the prefix is the whole circuit, so gmin is
  // stamped last.
  check_rig_lanes_bit_identical(
      [](Circuit& c) {
        const spice::NodeId in = c.node("in");
        const spice::NodeId a = c.node("a");
        const spice::NodeId b = c.node("b");
        c.add_vsource("V1", in, spice::kGround, 1.5);
        c.add_resistor("R1", in, a, 10e3);
        c.add_resistor("R2", a, spice::kGround, 23.3e3);
        c.add_resistor("R3", a, b, 31.7e3);
        c.add_resistor("R4", b, spice::kGround, 19.1e3);
      },
      5);
}

TEST(BatchDcSessionTest, LanesMatchScalarSessionWhenNonlinearDevicesComeFirst) {
  // V1 -> R1 -> collector of Q1, R2 collector -> base, R3 base -> ground,
  // with Q1 added before the resistors: a scalar session's checkpoint
  // holds only V1 and it restamps Q1 and the resistors every iteration,
  // while the batched lanes restamp every device. Both add each slot's
  // contributions in device order, so along a warm-started V1 sweep every
  // lane must match its own scalar session bit for bit.
  NewtonOptions tight;
  tight.v_abstol = 1e-11;
  tight.i_abstol = 1e-14;
  tight.reltol = 1e-12;
  Circuit rig;
  const spice::NodeId vcc = rig.node("vcc");
  const spice::NodeId col = rig.node("c");
  const spice::NodeId base = rig.node("b");
  rig.add_vsource("V1", vcc, spice::kGround, 2.0);
  rig.add_bjt("Q1", col, base, spice::kGround, spice::BjtModel{});
  rig.add_resistor("R1", vcc, col, 10e3);
  rig.add_resistor("R2", col, base, 100e3);
  rig.add_resistor("R3", base, spice::kGround, 1e6);
  rig.set_temperature(300.15);
  ASSERT_EQ(spice::linear_prefix(rig), 1u);

  // Four dies; the other lanes are clones that sit out.
  const std::vector<double> r1 = {5e3, 10e3, 15e3, 20e3};
  const std::size_t k = r1.size();
  std::vector<Circuit> scalar_circuits, lane_circuits;
  for (std::size_t l = 0; l < kLanes; ++l) {
    lane_circuits.push_back(rig.clone());
    if (l >= k) continue;
    lane_circuits.back().get<spice::Resistor>("R1").set_nominal_resistance(
        r1[l]);
    scalar_circuits.push_back(lane_circuits.back().clone());
  }
  std::vector<std::unique_ptr<SimSession>> scalar;
  std::vector<Circuit*> ptrs;
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (l < k) {
      scalar.push_back(
          std::make_unique<SimSession>(scalar_circuits[l], tight));
    }
    ptrs.push_back(&lane_circuits[l]);
  }
  BatchDcSession batch(std::move(ptrs), tight);
  for (std::size_t l = k; l < kLanes; ++l) batch.set_lane_active(l, false);

  for (int j = 0; j <= 10; ++j) {
    const double v1 = 0.5 + 0.25 * j;
    for (std::size_t l = 0; l < k; ++l) {
      scalar_circuits[l].get<spice::VoltageSource>("V1").set_value(v1);
      lane_circuits[l].get<spice::VoltageSource>("V1").set_value(v1);
    }
    batch.solve_active();
    for (std::size_t l = 0; l < k; ++l) {
      const auto& want = scalar[l]->solve();
      ASSERT_TRUE(want.converged) << "lane " << l << " V1=" << v1;
      ASSERT_EQ(want.strategy, "newton") << "lane " << l << " V1=" << v1;
      ASSERT_TRUE(batch.status(l).converged) << "lane " << l << " V1=" << v1;
      EXPECT_EQ(batch.status(l).iterations, want.iterations)
          << "lane " << l << " V1=" << v1;
      const auto& x = batch.solution(l);
      ASSERT_EQ(x.size(), want.solution.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x.raw()[i], want.solution.raw()[i])
            << "lane " << l << " V1=" << v1 << " unknown " << i;
      }
    }
  }
  // The load is on: Q1 pulls the collector well below the open-circuit
  // divider at the top of the sweep.
  EXPECT_LT(batch.solution(0).node_voltage(col), 2.0);
}

TEST(BatchDcSessionTest, FailedLaneDoesNotPerturbLaneMates) {
  const std::size_t k = 3;
  const double t = to_kelvin(25.0);

  std::vector<spice::Unknowns> scalar_x(k);
  for (std::size_t l = 0; l < k; ++l) {
    if (l == 1) continue;
    CellLane lane;
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(l));
    lane.circuit.set_temperature(t);
    SimSession session(lane.circuit);
    const spice::Unknowns guess =
        bandgap::cell_initial_guess(lane.circuit, lane.handles, t);
    const auto& r = session.solve(&guess);
    ASSERT_TRUE(r.converged);
    scalar_x[l] = r.solution;
  }

  std::vector<CellLane> lanes(kLanes);
  std::vector<Circuit*> ptrs;
  for (auto& lane : lanes) {
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(0));
    ptrs.push_back(&lane.circuit);
  }
  BatchDcSession batch(std::move(ptrs));
  for (std::size_t l = k; l < kLanes; ++l) batch.set_lane_active(l, false);
  for (std::size_t l = 0; l < k; ++l) {
    bandgap::TestCellParams p = lane_params(l);
    if (l == 1) p.opamp_offset = 1e6;  // a die that cannot converge
    program_cell(lanes[l].circuit, p);
    lanes[l].circuit.set_temperature(t);
    batch.begin_variant(l);
    batch.seed_warm_start(
        l, bandgap::cell_initial_guess(lanes[l].circuit, lanes[l].handles, t));
  }
  batch.solve_active();

  EXPECT_FALSE(batch.status(1).converged)
      << "the poisoned lane must not report convergence";
  for (std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(batch.status(l).converged) << "lane " << l;
    const auto& x = batch.solution(l);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(x.raw()[i], scalar_x[l].raw()[i])
          << "lane " << l << " unknown " << i
          << ": a failed lane mate changed this lane's bits";
  }
}

TEST(BatchDcSessionTest, PerDieSteadyStateIsAllocationFree) {
  const std::size_t k = 2;  // two dies; the other lanes sit out
  const double t = to_kelvin(25.0);

  std::vector<CellLane> lanes(kLanes);
  std::vector<Circuit*> ptrs;
  for (auto& lane : lanes) {
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(0));
    ptrs.push_back(&lane.circuit);
  }
  BatchDcSession batch(std::move(ptrs));
  for (std::size_t l = k; l < kLanes; ++l) batch.set_lane_active(l, false);
  std::vector<spice::Resistor*> rx1;
  std::vector<spice::OpAmp*> u1;
  for (std::size_t l = 0; l < k; ++l) {
    rx1.push_back(&lanes[l].circuit.get<spice::Resistor>("RX1"));
    u1.push_back(&lanes[l].circuit.get<spice::OpAmp>("U1"));
  }
  // Warm-up die: first solve allocates (analysis, factor planes, buffers)
  // and pins the shape. Seed each lane once so the steady state below can
  // reuse the preallocated warm-start storage.
  for (std::size_t l = 0; l < k; ++l) {
    lanes[l].circuit.set_temperature(t);
    batch.begin_variant(l);
    batch.seed_warm_start(
        l, bandgap::cell_initial_guess(lanes[l].circuit, lanes[l].handles, t));
  }
  batch.solve_active();
  for (std::size_t l = 0; l < k; ++l)
    ASSERT_TRUE(batch.status(l).converged);

  // Steady state: re-program parameters, reset variants, solve. The
  // re-programming and the whole lockstep Newton (stamp, refactor_batch,
  // solve_batch, damping, convergence test) must not touch the heap; only
  // the startup-guess construction (a lab-side Unknowns) may allocate, so
  // it sits outside the counting window.
  for (int die = 0; die < 3; ++die) {
    std::vector<spice::Unknowns> guess;
    for (std::size_t l = 0; l < k; ++l) {
      lanes[l].circuit.set_temperature(t);
      guess.push_back(bandgap::cell_initial_guess(lanes[l].circuit,
                                                  lanes[l].handles, t));
    }
    const std::uint64_t before = testing::allocation_count();
    for (std::size_t l = 0; l < k; ++l) {
      rx1[l]->set_nominal_resistance(lane_params(l).rx1 *
                                     (1.0 + 0.001 * die));
      u1[l]->set_offset(1e-4 * static_cast<double>(die));
      batch.begin_variant(l);
      batch.seed_warm_start(l, guess[l]);
    }
    batch.solve_active();
    for (std::size_t l = 0; l < k; ++l) {
      ASSERT_TRUE(batch.status(l).converged);
      (void)batch.solution(l);
    }
    const std::uint64_t after = testing::allocation_count();
    EXPECT_EQ(after, before)
        << "BatchDcSession allocated on the per-die steady-state path "
           "(die "
        << die << ")";
  }
}

TEST(BatchDcSessionTest, SparseActiveLanesBitIdenticalAndAllocationFree) {
  // Lanes 1, 4 and 6 of 8 are active, so the live lanes' exp arguments are
  // packed around gaps; each starts from a guess made for a different die
  // temperature, so they leave the lockstep at different iterations and
  // the packed sweep shrinks mid-solve.
  const std::size_t k = kLanes;
  const std::size_t active[] = {1, 4, 6};
  const double t = to_kelvin(25.0);
  const double guess_t[] = {t, t + 40.0, t - 20.0};

  std::vector<CellLane> lanes(k);
  std::vector<Circuit*> ptrs;
  for (auto& lane : lanes) {
    lane.handles = bandgap::build_test_cell(lane.circuit, lane_params(0));
    ptrs.push_back(&lane.circuit);
  }
  BatchDcSession batch(std::move(ptrs));
  for (std::size_t l = 0; l < k; ++l) {
    program_cell(lanes[l].circuit, lane_params(l));
    batch.set_lane_active(l, false);
  }

  for (int die = 0; die < 3; ++die) {
    const double rx_scale = 1.0 + 0.002 * static_cast<double>(die);
    // Scalar references and start points, outside the counting window.
    std::vector<spice::Unknowns> guess, want;
    std::vector<int> want_iterations;
    std::vector<double> rx1;
    for (std::size_t a = 0; a < 3; ++a) {
      const std::size_t l = active[a];
      CellLane ref;
      ref.handles = bandgap::build_test_cell(ref.circuit, lane_params(l));
      rx1.push_back(lane_params(l).rx1 * rx_scale);
      ref.circuit.get<spice::Resistor>("RX1").set_nominal_resistance(
          rx1.back());
      ref.circuit.set_temperature(t);
      guess.push_back(
          bandgap::cell_initial_guess(ref.circuit, ref.handles, guess_t[a]));
      SimSession session(ref.circuit);
      const auto& r = session.solve(&guess.back());
      ASSERT_TRUE(r.converged) << "lane " << l;
      ASSERT_EQ(r.strategy, "newton") << "lane " << l;
      want.push_back(r.solution);
      want_iterations.push_back(r.iterations);
    }
    ASSERT_FALSE(want_iterations[0] == want_iterations[1] &&
                 want_iterations[1] == want_iterations[2])
        << "the lanes must converge at different iterations";

    const std::uint64_t before = testing::allocation_count();
    for (std::size_t a = 0; a < 3; ++a) {
      const std::size_t l = active[a];
      lanes[l].circuit.get<spice::Resistor>("RX1").set_nominal_resistance(
          rx1[a]);
      lanes[l].circuit.set_temperature(t);
      batch.begin_variant(l);
      batch.set_lane_active(l, true);
      batch.seed_warm_start(l, guess[a]);
    }
    batch.solve_active();
    const std::uint64_t after = testing::allocation_count();
    // The first solve sizes the shared analysis and factor planes; every
    // later die must not touch the heap.
    if (die > 0) {
      EXPECT_EQ(after, before)
          << "BatchDcSession allocated with sparse active lanes (die " << die
          << ")";
    }

    for (std::size_t a = 0; a < 3; ++a) {
      const std::size_t l = active[a];
      ASSERT_TRUE(batch.status(l).converged) << "lane " << l;
      EXPECT_EQ(batch.status(l).iterations, want_iterations[a])
          << "lane " << l;
      const auto& x = batch.solution(l);
      ASSERT_EQ(x.size(), want[a].size());
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x.raw()[i], want[a].raw()[i])
            << "die " << die << " lane " << l << " unknown " << i;
    }
    for (std::size_t l = 0; l < k; ++l) {
      if (l != 1 && l != 4 && l != 6) {
        EXPECT_EQ(batch.status(l).iterations, 0) << "inactive lane " << l;
      }
    }
  }
}

// ---------------------------------------------- lot-campaign level ---

lab::LotCampaignConfig lot_config() {
  lab::LotCampaignConfig cfg;
  cfg.samples = 10;
  cfg.first_index = 1;
  cfg.seed_base = 9000;
  cfg.classical_celsius = {-25.0, 25.0, 75.0, 125.0};
  return cfg;
}

/// run_die for every die of the campaign: the per-die reference.
std::vector<lab::DieCharacterisation> per_die(const lab::LotCampaign& c) {
  std::vector<lab::DieCharacterisation> out;
  for (int i = 0; i < c.config().samples; ++i) out.push_back(c.run_die(i));
  return out;
}

void expect_die_bit_identical(const lab::DieCharacterisation& a,
                              const lab::DieCharacterisation& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.has_classical, b.has_classical);
  EXPECT_EQ(a.has_meijer, b.has_meijer);
  EXPECT_EQ(a.eg_classical, b.eg_classical);
  EXPECT_EQ(a.eg_meijer, b.eg_meijer);
  EXPECT_EQ(a.xti_meijer, b.xti_meijer);
  EXPECT_EQ(a.eg_measured_t, b.eg_measured_t);
  EXPECT_EQ(a.xti_measured_t, b.xti_measured_t);
  EXPECT_EQ(a.delta_t1, b.delta_t1);
  EXPECT_EQ(a.delta_t3, b.delta_t3);
  ASSERT_EQ(a.cell.size(), b.cell.size());
  for (std::size_t i = 0; i < a.cell.size(); ++i) {
    EXPECT_EQ(a.cell[i].vref, b.cell[i].vref);
    EXPECT_EQ(a.cell[i].delta_vbe, b.cell[i].delta_vbe);
    EXPECT_EQ(a.cell[i].t_sensor, b.cell[i].t_sensor);
    EXPECT_EQ(a.cell[i].ic_qa, b.cell[i].ic_qa);
    EXPECT_EQ(a.cell[i].ic_qb, b.cell[i].ic_qb);
  }
}

void expect_stat_bit_identical(const lab::LotStatistic& a,
                               const lab::LotStatistic& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.q10, b.q10);
  EXPECT_EQ(a.q50, b.q50);
  EXPECT_EQ(a.q90, b.q90);
}

/// True in the ICVBE_SPARSE_STRESS=1 ctest variant (test_lot_batch_stress).
bool stress_run() { return std::getenv("ICVBE_SPARSE_STRESS") != nullptr; }

TEST(LotBatchTest, RunEqualsRunDieForShortLotsAndAnyThreads) {
  // 1 and 6 dies fill one group partly; 13 dies leave the second group
  // with 5 inactive lanes. Thread counts above the group count idle. The
  // stress variant adds a 1000-die lot.
  std::vector<int> lot_sizes = {1, 6, 13};
  if (stress_run()) lot_sizes.push_back(1000);
  lab::LotCampaignConfig ref_cfg = lot_config();
  ref_cfg.samples = lot_sizes.back();
  const auto ref = per_die(lab::LotCampaign(lab::SiliconLot{}, ref_cfg));
  for (const auto& die : ref) ASSERT_TRUE(die.ok) << die.error;

  for (int samples : lot_sizes) {
    const std::vector<lab::DieCharacterisation> want(
        ref.begin(), ref.begin() + samples);
    const lab::LotSummary want_sum = lab::LotCampaign::summarise(want);
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
      lab::LotCampaignConfig cfg = lot_config();
      cfg.samples = samples;
      cfg.threads = threads;
      const auto got = lab::LotCampaign(lab::SiliconLot{}, cfg).run();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "samples=" << samples << " threads=" << threads
                     << " die=" << i);
        expect_die_bit_identical(want[i], got[i]);
      }
      const lab::LotSummary got_sum = lab::LotCampaign::summarise(got);
      EXPECT_EQ(got_sum.dies_ok, want_sum.dies_ok);
      EXPECT_EQ(got_sum.dies_failed, want_sum.dies_failed);
      expect_stat_bit_identical(want_sum.eg_classical, got_sum.eg_classical);
      expect_stat_bit_identical(want_sum.eg_meijer, got_sum.eg_meijer);
      expect_stat_bit_identical(want_sum.xti_meijer, got_sum.xti_meijer);
      expect_stat_bit_identical(want_sum.delta_t1, got_sum.delta_t1);
      expect_stat_bit_identical(want_sum.delta_t3, got_sum.delta_t3);
    }
  }
}

TEST(LotBatchTest, GroupThatThrowsFallsBackToRunDie) {
  // A zero classical bias current throws inside the group body, before any
  // lane is solved: the whole group falls back to run_die, so every die
  // (one full group and one with a single die) carries run_die's result,
  // error text included.
  lab::LotCampaignConfig cfg = lot_config();
  cfg.samples = 9;
  cfg.classical_ic = 0.0;
  const auto ref = per_die(lab::LotCampaign(lab::SiliconLot{}, cfg));
  for (const auto& die : ref) {
    ASSERT_FALSE(die.ok) << "a zero bias current no longer fails the die; "
                            "the test would not reach the group fallback";
  }
  for (unsigned threads : {1u, 2u}) {
    cfg.threads = threads;
    const auto got = lab::LotCampaign(lab::SiliconLot{}, cfg).run();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " die=" << i);
      expect_die_bit_identical(ref[i], got[i]);
    }
  }
}

TEST(LotBatchTest, FailingDiesFallBackBitIdentically) {
  // A wild process: some dies fail (extraction or convergence), others
  // survive. The batched path must reproduce the per-die results exactly,
  // failures included, without a failed die poisoning its lane mates.
  lab::ProcessTruth truth = lab::ProcessTruth::nominal();
  truth.opamp_offset_sigma = 0.6;  // +-volts of offset: some dies are broken
  const lab::SiliconLot lot(truth);

  lab::LotCampaignConfig cfg = lot_config();
  cfg.samples = 8;
  cfg.run_classical = false;
  cfg.threads = 2;
  const lab::LotCampaign campaign(lot, cfg);
  const auto ref = per_die(campaign);

  int ok = 0, failed = 0;
  for (const auto& die : ref) (die.ok ? ok : failed)++;
  ASSERT_GT(failed, 0) << "tune opamp_offset_sigma: no die failed";
  ASSERT_GT(ok, 0) << "tune opamp_offset_sigma: every die failed";

  const auto got = campaign.run();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "die=" << i);
    expect_die_bit_identical(ref[i], got[i]);
  }
}

/// Carry `dies` dies of the default lot (`dies` a multiple of kLanes)
/// through both of the lot's rigs the way LotCampaign's group body does
/// (src/lab/lot_batch.cpp): one BatchDcSession per rig, primed once at the
/// reference die; each group re-programmed through the device setters;
/// every chamber point seeded from its analytic guess; the cell's
/// electro-thermal passes run to the lab's tolerance, then the committed
/// solve. The instruments' draws are left out: they move a forced current
/// by ppm, where the lot spread moves every device value by percent.
/// Returns the lane solves that left the lockstep (needs_solo, or not
/// converged): each sends its die back to the per-die path.
int count_lockstep_exits(int dies) {
  const lab::LotCampaignConfig cfg;
  const lab::SiliconLot lot;
  const lab::DieSample ref = lot.sample(cfg.first_index);
  const auto die_kelvin = [](const lab::DieSample& die, double celsius,
                             double watts) {
    return die.fixture.die_temperature(to_kelvin(celsius), watts);
  };
  int exits = 0;
  const auto tally = [&](const BatchDcSession& rig,
                         const std::vector<unsigned char>& solved) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const spice::BatchLaneStatus& st = rig.status(l);
      if (solved[l] && (st.needs_solo || !st.converged)) ++exits;
    }
  };
  const std::vector<unsigned char> all(kLanes, 1);

  // The classical rig: the current-driven DUT.
  std::vector<Circuit> dut(kLanes);
  std::vector<Circuit*> dut_ptrs;
  spice::NodeId emitter = spice::kGround;
  for (Circuit& c : dut) {
    emitter = lab::protocol::build_dut(c, ref.qin, /*current_driven=*/true);
    c.get<spice::CurrentSource>("IE").set_value(cfg.classical_ic);
    dut_ptrs.push_back(&c);
  }
  BatchDcSession ibias(std::move(dut_ptrs), cfg.lab.newton);
  dut[0].set_temperature(die_kelvin(ref, cfg.classical_celsius.front(), 0.0));
  ibias.seed_warm_start(0, lab::protocol::dut_initial_guess(dut[0], emitter));
  ibias.prime();

  // The Meijer rig: the full test cell.
  std::vector<CellLane> cells(kLanes);
  std::vector<Circuit*> cell_ptrs;
  for (CellLane& lane : cells) {
    lane.handles = bandgap::build_test_cell(
        lane.circuit, lab::protocol::cell_params(ref, cfg.lab, 0.0));
    cell_ptrs.push_back(&lane.circuit);
  }
  BatchDcSession cell(std::move(cell_ptrs), cfg.lab.newton);
  const double t_ref = die_kelvin(ref, cfg.cell_celsius.front(), 0.0);
  cells[0].circuit.set_temperature(t_ref);
  cell.seed_warm_start(
      0, bandgap::cell_initial_guess(cells[0].circuit, cells[0].handles,
                                     t_ref));
  cell.prime();

  std::vector<lab::DieSample> die(kLanes);
  std::vector<double> t_die(kLanes);
  std::vector<unsigned char> iterating(kLanes);
  for (int first = 0; first < dies; first += static_cast<int>(kLanes)) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      die[l] = lot.sample(cfg.first_index + first + static_cast<int>(l));
      dut[l].get<spice::Bjt>("DUT").set_model(die[l].qin);
      ibias.begin_variant(l);
      const bandgap::TestCellParams p =
          lab::protocol::cell_params(die[l], cfg.lab, 0.0);
      Circuit& c = cells[l].circuit;
      c.get<spice::Bjt>(cells[l].handles.qa).set_model(p.qa_model);
      c.get<spice::Bjt>(cells[l].handles.qb).set_model(p.qb_model);
      program_cell(c, p);
      cell.begin_variant(l);
    }

    for (double tc : cfg.classical_celsius) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        dut[l].set_temperature(die_kelvin(die[l], tc, 0.0));
        ibias.seed_warm_start(
            l, lab::protocol::dut_initial_guess(dut[l], emitter));
      }
      ibias.solve_active();
      tally(ibias, all);
    }

    for (double tc : cfg.cell_celsius) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        t_die[l] = die_kelvin(die[l], tc, 0.0);
        iterating[l] = 1;
      }
      // The lab's electro-thermal fixed point: at most 8 passes, until
      // the die moves less than 1e-4 K.
      for (int pass = 0; pass < 8; ++pass) {
        bool any = false;
        for (std::size_t l = 0; l < kLanes; ++l) {
          cell.set_lane_active(l, iterating[l] != 0);
          if (!iterating[l]) continue;
          any = true;
          cells[l].circuit.set_temperature(t_die[l]);
          if (pass == 0) {
            cell.seed_warm_start(
                l, bandgap::cell_initial_guess(cells[l].circuit,
                                               cells[l].handles, t_die[l]));
          }
        }
        if (!any) break;
        cell.solve_active();
        tally(cell, iterating);
        for (std::size_t l = 0; l < kLanes; ++l) {
          if (!iterating[l]) continue;
          const double t_new = die_kelvin(
              die[l], tc,
              bandgap::observe_cell(cells[l].circuit, cells[l].handles,
                                    cell.solution(l), t_die[l])
                  .power);
          if (std::abs(t_new - t_die[l]) < 1e-4) iterating[l] = 0;
          t_die[l] = t_new;
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        cell.set_lane_active(l, true);
        cells[l].circuit.set_temperature(t_die[l]);
      }
      cell.solve_active();
      tally(cell, all);
    }
  }
  return exits;
}

TEST(LotBatchTest, NoDieOfALotSizedSpreadLeavesTheLockstep) {
  // The batched lot pays one symbolic analysis per rig only while every
  // die accepts the reference pivots and converges in plain Newton; a die
  // that leaves the lockstep is re-run by run_die at per-die cost. So the
  // work count of a healthy batched lot is zero exits, on both rigs: over
  // 64 dies here, over 1000 in the stress variant.
  EXPECT_EQ(count_lockstep_exits(stress_run() ? 1000 : 64), 0);
}

}  // namespace
}  // namespace icvbe
