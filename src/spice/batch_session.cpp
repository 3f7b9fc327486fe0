#include "icvbe/spice/batch_session.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/junction.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::spice {

BatchDcSession::BatchDcSession(std::vector<Circuit*> lanes,
                               NewtonOptions options)
    : lanes_(std::move(lanes)), options_(options) {
  ICVBE_REQUIRE(lanes_.size() == linalg::kBatchLanes,
                "BatchDcSession: want exactly kBatchLanes lane circuits");
  constexpr std::size_t k = linalg::kBatchLanes;

  n_unknowns_ = lanes_[0]->assign_unknowns();
  node_unknowns_ = lanes_[0]->node_count() - 1;
  ICVBE_REQUIRE(n_unknowns_ > 0, "BatchDcSession: circuit has no unknowns");
  bound_device_count_ = lanes_[0]->devices().size();
  linear_prefix_ = linear_prefix(*lanes_[0]);
  for (std::size_t l = 1; l < k; ++l) {
    ICVBE_REQUIRE(lanes_[l]->assign_unknowns() == n_unknowns_ &&
                      lanes_[l]->node_count() - 1 == node_unknowns_ &&
                      lanes_[l]->devices().size() == bound_device_count_,
                  "BatchDcSession: lanes must share one topology");
  }

  const auto n = static_cast<std::size_t>(n_unknowns_);
  x_.assign(k, Unknowns(n));
  last_solution_.assign(k, Unknowns(n));
  b_lane_.assign(k, linalg::Vector(n, 0.0));
  b_prime_.assign(n, 0.0);
  rhs_.assign(n * k, 0.0);
  active_.assign(k, 1);
  have_last_.assign(k, 0);
  live_.assign(k, 0);
  lane_ok_.assign(k, 0);
  status_.assign(k, BatchLaneStatus{});

  // Pattern discovery on lane 0, exactly as SimSession::rebind does it:
  // one stamp pass registers every slot a device can touch (values are
  // irrelevant), plus the gmin diagonal slots; then the pattern freezes
  // and the discovery pass's limiting-state side effects are wiped.
  sa_.resize(n, n);
  Stamper st(sa_, b_prime_, node_unknowns_);
  for (const auto& dev : lanes_[0]->devices()) dev->stamp(st, x_[0]);
  for (int i = 0; i < node_unknowns_; ++i) st.add_entry(i, i, 0.0);
  sa_.freeze_pattern();
  for (const auto& dev : lanes_[0]->devices()) dev->reset_state();
  std::fill(b_prime_.begin(), b_prime_.end(), 0.0);

  batch_.bind(sa_);

  // Offsets for the lane-batched exponential sweep, from lane 0's device
  // order; the same-topology contract extends to every lane's device
  // sequence contributing the same exp counts (checked below).
  exp_off_.resize(bound_device_count_ + 1);
  std::size_t off = 0;
  const auto& devs0 = lanes_[0]->devices();
  for (std::size_t d = 0; d < bound_device_count_; ++d) {
    exp_off_[d] = off;
    off += static_cast<std::size_t>(std::max(0, devs0[d]->exp_arg_count()));
  }
  exp_off_[bound_device_count_] = off;
  exp_stride_ = off;
  for (std::size_t l = 1; l < k; ++l) {
    const auto& devs = lanes_[l]->devices();
    for (std::size_t d = 0; d < bound_device_count_; ++d) {
      ICVBE_REQUIRE(devs[d]->exp_arg_count() == devs0[d]->exp_arg_count(),
                    "BatchDcSession: lanes must share one device sequence");
    }
  }
  exp_args_.assign(exp_stride_ * k, 0.0);
  exp_vals_.assign(exp_stride_ * k, 0.0);
}

void BatchDcSession::prime_from(std::size_t lane) {
  // The reference's start point, chosen like a solve would choose it.
  Unknowns& x = x_[lane];
  if (have_last_[lane]) {
    x = last_solution_[lane];
  } else {
    std::fill(x.raw().begin(), x.raw().end(), 0.0);
  }
  pin_analysis(*lanes_[lane], linear_prefix_, node_unknowns_,
               options_.gmin_floor, x, sa_, b_prime_, slu_);
}

void BatchDcSession::begin_variant(std::size_t lane) {
  have_last_[lane] = 0;
  for (const auto& dev : lanes_[lane]->devices()) dev->reset_state();
}

void BatchDcSession::set_lane_active(std::size_t lane, bool active) {
  active_[lane] = active ? 1 : 0;
}

void BatchDcSession::seed_warm_start(std::size_t lane, const Unknowns& x) {
  if (x.size() == static_cast<std::size_t>(n_unknowns_)) {
    last_solution_[lane] = x;  // same-size copy, no reallocation
    have_last_[lane] = 1;
  }
}

void BatchDcSession::solve_active() {
  constexpr std::size_t k = linalg::kBatchLanes;
  const int n_unknowns = n_unknowns_;
  const int node_unknowns = node_unknowns_;
  const NewtonOptions& opt = options_;

  // Per-lane start points: warm-start continuation or cold, exactly
  // SimSession::solve's choice (there is no per-lane `initial` channel;
  // seed_warm_start covers that use).
  std::size_t live_count = 0;
  std::size_t first_active = k;
  for (std::size_t l = 0; l < k; ++l) {
    live_[l] = active_[l];
    if (!active_[l]) continue;
    if (first_active == k) first_active = l;
    ++live_count;
    status_[l] = BatchLaneStatus{};
    if (lanes_[l]->devices().size() != bound_device_count_) {
      throw CircuitError(
          "BatchDcSession: lane topology changed since binding");
    }
    if (have_last_[l]) {
      x_[l] = last_solution_[l];
    } else {
      std::fill(x_[l].raw().begin(), x_[l].raw().end(), 0.0);
    }
  }
  if (live_count == 0) return;
  if (!primed()) prime_from(first_active);

  for (int iter = 0; iter < opt.max_iterations && live_count > 0; ++iter) {
    // Stamp every live lane's value plane and RHS at its own iterate,
    // with the junction exponentials batched across lanes: collect every
    // live lane's exp arguments into consecutive exp_stride_ slots (phase
    // A, runs the limiting exactly as stamp() would), evaluate them all in
    // one vectorized sweep (phase B), then stamp each lane in original
    // device order consuming its precomputed values (phase C). Dead lanes
    // get no slot, so the sweep covers live lanes only. safe_exp_many is
    // element-wise bit-identical to safe_exp and each lane's stamp order is
    // unchanged, so the assembled systems match the one-shot stamp() path
    // bit-for-bit.
    double* args = exp_args_.data();
    for (std::size_t l = 0; l < k; ++l) {
      if (!live_[l]) continue;
      const auto& devs = lanes_[l]->devices();
      for (std::size_t d = 0; d < devs.size(); ++d) {
        if (exp_off_[d + 1] != exp_off_[d]) {
          devs[d]->collect_exp_args(x_[l], args + exp_off_[d]);
        }
      }
      args += exp_stride_;
    }
    safe_exp_many(exp_args_.data(), exp_vals_.data(),
                  live_count * exp_stride_);
    const double* vals = exp_vals_.data();
    for (std::size_t l = 0; l < k; ++l) {
      if (!live_[l]) continue;
      ++status_[l].iterations;
      linalg::MatrixView a(batch_, l);
      a.fill(0.0);
      std::fill(b_lane_[l].begin(), b_lane_[l].end(), 0.0);
      const auto& devs = lanes_[l]->devices();
      Stamper st(a, b_lane_[l], node_unknowns);
      const auto stamp_device = [&](std::size_t d) {
        if (exp_off_[d + 1] != exp_off_[d]) {
          devs[d]->stamp_with_exps(st, x_[l], vals + exp_off_[d]);
        } else {
          devs[d]->stamp(st, x_[l]);
        }
      };
      // gmin sits right after the linear prefix, as in SimSession.
      for (std::size_t d = 0; d < linear_prefix_; ++d) stamp_device(d);
      stamp_gmin(st, node_unknowns, opt.gmin_floor);
      for (std::size_t d = linear_prefix_; d < devs.size(); ++d) {
        stamp_device(d);
      }
      vals += exp_stride_;
    }

    // One shared refactor carries all live lanes; a lane whose values
    // reject the frozen pivots leaves the lockstep (the scalar path would
    // have re-analysed or fallen down the ladder -- solo does both).
    lane_ok_ = live_;
    slu_.refactor_batch(batch_, lane_ok_);
    for (std::size_t l = 0; l < k; ++l) {
      if (live_[l] && !lane_ok_[l]) {
        status_[l].needs_solo = true;
        live_[l] = 0;
        --live_count;
      }
    }
    if (live_count == 0) break;

    // Pack the RHS planes (lane-fastest) and solve them all together.
    for (int i = 0; i < n_unknowns; ++i) {
      const auto row = static_cast<std::size_t>(i) * k;
      for (std::size_t l = 0; l < k; ++l) {
        rhs_[row + l] = b_lane_[l][static_cast<std::size_t>(i)];
      }
    }
    slu_.solve_batch(rhs_);

    // Per-lane damping + update + convergence test: SimSession's own
    // epilogue, reading this lane's column of the lane-fastest planes.
    for (std::size_t l = 0; l < k; ++l) {
      if (!live_[l]) continue;
      const NewtonStep step =
          newton_update(opt, node_unknowns, iter == 0, rhs_.data() + l, k,
                        x_[l]);
      if (step == NewtonStep::kDiverged) {
        status_[l].needs_solo = true;
        live_[l] = 0;
        --live_count;
      } else if (step == NewtonStep::kConverged) {
        status_[l].converged = true;
        last_solution_[l] = x_[l];  // same-size copy
        have_last_[l] = 1;
        live_[l] = 0;
        --live_count;
      }
    }
  }

  // Plain Newton exhausted without converging: the scalar path would now
  // try gmin / source stepping -- that is solo work by construction.
  for (std::size_t l = 0; l < k; ++l) {
    if (live_[l]) {
      status_[l].needs_solo = true;
      live_[l] = 0;
    }
  }
}

}  // namespace icvbe::spice
