#pragma once
// SweepResult::RowSink: the one writer of analysis results. DC rows
// (SimSession::run), AC points (run_ac) and TRAN timepoints
// (TransientSolver::run) are all filled, streamed and cancelled here --
// sharedspice's one SendInitData (on_begin) / SendData (on_row) pair for
// every analysis. A DC/AC grid is preallocated and its rows may be filled
// concurrently, each by the worker that claimed it; TRAN appends rows
// from one thread.

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "icvbe/spice/plan.hpp"

namespace icvbe::spice {

class SweepResult::RowSink {
 public:
  /// Start a result over `axis_labels` with one column per probe. A DC/AC
  /// grid passes its axis points (`outer` empty for one axis) and gets its
  /// rows preallocated; TRAN passes none and appends, reserving
  /// `reserve_rows`. Calls observer->on_begin with the grid size (0: TRAN).
  RowSink(std::string name, std::vector<std::string> axis_labels,
          const std::vector<Probe>& probes, std::vector<double> outer,
          std::vector<double> inner, RunObserver* observer,
          std::size_t reserve_rows = 0)
      : name_(std::move(name)), observer_(observer) {
    r_.axis_labels_ = std::move(axis_labels);
    for (const Probe& p : probes) r_.probe_labels_.push_back(p.to_string());
    r_.outer_ = std::move(outer);
    r_.inner_ = std::move(inner);
    r_.rows_ = r_.inner_.size() * (r_.outer_.empty() ? 1 : r_.outer_.size());
    r_.values_.assign(r_.rows_ * probes.size(), 0.0);
    r_.inner_.reserve(reserve_rows);
    r_.values_.reserve(reserve_rows * probes.size());
    if (observer_ != nullptr) {
      observer_->on_begin(r_.axis_labels_, r_.probe_labels_, r_.rows_);
    }
  }

  [[nodiscard]] const std::vector<double>& outer() const noexcept {
    return r_.outer_;
  }
  [[nodiscard]] const std::vector<double>& inner() const noexcept {
    return r_.inner_;
  }
  /// Set once the observer cancelled (common::for_each_index polls it).
  [[nodiscard]] const std::atomic<bool>* cancelled() const noexcept {
    return &cancelled_;
  }

  /// Fill grid row `row` with eval(p) for every probe p, then stream it.
  /// Safe to call concurrently on distinct rows. Allocation-free.
  template <typename Eval>
  void put(std::size_t row, Eval&& eval) {
    double* v = r_.values_.data() + row * r_.probe_count();
    for (std::size_t p = 0; p < r_.probe_count(); ++p) v[p] = eval(p);
    deliver(row);
  }

  /// put() for a new row at axis value `axis` (TRAN). Allocation-free
  /// within the reserve.
  template <typename Eval>
  void append(double axis, Eval&& eval) {
    r_.inner_.push_back(axis);
    for (std::size_t p = 0; p < r_.probe_count(); ++p) {
      r_.values_.push_back(eval(p));
    }
    deliver(r_.rows_++);
  }

  /// The finished result.
  [[nodiscard]] SweepResult take() && { return std::move(r_); }

 private:
  /// Hand row `row` to the observer. Throws CancelledError if any worker
  /// saw a cancel, or the observer asks for one now.
  void deliver(std::size_t row) {
    if (observer_ == nullptr) return;
    if (cancelled_.load(std::memory_order_relaxed)) {
      throw CancelledError(name_ + ": cancelled");
    }
    double axes[2];
    std::size_t axis_count = 0;
    if (r_.outer_.empty()) {
      axes[axis_count++] = r_.inner_[row];
    } else {
      axes[axis_count++] = r_.outer_[row / r_.inner_.size()];
      axes[axis_count++] = r_.inner_[row % r_.inner_.size()];
    }
    if (!observer_->on_row(row, axes, axis_count,
                           r_.values_.data() + row * r_.probe_count(),
                           r_.probe_count())) {
      cancelled_.store(true, std::memory_order_relaxed);
      throw CancelledError(name_ + ": cancelled by observer");
    }
  }

  std::string name_;
  RunObserver* observer_;
  std::atomic<bool> cancelled_{false};
  SweepResult r_;
};

}  // namespace icvbe::spice
