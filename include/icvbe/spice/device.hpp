#pragma once
// Device: base class of every circuit element.
//
// Lifecycle per DC solve:
//   1. set_temperature(T)   -- update temperature-dependent parameters
//   2. reset_state()        -- clear junction-limiting memory
//   3. stamp(stamper, prev) -- linear devices: once per Newton attempt;
//                              nonlinear: every iteration, linearised at prev
//      (the linear devices before the first nonlinear one are the
//      session's linear part, built once per DC attempt or transient run
//      and loaded every iteration; the devices from there on restamp
//      every iteration; see SimSession::Linear)
//   4. power(solution)      -- dissipation for the electro-thermal loop
// terminals(x), outside the solve, reads the terminal currents at any x.
//
// Small-signal contract (AC analysis): there is no AC stamp. The AC
// engine (SimSession::solve_ac) solves G + j*omega*C about a solved
// operating point, built from three real pieces: G is stamp() at the OP
// in a Newton iteration's order (its RHS thrown away), C is
// DynamicDevice::stamp_reactive on the capacitors and inductors, and the
// RHS is IndependentSource::add_ac_stimulus. A device's AC model is its
// DC Jacobian by construction, so the two cannot drift apart. A
// transient step solves the same form with s = alpha/h in place of
// j*omega (dynamic_devices.hpp), so there is no companion stamp either.

#include <array>
#include <memory>
#include <string>

#include "icvbe/spice/stamper.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

/// Each terminal's node and the current flowing from that node into the
/// device [A], at one solution; no device has more than 4 terminals.
struct Terminals {
  struct Pin {
    NodeId node = kGround;
    double amps = 0.0;
  };
  std::array<Pin, 4> pin{};
  int count = 0;

  /// Two terminals: `amps` flows from node a through the device to b.
  [[nodiscard]] static Terminals branch(NodeId a, NodeId b, double amps) {
    return {{{{a, amps}, {b, -amps}}}, 2};
  }
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Update temperature-dependent parameters (default: none).
  virtual void set_temperature(double /*t_kelvin*/) {}

  /// Number of auxiliary (branch-current) unknowns this device needs.
  [[nodiscard]] virtual int aux_count() const { return 0; }

  /// Called by the circuit when unknown indices are assigned.
  void set_first_aux(int index) { first_aux_ = index; }
  [[nodiscard]] int first_aux() const noexcept { return first_aux_; }

  /// Deep copy carrying the full device state (parameters, temperature-
  /// derived values, iteration memory). Aux indices are NOT copied -- the
  /// clone's circuit re-assigns them. Enables per-thread circuit clones
  /// for parallel plan execution (SimSession::run).
  [[nodiscard]] virtual std::unique_ptr<Device> clone() const = 0;

  /// Stamp the linearised model around the previous iterate. Non-const so
  /// nonlinear devices can keep junction-limiting state between iterations.
  virtual void stamp(Stamper& stamper, const Unknowns& prev) = 0;

  /// True if the device is nonlinear (forces Newton iteration).
  ///
  /// Contract of a device returning false (asserted per class by
  /// test_session's LinearDeviceContract): stamp() writes bitwise the same
  /// matrix and RHS values at any iterate `prev`, and changes no state that
  /// a later stamp(), power() or probe could observe. Its values may change
  /// only through calls made between Newton attempts (a source value,
  /// set_temperature, begin_step, a parameter setter). SimSession relies
  /// on this: the linear devices before the first nonlinear one are its
  /// linear part, stamped once per DC attempt and once per transient run
  /// and loaded on every iteration. Per attempt only the RHS of the
  /// sources and dynamic devices among them is written again, so within
  /// a transient run the stamp of any other linear device must not change
  /// at all.
  [[nodiscard]] virtual bool is_nonlinear() const { return false; }

  // Lane-batched exponential evaluation (BatchDcSession). Junction devices
  // split one stamp into three phases so the exp() arguments of every live
  // lane can run through one vectorized safe_exp_many sweep:
  //   A. collect_exp_args(prev, out) -- run junction limiting against
  //      `prev` (updating limiting state exactly as stamp() would), write
  //      exp_arg_count() exponent arguments to `out`, and return true if
  //      the limiting moved a junction voltage (what stamp() reports
  //      through Stamper::note_limited);
  //   B. the session evaluates safe_exp over every collected argument;
  //   C. stamp_with_exps(stamper, prev, exps) -- stamp consuming the
  //      precomputed safe_exp values, same order as written in phase A.
  // safe_exp_many is element-wise bit-identical to safe_exp, and phases
  // run in original device order, so the three-phase stamp reproduces
  // stamp()'s matrix and RHS bit-for-bit.

  /// Number of exp() arguments this device contributes per evaluation
  /// (0 = device does not participate; stamp() is used directly).
  [[nodiscard]] virtual int exp_arg_count() const { return 0; }
  /// Phase A (see above). Only called when exp_arg_count() > 0.
  virtual bool collect_exp_args(const Unknowns& /*prev*/, double* /*out*/) {
    return false;
  }
  /// Phase C (see above). Default falls back to the one-shot stamp().
  virtual void stamp_with_exps(Stamper& stamper, const Unknowns& prev,
                               const double* /*exps*/) {
    stamp(stamper, prev);
  }

  /// Terminal currents at `x`, with no stamp and no junction limiting.
  /// Terminal 0 carries the branch current I(dev) reads.
  [[nodiscard]] virtual Terminals terminals(const Unknowns& x) const = 0;

  /// True if probes name this device's terminals (IC/IB/IE/ISUB of a BJT)
  /// rather than reading one branch current with I(dev).
  [[nodiscard]] virtual bool named_terminals() const { return false; }

  /// Clear iteration state before a fresh solve.
  virtual void reset_state() {}

  /// Dissipated power at the given solution [W] (default 0; used by the
  /// electro-thermal self-heating loop).
  [[nodiscard]] virtual double power(const Unknowns& /*x*/) const {
    return 0.0;
  }

 protected:
  /// Copies the name only: a copy's aux index is assigned by its own
  /// circuit (see clone()).
  Device(const Device& other) : name_(other.name_) {}

 private:
  std::string name_;
  int first_aux_ = -1;
};

}  // namespace icvbe::spice
