#pragma once
// Dynamic (energy-storage) devices: capacitor and inductor.
//
// A dynamic device is in one of two modes:
//
//  * DC mode (default): the device contributes its steady-state behaviour
//    -- a capacitor is an open circuit, an inductor a short (a 0 V branch
//    via its aux current). Crucially, DC-mode stamps still *register every
//    matrix slot the transient companion will later write* (zero-valued
//    entries register pattern slots, see SparseMatrix), so a sparse
//    session's frozen pattern discovered at bind time is valid for both
//    analyses.
//  * transient mode (TransientSolver only): begin_step(method, s) selects
//    the integration scheme and s = alpha/h for the next timestep;
//    stamp() still writes the DC matrix entries and adds the companion's
//    history term (stamp_history), linearised around the committed state
//    of the previous accepted timepoint, to the RHS; commit(x) advances
//    that state.
//
// stamp_reactive() writes the device's C in the MNA form F(x) + dQ/dt:
// +C between a capacitor's nodes, -L at an inductor's aux diagonal, in
// slots the DC stamp already registers. The session solves one linear
// form with it, the DC stamp plus s*C:
//   AC:    G + j*omega*C            (SimSession::solve_ac)
//   TRAN:  G + (alpha/h)*C          (companion_scale; alpha = 1 for
//                                    backward Euler, 2 for trapezoidal)
// so the companion conductance exists only as (alpha/h)*stamp_reactive,
// formed once per step size by the session (SimSession::begin_transient).
// Per step a device adds only its history term (stamp_history), with
// s = alpha/h:
//   C (current i flows a -> b):  i = s C v + ieq,
//     ieq = -s C v_prev            (backward Euler)
//     ieq = -s C v_prev - i_prev   (trapezoidal)
//   L (aux row, i flows p -> m): v = s L i + veq,
//     veq = -s L i_prev            (backward Euler)
//     veq = -s L i_prev - v_prev   (trapezoidal)

#include <cmath>

#include "icvbe/spice/device.hpp"

namespace icvbe::spice {

/// Integration scheme of one transient timestep.
enum class IntegrationMethod {
  kBackwardEuler,  ///< A-stable, first order, damps ringing
  kTrapezoidal,    ///< A-stable, second order, energy-preserving
};

/// s = alpha/h of a companion step: the factor of C in G + s*C (see the
/// header comment). The session's matrix and every device's history term
/// take it from here, so both round alike.
[[nodiscard]] inline double companion_scale(IntegrationMethod method,
                                            double h) noexcept {
  return (method == IntegrationMethod::kTrapezoidal ? 2.0 : 1.0) / h;
}

/// Base class of the energy-storage devices. TransientSolver drives a
/// run's dynamic devices through its session: transient mode and
/// begin_step() come from SimSession::transient_step, commit() from the
/// solver after each accepted timestep, and DC mode returns when the
/// solver is destroyed. All methods are allocation-free.
class DynamicDevice : public Device {
 public:
  using Device::Device;

  /// Leave transient mode; stamps revert to the DC steady-state model.
  void set_dc_mode() noexcept { transient_ = false; }

  /// Select the integration scheme and step for the next stamp, given as
  /// s = companion_scale(method, h) (computed once per step by the
  /// caller, not once per device). \pre s > 0.
  void begin_step(IntegrationMethod method, double s) noexcept {
    transient_ = true;
    method_ = method;
    s_ = s;
  }

  /// Stamp the reactive coefficients (the matrix C of G + s*C, see the
  /// header comment); independent of the mode and of any iterate.
  virtual void stamp_reactive(Stamper& stamper) const = 0;

  /// The RHS part of stamp() in transient mode: the companion history
  /// term of the table in the header comment. stamp() adds it after the
  /// DC entries; a transient attempt calls it alone for the devices whose
  /// DC entries sit in the session's A_lin (SimSession::begin_transient).
  /// \pre transient mode.
  virtual void stamp_history(Stamper& stamper) const = 0;

  /// Advance the companion state to the accepted solution `x` (called once
  /// per *accepted* timestep; rejected Newton solves never commit).
  virtual void commit(const Unknowns& x) = 0;

  /// Initialise the companion state from the transient start point
  /// (operating point or UIC vector). A device-level IC (the card's IC=
  /// parameter) overrides the corresponding quantity.
  virtual void init_state(const Unknowns& x) = 0;

  /// Write the device-level IC (if any) into the start vector so t = 0
  /// probes read it (inductor current lives in an aux slot; capacitor
  /// branch voltage has no single slot, so C implements this as a no-op).
  virtual void imprint_ic(Unknowns& /*x*/) const {}

  /// Device-level initial condition from the card's IC= parameter
  /// (volts across a capacitor, amps through an inductor); NaN if absent.
  [[nodiscard]] double initial_condition() const noexcept { return ic_; }
  [[nodiscard]] bool has_initial_condition() const noexcept {
    return !std::isnan(ic_);
  }

 protected:
  bool transient_ = false;
  IntegrationMethod method_ = IntegrationMethod::kBackwardEuler;
  double s_ = 0.0;  ///< companion_scale of the current step
  double ic_ = std::nan("");
};

/// Linear capacitor between nodes a and b.
class Capacitor final : public DynamicDevice {
 public:
  /// \pre farads > 0, a != b. `ic_volts` is the optional initial branch
  /// voltage V(a) - V(b) (NaN = derive from the start point).
  Capacitor(std::string name, NodeId a, NodeId b, double farads,
            double ic_volts = std::nan(""));

  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  /// C between a and b.
  void stamp_reactive(Stamper& stamper) const override;
  void stamp_history(Stamper& stamper) const override;
  void commit(const Unknowns& x) override;
  void init_state(const Unknowns& x) override;

  /// Current flowing a -> b: the committed companion current of the last
  /// accepted timepoint in transient mode (probes are evaluated at
  /// accepted points, after commit), 0 in DC mode (a capacitor blocks DC).
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  [[nodiscard]] double capacitance() const noexcept { return farads_; }
  /// Re-program the value (a server PATCH). Touches only the coefficient
  /// the companion derives per step, so the matrix pattern -- and with it
  /// a sparse session's cached symbolic analysis -- stays valid.
  /// \pre farads > 0; not while in transient mode.
  void set_capacitance(double farads);

 private:
  /// Companion coefficients for the current method/step; geq is the
  /// session's (alpha/h)*C.
  [[nodiscard]] double geq() const noexcept { return s_ * farads_; }
  [[nodiscard]] double ieq() const noexcept {
    return method_ == IntegrationMethod::kTrapezoidal
               ? -geq() * v_prev_ - i_prev_
               : -geq() * v_prev_;
  }

  NodeId a_;
  NodeId b_;
  double farads_;
  double v_prev_ = 0.0;  ///< committed V(a) - V(b)
  double i_prev_ = 0.0;  ///< committed current a -> b (trapezoidal memory)
};

/// Linear inductor between nodes p and m; its branch current is an aux
/// unknown (flowing p -> m), like a voltage source's.
class Inductor final : public DynamicDevice {
 public:
  /// \pre henries > 0, p != m. `ic_amps` is the optional initial branch
  /// current (NaN = derive from the start point).
  Inductor(std::string name, NodeId p, NodeId m, double henries,
           double ic_amps = std::nan(""));

  [[nodiscard]] int aux_count() const override { return 1; }
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  /// -L at the aux diagonal: the branch row V(p) - V(m) - s*L*i = 0.
  void stamp_reactive(Stamper& stamper) const override;
  void stamp_history(Stamper& stamper) const override;
  void commit(const Unknowns& x) override;
  void init_state(const Unknowns& x) override;
  void imprint_ic(Unknowns& x) const override;

  /// Branch current p -> m (the aux unknown).
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  [[nodiscard]] double inductance() const noexcept { return henries_; }
  /// Re-program the value (a server PATCH); pattern-preserving like
  /// Capacitor::set_capacitance.
  /// \pre henries > 0; not while in transient mode.
  void set_inductance(double henries);

 private:
  NodeId p_;
  NodeId m_;
  double henries_;
  double i_prev_ = 0.0;  ///< committed branch current p -> m
  double v_prev_ = 0.0;  ///< committed V(p) - V(m) (trapezoidal memory)
};

}  // namespace icvbe::spice
