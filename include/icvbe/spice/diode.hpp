#pragma once
// Junction diode with the eq.-(1) saturation-current temperature law.

#include "icvbe/spice/device.hpp"

namespace icvbe::spice {

/// Diode model card.
struct DiodeModel {
  double is = 1e-14;      ///< saturation current at tnom [A]
  double n = 1.0;         ///< emission coefficient
  double eg = 1.11;       ///< activation energy [eV]
  double xti = 3.0;       ///< IS temperature exponent
  double tnom = 300.15;   ///< model reference temperature [K]
};

/// Two-terminal junction diode anode -> cathode. (No series resistance:
/// model an explicit Resistor when needed.)
class Diode final : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeModel model,
        double area = 1.0);

  void set_temperature(double t_kelvin) override;
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  [[nodiscard]] bool is_nonlinear() const override { return true; }
  void reset_state() override;
  [[nodiscard]] double power(const Unknowns& x) const override;

  /// One junction exponential per evaluation, batched through the
  /// session's vectorized safe_exp sweep.
  [[nodiscard]] int exp_arg_count() const override { return 1; }
  bool collect_exp_args(const Unknowns& prev, double* out) override;
  void stamp_with_exps(Stamper& stamper, const Unknowns& prev,
                       const double* exps) override;

  /// Diode current anode -> cathode at solution x.
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  /// Effective IS(T) after the last set_temperature.
  [[nodiscard]] double is_at_temperature() const noexcept { return is_t_; }

 private:
  /// Junction limiting at `prev` into v_state_ (stamp()'s and
  /// collect_exp_args()'s prologue); true if it moved the voltage.
  bool limit(const Unknowns& prev);

  NodeId anode_;
  NodeId cathode_;
  DiodeModel model_;
  double area_;
  double is_t_;     // IS at current temperature
  double vt_;       // N * kT/q
  double vcrit_;
  double v_state_;  // junction-limited voltage from the last iteration
};

}  // namespace icvbe::spice
