#pragma once
// Linear circuit elements: resistor (with temperature coefficients),
// independent voltage/current sources, VCVS, and the op-amp (a VCVS with
// very high gain -- adequate for the bandgap loop which operates the
// amplifier in its linear region).

#include <optional>

#include "icvbe/spice/device.hpp"
#include "icvbe/spice/waveform.hpp"

namespace icvbe::spice {

/// Resistor with optional first/second-order temperature coefficients:
/// R(T) = R0 (1 + tc1 dT + tc2 dT^2), dT = T - tnom.
class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms, double tc1 = 0.0,
           double tc2 = 0.0, double tnom_kelvin = 300.15);

  void set_temperature(double t_kelvin) override;
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  [[nodiscard]] double power(const Unknowns& x) const override;
  /// Current flowing a -> b.
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  [[nodiscard]] double resistance() const noexcept { return r_now_; }
  [[nodiscard]] double nominal_resistance() const noexcept { return r0_; }

  /// Re-program the nominal value R0. The tempco scaling of the last
  /// set_temperature() carries over: R becomes R0 (1 + tc1 dT + tc2 dT^2).
  void set_nominal_resistance(double ohms);

 private:
  NodeId a_;
  NodeId b_;
  double r0_;
  double tc1_;
  double tc2_;
  double tnom_;
  double factor_ = 1.0;  ///< tempco factor of the last set_temperature()
  double r_now_;
};

/// What the independent V and I sources share, and clone() copies: the DC
/// value a DC analysis uses, an optional time-domain waveform, and the
/// small-signal AC stimulus. The value is volts for a V source, amps for
/// an I source. power() stays 0: sources deliver power into the circuit,
/// they do not heat the die.
class IndependentSource : public Device {
 public:
  IndependentSource(std::string name, NodeId p, NodeId m, double value)
      : Device(std::move(name)), p_(p), m_(m), value_(value) {}

  void set_value(double value) { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

  /// Optional time-domain stimulus. DC analyses ignore it (the DC value
  /// stays whatever set_value programmed -- parsers use the waveform's
  /// dc_value(), its initial/offset value); TransientSolver re-applies
  /// value_at(t) while stepping.
  void set_waveform(Waveform w) { waveform_ = std::move(w); }
  [[nodiscard]] bool has_waveform() const noexcept {
    return waveform_.has_value();
  }
  [[nodiscard]] const Waveform& waveform() const { return *waveform_; }

  /// Small-signal stimulus ("AC <mag> [phase]" on the card): magnitude in
  /// the value's unit, phase in degrees. A magnitude of 0 (the default)
  /// makes a V source an AC short and an I source an AC open.
  void set_ac(double magnitude, double phase_deg = 0.0) {
    ac_magnitude_ = magnitude;
    ac_phase_deg_ = phase_deg;
  }
  [[nodiscard]] double ac_magnitude() const noexcept { return ac_magnitude_; }
  [[nodiscard]] double ac_phase_deg() const noexcept { return ac_phase_deg_; }

  /// Add the AC stimulus phasor to the small-signal RHS `b`: a V source
  /// drives its branch row, an I source injects it p -> m through the
  /// source like its DC value. The DC value never enters the small-signal
  /// system: without an AC spec a V source is an AC short and an I source
  /// an AC open.
  void add_ac_stimulus(linalg::ComplexVector& b) const;

 protected:
  NodeId p_;
  NodeId m_;
  double value_;

 private:
  double ac_magnitude_ = 0.0;
  double ac_phase_deg_ = 0.0;
  std::optional<Waveform> waveform_;
};

/// Independent voltage source; positive terminal p. Uses one aux unknown
/// (the branch current flowing p -> m through the source).
class VoltageSource final : public IndependentSource {
 public:
  VoltageSource(std::string name, NodeId p, NodeId m, double volts);

  [[nodiscard]] int aux_count() const override { return 1; }
  [[nodiscard]] std::unique_ptr<Device> clone() const override {
    return std::make_unique<VoltageSource>(*this);
  }
  void stamp(Stamper& stamper, const Unknowns& prev) override;

  /// Branch current p -> m (positive = conventional current out of the +
  /// terminal through the external circuit is negative).
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;
};

/// Independent current source driving current `amps` from node p to
/// node m through the source (i.e. injecting into m, extracting from p).
class CurrentSource final : public IndependentSource {
 public:
  CurrentSource(std::string name, NodeId p, NodeId m, double amps);

  [[nodiscard]] std::unique_ptr<Device> clone() const override {
    return std::make_unique<CurrentSource>(*this);
  }
  void stamp(Stamper& stamper, const Unknowns& prev) override;

  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;
};

/// Voltage-controlled voltage source: V(p) - V(m) = gain (V(cp) - V(cm)).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
       double gain);

  [[nodiscard]] int aux_count() const override { return 1; }
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  [[nodiscard]] double gain() const noexcept { return gain_; }

 private:
  NodeId p_;
  NodeId m_;
  NodeId cp_;
  NodeId cm_;
  double gain_;
};

/// Operational amplifier: out = gain (V(inp) - V(inn)) + offset, referenced
/// to ground, with finite open-loop gain (default 1e6) and an input offset
/// voltage -- the paper's "offset of the op amp stage" second-order effect.
class OpAmp final : public Device {
 public:
  OpAmp(std::string name, NodeId out, NodeId inp, NodeId inn,
        double gain = 1.0e6, double offset_volts = 0.0);

  [[nodiscard]] int aux_count() const override { return 1; }
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  /// Output current out -> ground; ground is the fourth terminal.
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  void set_offset(double volts) { offset_ = volts; }
  [[nodiscard]] double offset() const noexcept { return offset_; }

 private:
  NodeId out_;
  NodeId inp_;
  NodeId inn_;
  double gain_;
  double offset_;
};

}  // namespace icvbe::spice
