#pragma once
// Level-1 (Shichman-Hodges) MOSFET -- the CMOS half of the paper's BiCMOS
// process. Used to build the transistor-level op-amp variant of the test
// cell (the ideal OpAmp device remains the default).

#include "icvbe/spice/device.hpp"

namespace icvbe::spice {

/// Level-1 model card.
struct MosfetModel {
  enum class Type { kNmos, kPmos };
  Type type = Type::kNmos;

  double vto = 0.7;      ///< threshold voltage at tnom [V] (positive for
                         ///< NMOS; PMOS uses -vto internally)
  double kp = 50e-6;     ///< transconductance parameter [A/V^2]
  double lambda = 0.02;  ///< channel-length modulation [1/V]
  double tnom = 300.15;  ///< reference temperature [K]

  // First-order temperature behaviour of the two dominant effects:
  double vto_tc = -2.0e-3;   ///< dVTO/dT [V/K]
  double mobility_exp = 1.5; ///< KP ~ (T/tnom)^-mobility_exp
};

/// Three-terminal MOSFET (bulk tied to source; no body effect -- adequate
/// for the op-amp macrocell where sources sit on rails or mirror nodes).
class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
         MosfetModel model, double w_over_l = 1.0);

  void set_temperature(double t_kelvin) override;
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  [[nodiscard]] bool is_nonlinear() const override { return true; }
  [[nodiscard]] double power(const Unknowns& x) const override;

  /// Drain, gate, source. The drain current is positive into the drain
  /// for NMOS, out of it for PMOS; the gate draws none.
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;

  /// Gate overdrive VGS - VTH in the type-normalised frame at solution x.
  [[nodiscard]] double overdrive(const Unknowns& x) const;

  [[nodiscard]] const MosfetModel& model() const noexcept { return model_; }
  [[nodiscard]] double w_over_l() const noexcept { return w_over_l_; }

 private:
  struct Eval {
    double id;         // drain current, type frame
    double gm, gds;    // partials wrt vgs, vds (type frame)
  };
  [[nodiscard]] Eval evaluate(double vgs, double vds) const;

  NodeId d_, g_, s_;
  MosfetModel model_;
  double w_over_l_;
  double sign_;        // +1 NMOS, -1 PMOS
  double vth_now_;     // temperature-updated threshold (positive)
  double beta_now_;    // kp * W/L at temperature
};

}  // namespace icvbe::spice
