#pragma once
// Gummel-Poon bipolar transistor (DC subset) with:
//  * the eq.-(1) IS(T) temperature law parameterised by (EG, XTI) -- the
//    exact parameters the paper's methods extract;
//  * forward/reverse Early effect (VAF / VAR);
//  * B-E and B-C leakage diodes (ISE/NE, ISC/NC);
//  * an optional parasitic substrate transistor: a temperature-activated
//    junction current from the collector to the substrate node driven by
//    the forward-biased B-C junction. This is the paper's "leakage current
//    of the parasitic transistor" that matters "at the limit of the
//    saturation" and scales with emitter area (8x for QB).

#include <limits>

#include "icvbe/spice/device.hpp"

namespace icvbe::spice {

/// BJT model card (DC parameters only -- this library never transients).
struct BjtModel {
  enum class Type { kNpn, kPnp };
  Type type = Type::kNpn;

  double is = 1e-16;    ///< transport saturation current at tnom [A]
  double bf = 100.0;    ///< forward beta
  double br = 1.0;      ///< reverse beta
  double nf = 1.0;      ///< forward emission coefficient
  double nr = 1.0;      ///< reverse emission coefficient
  double ise = 0.0;     ///< B-E leakage saturation current [A]
  double ne = 1.5;      ///< B-E leakage emission coefficient
  double isc = 0.0;     ///< B-C leakage saturation current [A]
  double nc = 2.0;      ///< B-C leakage emission coefficient
  double vaf = std::numeric_limits<double>::infinity();  ///< fwd Early [V]
  double var = std::numeric_limits<double>::infinity();  ///< rev Early [V]

  double eg = 1.17;     ///< eq. (1) activation energy [eV]
  double xti = 3.0;     ///< eq. (1) temperature exponent
  double tnom = 300.15; ///< model reference temperature [K]

  // Parasitic substrate transistor, B-C-junction driven (0 disables). The
  // parasitic collects carriers injected by the forward-biased B-C junction
  // into the substrate; it has its own temperature law (different junction
  // depth and doping), which is what makes the corruption non-PTAT.
  double iss = 0.0;     ///< substrate parasitic saturation current [A]
  double ns = 1.0;      ///< substrate parasitic emission coefficient
  double eg_sub = 1.05; ///< substrate parasitic activation energy [eV]
  double xti_sub = 3.0; ///< substrate parasitic temperature exponent

  // Vertical parasitic transistor off the *emitter* junction (0 disables).
  // In the paper's lateral/substrate PNPs the emitter p+ injects into the
  // n-well and down to the substrate whenever the E-B junction is forward
  // biased; a diode-connected device (VCB = 0, "the limit of the
  // saturation") always exercises this path. ns_e != 1 makes the stolen
  // fraction area-dependent, which is how QB's 8x parasitic corrupts dVBE.
  double iss_e = 0.0;       ///< emitter-junction parasitic sat. current [A]
  double ns_e = 1.2;        ///< its emission coefficient
  double eg_sub_e = 1.02;   ///< its activation energy [eV]
  double xti_sub_e = 3.0;   ///< its temperature exponent
  /// Current gain of the vertical parasitic transistor. Its base terminal
  /// is the main device's base (the n-well), so a fraction 1/bf_sub of the
  /// parasitic current exits through the base node -- which is what makes
  /// the RadjA trim in the base leg able to cancel the parasitic's
  /// super-linear temperature component. Infinity = no base routing.
  double bf_sub = std::numeric_limits<double>::infinity();
};

/// Four-terminal BJT: collector, base, emitter, substrate. `area` scales
/// IS/ISE/ISC/ISS (the paper's QB uses area = 8).
class Bjt final : public Device {
 public:
  Bjt(std::string name, NodeId collector, NodeId base, NodeId emitter,
      BjtModel model, double area = 1.0, NodeId substrate = kGround);

  void set_temperature(double t_kelvin) override;
  [[nodiscard]] std::unique_ptr<Device> clone() const override;
  void stamp(Stamper& stamper, const Unknowns& prev) override;
  [[nodiscard]] bool is_nonlinear() const override { return true; }
  void reset_state() override;
  [[nodiscard]] double power(const Unknowns& x) const override;

  /// The six junction exponentials of one evaluation (transport fwd/rev,
  /// B-E / B-C leakage, substrate, emitter-side parasitic), batched
  /// through the session's vectorized safe_exp sweep.
  static constexpr int kExpArgs = 6;
  [[nodiscard]] int exp_arg_count() const override { return kExpArgs; }
  bool collect_exp_args(const Unknowns& prev, double* out) override;
  void stamp_with_exps(Stamper& stamper, const Unknowns& prev,
                       const double* exps) override;

  /// Terminal currents at solution x, positive flowing *into* the terminal
  /// from the node (SPICE convention).
  struct TerminalCurrents {
    double ic = 0.0;
    double ib = 0.0;
    double ie = 0.0;
    double isub = 0.0;
  };
  [[nodiscard]] TerminalCurrents currents(const Unknowns& x) const;
  /// currents(x) as collector, base, emitter, substrate: IC/IB/IE/ISUB.
  [[nodiscard]] Terminals terminals(const Unknowns& x) const override;
  [[nodiscard]] bool named_terminals() const override { return true; }
  /// power(x) from currents already evaluated at x (tc == currents(x)), so
  /// a probe that needs both evaluates the model once.
  [[nodiscard]] double power(const Unknowns& x,
                             const TerminalCurrents& tc) const;

  /// Base-emitter voltage at solution x in the forward (type-normalised)
  /// frame: vbe = s (Vb - Ve), with s = +1 for NPN and -1 for PNP.
  [[nodiscard]] double vbe(const Unknowns& x) const;

  /// Swap the model card in place (same validation as the constructor) and
  /// re-derive every temperature-dependent quantity at the current device
  /// temperature. Limiting state is reset, so the next solve starts exactly
  /// as a freshly-constructed device would -- this is what lets a lot
  /// campaign re-program one bound circuit per die instead of rebuilding
  /// it. The device type (NPN/PNP) must not change: the sign convention is
  /// baked into the bound stamp pattern.
  void set_model(const BjtModel& model);

  [[nodiscard]] const BjtModel& model() const noexcept { return model_; }
  [[nodiscard]] double area() const noexcept { return area_; }
  [[nodiscard]] double is_at_temperature() const noexcept { return is_t_; }
  [[nodiscard]] double temperature() const noexcept { return temp_; }

 private:
  /// Currents and conductances in the type-normalised frame at junction
  /// voltages (v1 = vbe, v2 = vbc).
  struct Eval {
    double it, ibe, ibc, isub, isub_e;   // branch currents
    double git1, git2;                   // d it / d v1, v2
    double gbe, gbc, gsub, gsub_e;       // diode conductances
  };
  [[nodiscard]] Eval evaluate(double v1, double v2) const;
  /// The kExpArgs exponent arguments of an evaluation at (v1, v2), in the
  /// order stamp_with_exps consumes them.
  void exp_args(double v1, double v2, double* out) const;
  /// evaluate() with the junction exponentials precomputed (e[i] =
  /// safe_exp of exp_args()[i]); evaluate() routes through this so the
  /// scalar and batched paths share one model body.
  [[nodiscard]] Eval evaluate_from_exps(double v1, double v2,
                                        const double* e) const;
  /// Junction limiting of both junctions at `prev` into v1_state_ /
  /// v2_state_ (stamp()'s and collect_exp_args()'s prologue); true if it
  /// moved either voltage.
  bool limit(const Unknowns& prev);
  /// Everything stamp() does after junction limiting and evaluation --
  /// shared by stamp() and stamp_with_exps().
  void stamp_core(Stamper& stamper, double v1, double v2, const Eval& ev);

  NodeId c_, b_, e_, s_node_;
  BjtModel model_;
  double area_;
  double sign_;     // +1 NPN, -1 PNP
  double temp_;
  double vt_;       // kT/q
  double is_t_, ise_t_, isc_t_, iss_t_, iss_e_t_;  // temp-updated, area-scaled
  double vcrit_be_, vcrit_bc_;
  double v1_state_, v2_state_;  // limited junction voltages
};

}  // namespace icvbe::spice
