#include "icvbe/spice/diode.hpp"

#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/physics/saturation_current.hpp"
#include "icvbe/spice/junction.hpp"

namespace icvbe::spice {

Diode::Diode(std::string name, NodeId anode, NodeId cathode, DiodeModel model,
             double area)
    : Device(std::move(name)),
      anode_(anode),
      cathode_(cathode),
      model_(model),
      area_(area),
      is_t_(model.is * area),
      vt_(model.n * thermal_voltage(model.tnom)),
      vcrit_(junction_vcrit(vt_, is_t_)),
      v_state_(0.0) {
  ICVBE_REQUIRE(area > 0.0, "Diode: area must be > 0");
  ICVBE_REQUIRE(model.is > 0.0, "Diode: IS must be > 0");
  ICVBE_REQUIRE(model.n > 0.0, "Diode: N must be > 0");
}

std::unique_ptr<Device> Diode::clone() const {
  auto d = std::make_unique<Diode>(name(), anode_, cathode_, model_, area_);
  d->is_t_ = is_t_;
  d->vt_ = vt_;
  d->vcrit_ = vcrit_;
  d->v_state_ = v_state_;
  return d;
}

void Diode::set_temperature(double t_kelvin) {
  // eq. (1) with the emission coefficient folded in as in SPICE3:
  // IS(T) = IS (T/tnom)^(XTI/N) exp( (EG/(N k)) (1/tnom - 1/T) ).
  const double ratio_term =
      (model_.xti / model_.n) * std::log(t_kelvin / model_.tnom);
  const double act_term = (model_.eg / (model_.n * kBoltzmannEv)) *
                          (1.0 / model_.tnom - 1.0 / t_kelvin);
  is_t_ = area_ * model_.is * std::exp(ratio_term + act_term);
  vt_ = model_.n * thermal_voltage(t_kelvin);
  vcrit_ = junction_vcrit(vt_, is_t_);
}

void Diode::reset_state() { v_state_ = 0.0; }

bool Diode::limit(const Unknowns& prev) {
  return limit_junction(
      prev.node_voltage(anode_) - prev.node_voltage(cathode_), v_state_, vt_,
      vcrit_);
}

void Diode::stamp(Stamper& stamper, const Unknowns& prev) {
  if (limit(prev)) stamper.note_limited();
  stamp_with_exps(stamper, prev, nullptr);
}

bool Diode::collect_exp_args(const Unknowns& prev, double* out) {
  // stamp()'s limiting prologue; stamp_with_exps reads v_state_ back.
  const bool limited = limit(prev);
  out[0] = v_state_ / vt_;
  return limited;
}

void Diode::stamp_with_exps(Stamper& stamper, const Unknowns& /*prev*/,
                            const double* exps) {
  const double v = v_state_;
  const double e = exps ? exps[0] : safe_exp(v / vt_);
  const double i = is_t_ * (e - 1.0);
  const double g = is_t_ * e / vt_ + 1e-15;  // floor keeps G regular
  stamper.stamp_companion(anode_, cathode_, g, i - g * v);
}

Terminals Diode::terminals(const Unknowns& x) const {
  const double v = x.node_voltage(anode_) - x.node_voltage(cathode_);
  return Terminals::branch(anode_, cathode_,
                           is_t_ * (safe_exp(v / vt_) - 1.0));
}

double Diode::power(const Unknowns& x) const {
  const double v = x.node_voltage(anode_) - x.node_voltage(cathode_);
  return std::abs(v * terminals(x).pin[0].amps);
}

}  // namespace icvbe::spice
