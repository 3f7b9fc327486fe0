#include "icvbe/spice/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/error.hpp"

namespace icvbe::spice {

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               MosfetModel model, double w_over_l)
    : Device(std::move(name)),
      d_(drain),
      g_(gate),
      s_(source),
      model_(model),
      w_over_l_(w_over_l),
      sign_(model.type == MosfetModel::Type::kNmos ? 1.0 : -1.0),
      vth_now_(model.vto),
      beta_now_(model.kp * w_over_l) {
  ICVBE_REQUIRE(w_over_l > 0.0, "Mosfet: W/L must be > 0");
  ICVBE_REQUIRE(model.kp > 0.0, "Mosfet: KP must be > 0");
  ICVBE_REQUIRE(model.lambda >= 0.0, "Mosfet: LAMBDA must be >= 0");
  set_temperature(model.tnom);
}

std::unique_ptr<Device> Mosfet::clone() const {
  auto d = std::make_unique<Mosfet>(name(), d_, g_, s_, model_, w_over_l_);
  d->vth_now_ = vth_now_;
  d->beta_now_ = beta_now_;
  return d;
}

void Mosfet::set_temperature(double t_kelvin) {
  ICVBE_REQUIRE(t_kelvin > 0.0, "Mosfet: temperature must be > 0 K");
  const double dt = t_kelvin - model_.tnom;
  // |VTH| shrinks with temperature; mobility degrades as a power law.
  vth_now_ = std::max(model_.vto + model_.vto_tc * dt, 0.05);
  beta_now_ = model_.kp * w_over_l_ *
              std::pow(t_kelvin / model_.tnom, -model_.mobility_exp);
}

Mosfet::Eval Mosfet::evaluate(double vgs, double vds) const {
  // Channel symmetry: for vds < 0 the physical source and drain swap.
  // With u = vgd = vgs - vds and w = -vds, id = -f(u, w) and
  //   d id/d vgs = -f_u,    d id/d vds = f_u + f_w.
  if (vds < 0.0) {
    const Eval fwd = evaluate(vgs - vds, -vds);
    Eval ev{};
    ev.id = -fwd.id;
    ev.gm = -fwd.gm;
    ev.gds = fwd.gm + fwd.gds;
    return ev;
  }

  Eval ev{};
  constexpr double kGminFloor = 1e-12;
  // Smooth overdrive (softplus with a 0.1 mV knee): keeps a tiny current
  // and a nonzero gate gradient below threshold so Newton can find its way
  // out of cutoff; negligible (<1e-4 relative) above ~10 mV overdrive.
  constexpr double kKnee = 1e-4;
  const double vov_raw = vgs - vth_now_;
  const double root = std::sqrt(vov_raw * vov_raw + 4.0 * kKnee * kKnee);
  const double vov = 0.5 * (vov_raw + root);
  const double dvov = 0.5 * (1.0 + vov_raw / root);

  const double clm = 1.0 + model_.lambda * vds;
  if (vds < vov) {
    // Triode.
    ev.id = beta_now_ * (vov - 0.5 * vds) * vds * clm;
    ev.gm = beta_now_ * vds * clm * dvov;
    ev.gds = beta_now_ * ((vov - vds) * clm +
                          (vov - 0.5 * vds) * vds * model_.lambda) +
             kGminFloor;
  } else {
    // Saturation.
    ev.id = 0.5 * beta_now_ * vov * vov * clm;
    ev.gm = beta_now_ * vov * clm * dvov;
    ev.gds = 0.5 * beta_now_ * vov * vov * model_.lambda + kGminFloor;
  }
  return ev;
}

void Mosfet::stamp(Stamper& stamper, const Unknowns& prev) {
  const double s = sign_;
  // Type frame: vgs, vds positive in normal operation for both types.
  // Mild limiting keeps the square law from launching Newton; the device
  // is polynomial so a simple clamp is enough (no exponentials here). The
  // clamped (vgs, vds) are the linearisation point the companion RHS needs.
  const double vgs =
      std::clamp(s * (prev.node_voltage(g_) - prev.node_voltage(s_)), -5.0,
                 5.0);
  const double vds =
      std::clamp(s * (prev.node_voltage(d_) - prev.node_voltage(s_)), -5.0,
                 10.0);
  const Eval ev = evaluate(vgs, vds);

  // Currents leaving nodes: Jd = s*id, Js = -s*id, Jg = 0.
  const int id_ = stamper.node_index(d_);
  const int ig = stamper.node_index(g_);
  const int is = stamper.node_index(s_);

  // dJd/dVg = gm, dJd/dVd = gds, dJd/dVs = -(gm + gds)  (s^2 cancels).
  stamper.add_entry(id_, ig, ev.gm);
  stamper.add_entry(id_, id_, ev.gds);
  stamper.add_entry(id_, is, -(ev.gm + ev.gds));
  stamper.add_entry(is, ig, -ev.gm);
  stamper.add_entry(is, id_, -ev.gds);
  stamper.add_entry(is, is, ev.gm + ev.gds);

  const double jd = s * ev.id;
  const double ieq_d = jd - s * (ev.gm * vgs + ev.gds * vds);
  stamper.add_rhs(id_, -ieq_d);
  stamper.add_rhs(is, ieq_d);
}

Terminals Mosfet::terminals(const Unknowns& x) const {
  const double s = sign_;
  const double vgs = s * (x.node_voltage(g_) - x.node_voltage(s_));
  const double vds = s * (x.node_voltage(d_) - x.node_voltage(s_));
  const double id = s * evaluate(vgs, vds).id;
  return {{{{d_, id}, {g_, 0.0}, {s_, -id}}}, 3};
}

double Mosfet::overdrive(const Unknowns& x) const {
  const double s = sign_;
  return s * (x.node_voltage(g_) - x.node_voltage(s_)) - vth_now_;
}

double Mosfet::power(const Unknowns& x) const {
  const double vds = x.node_voltage(d_) - x.node_voltage(s_);
  return std::abs(vds * terminals(x).pin[0].amps);
}

}  // namespace icvbe::spice
