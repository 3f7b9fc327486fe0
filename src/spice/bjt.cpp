#include "icvbe/spice/bjt.hpp"

#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/spice/junction.hpp"

namespace icvbe::spice {

namespace {

/// eq. (1) with emission coefficient n folded in (SPICE3 convention).
double is_temperature(double is_tnom, double eg, double xti, double n,
                      double t, double tnom) {
  const double ratio_term = (xti / n) * std::log(t / tnom);
  const double act_term =
      (eg / (n * kBoltzmannEv)) * (1.0 / tnom - 1.0 / t);
  return is_tnom * std::exp(ratio_term + act_term);
}

}  // namespace

Bjt::Bjt(std::string name, NodeId collector, NodeId base, NodeId emitter,
         BjtModel model, double area, NodeId substrate)
    : Device(std::move(name)),
      c_(collector),
      b_(base),
      e_(emitter),
      s_node_(substrate),
      model_(model),
      area_(area),
      sign_(model.type == BjtModel::Type::kNpn ? 1.0 : -1.0),
      temp_(model.tnom),
      vt_(thermal_voltage(model.tnom)),
      is_t_(0.0),
      ise_t_(0.0),
      isc_t_(0.0),
      iss_t_(0.0),
      iss_e_t_(0.0),
      vcrit_be_(0.0),
      vcrit_bc_(0.0),
      v1_state_(0.0),
      v2_state_(0.0) {
  ICVBE_REQUIRE(area > 0.0, "Bjt: area must be > 0");
  ICVBE_REQUIRE(model.is > 0.0, "Bjt: IS must be > 0");
  ICVBE_REQUIRE(model.bf > 0.0 && model.br > 0.0, "Bjt: BF, BR must be > 0");
  ICVBE_REQUIRE(model.nf > 0.0 && model.nr > 0.0, "Bjt: NF, NR must be > 0");
  set_temperature(model.tnom);
}

std::unique_ptr<Device> Bjt::clone() const {
  auto d = std::make_unique<Bjt>(name(), c_, b_, e_, model_, area_, s_node_);
  d->temp_ = temp_;
  d->vt_ = vt_;
  d->is_t_ = is_t_;
  d->ise_t_ = ise_t_;
  d->isc_t_ = isc_t_;
  d->iss_t_ = iss_t_;
  d->iss_e_t_ = iss_e_t_;
  d->vcrit_be_ = vcrit_be_;
  d->vcrit_bc_ = vcrit_bc_;
  d->v1_state_ = v1_state_;
  d->v2_state_ = v2_state_;
  return d;
}

void Bjt::set_temperature(double t_kelvin) {
  ICVBE_REQUIRE(t_kelvin > 0.0, "Bjt: temperature must be > 0 K");
  temp_ = t_kelvin;
  vt_ = thermal_voltage(t_kelvin);
  const double tn = model_.tnom;
  is_t_ = area_ * is_temperature(model_.is, model_.eg, model_.xti, model_.nf,
                                 t_kelvin, tn);
  ise_t_ = area_ * is_temperature(model_.ise, model_.eg, model_.xti,
                                  model_.ne, t_kelvin, tn);
  isc_t_ = area_ * is_temperature(model_.isc, model_.eg, model_.xti,
                                  model_.nc, t_kelvin, tn);
  iss_t_ = area_ * is_temperature(model_.iss, model_.eg_sub, model_.xti_sub,
                                  model_.ns, t_kelvin, tn);
  iss_e_t_ = area_ * is_temperature(model_.iss_e, model_.eg_sub_e,
                                    model_.xti_sub_e, model_.ns_e, t_kelvin,
                                    tn);
  vcrit_be_ = junction_vcrit(model_.nf * vt_, std::max(is_t_, 1e-30));
  vcrit_bc_ = junction_vcrit(model_.nr * vt_, std::max(is_t_, 1e-30));
}

void Bjt::set_model(const BjtModel& model) {
  ICVBE_REQUIRE(model.type == model_.type,
                "Bjt: set_model cannot change the device type");
  ICVBE_REQUIRE(model.is > 0.0, "Bjt: IS must be > 0");
  ICVBE_REQUIRE(model.bf > 0.0 && model.br > 0.0, "Bjt: BF, BR must be > 0");
  ICVBE_REQUIRE(model.nf > 0.0 && model.nr > 0.0, "Bjt: NF, NR must be > 0");
  model_ = model;
  set_temperature(temp_);
  reset_state();
}

void Bjt::reset_state() {
  v1_state_ = 0.0;
  v2_state_ = 0.0;
}

void Bjt::exp_args(double v1, double v2, double* out) const {
  out[0] = v1 / (model_.nf * vt_);
  out[1] = v2 / (model_.nr * vt_);
  out[2] = v1 / (model_.ne * vt_);
  out[3] = v2 / (model_.nc * vt_);
  out[4] = v2 / (model_.ns * vt_);
  out[5] = v1 / (model_.ns_e * vt_);
}

Bjt::Eval Bjt::evaluate(double v1, double v2) const {
  double args[kExpArgs];
  double exps[kExpArgs];
  exp_args(v1, v2, args);
  for (int i = 0; i < kExpArgs; ++i) exps[i] = safe_exp(args[i]);
  return evaluate_from_exps(v1, v2, exps);
}

Bjt::Eval Bjt::evaluate_from_exps(double v1, double v2,
                                  const double* e) const {
  Eval ev{};
  const double nf_vt = model_.nf * vt_;
  const double nr_vt = model_.nr * vt_;
  const double ne_vt = model_.ne * vt_;
  const double nc_vt = model_.nc * vt_;
  const double ns_vt = model_.ns * vt_;

  const double e1 = e[0];
  const double e2 = e[1];

  // Base-width modulation: 1/qb ~ (1 - v1/VAR - v2/VAF), clamped away from
  // zero so wild iterates cannot flip the sign of the transport current.
  double kqb = 1.0;
  double dkqb_dv1 = 0.0;
  double dkqb_dv2 = 0.0;
  if (std::isfinite(model_.var)) {
    kqb -= v1 / model_.var;
    dkqb_dv1 = -1.0 / model_.var;
  }
  if (std::isfinite(model_.vaf)) {
    kqb -= v2 / model_.vaf;
    dkqb_dv2 = -1.0 / model_.vaf;
  }
  if (kqb < 0.05) {
    kqb = 0.05;
    dkqb_dv1 = dkqb_dv2 = 0.0;
  }

  const double itf = is_t_ * (e1 - 1.0);
  const double itr = is_t_ * (e2 - 1.0);
  ev.it = (itf - itr) * kqb;
  ev.git1 = (is_t_ * e1 / nf_vt) * kqb + (itf - itr) * dkqb_dv1;
  ev.git2 = -(is_t_ * e2 / nr_vt) * kqb + (itf - itr) * dkqb_dv2;

  const double ebe_l = (ise_t_ > 0.0) ? e[2] : 0.0;
  const double ebc_l = (isc_t_ > 0.0) ? e[3] : 0.0;
  ev.ibe = itf / model_.bf + ise_t_ * (ebe_l - 1.0);
  ev.gbe = is_t_ * e1 / (nf_vt * model_.bf) +
           (ise_t_ > 0.0 ? ise_t_ * ebe_l / ne_vt : 0.0) + 1e-15;
  ev.ibc = itr / model_.br + isc_t_ * (ebc_l - 1.0);
  ev.gbc = is_t_ * e2 / (nr_vt * model_.br) +
           (isc_t_ > 0.0 ? isc_t_ * ebc_l / nc_vt : 0.0) + 1e-15;

  if (iss_t_ > 0.0) {
    const double es = e[4];
    ev.isub = iss_t_ * (es - 1.0);
    ev.gsub = iss_t_ * es / ns_vt;
  } else {
    ev.isub = 0.0;
    ev.gsub = 0.0;
  }
  if (iss_e_t_ > 0.0) {
    const double nse_vt = model_.ns_e * vt_;
    const double es = e[5];
    ev.isub_e = iss_e_t_ * (es - 1.0);
    ev.gsub_e = iss_e_t_ * es / nse_vt;
  } else {
    ev.isub_e = 0.0;
    ev.gsub_e = 0.0;
  }
  return ev;
}

bool Bjt::limit(const Unknowns& prev) {
  const double s = sign_;
  const bool be =
      limit_junction(s * (prev.node_voltage(b_) - prev.node_voltage(e_)),
                     v1_state_, model_.nf * vt_, vcrit_be_);
  const bool bc =
      limit_junction(s * (prev.node_voltage(b_) - prev.node_voltage(c_)),
                     v2_state_, model_.nr * vt_, vcrit_bc_);
  return be || bc;
}

void Bjt::stamp(Stamper& stamper, const Unknowns& prev) {
  if (limit(prev)) stamper.note_limited();
  stamp_core(stamper, v1_state_, v2_state_, evaluate(v1_state_, v2_state_));
}

bool Bjt::collect_exp_args(const Unknowns& prev, double* out) {
  // stamp()'s prologue: limit the junction voltages and commit the
  // limiting state, then emit the exponent arguments the batched safe_exp
  // sweep will evaluate. stamp_with_exps picks the limited voltages back
  // up from v1_state_/v2_state_ -- re-limiting there would not be
  // idempotent once pnjlim has engaged.
  const bool limited = limit(prev);
  exp_args(v1_state_, v2_state_, out);
  return limited;
}

void Bjt::stamp_with_exps(Stamper& stamper, const Unknowns& /*prev*/,
                          const double* exps) {
  const double v1 = v1_state_;
  const double v2 = v2_state_;
  stamp_core(stamper, v1, v2, evaluate_from_exps(v1, v2, exps));
}

void Bjt::stamp_core(Stamper& stamper, double v1, double v2, const Eval& ev) {
  const double s = sign_;
  // Currents leaving each node (type frame handled by s; s^2 = 1 cancels
  // in all Jacobian entries):
  //   Jc = s (it - ibc + isub)
  //   Jb = s (ibe + ibc + isub_e / bf_sub)
  //   Je = -s (it + ibe + isub_e (1 + 1/bf_sub))
  //   Js = s (isub_e - isub)
  const double inv_bf_sub =
      std::isfinite(model_.bf_sub) ? 1.0 / model_.bf_sub : 0.0;
  const double jc = s * (ev.it - ev.ibc + ev.isub);
  const double jb = s * (ev.ibe + ev.ibc + ev.isub_e * inv_bf_sub);
  const double je =
      -s * (ev.it + ev.ibe + ev.isub_e * (1.0 + inv_bf_sub));
  const double js = s * (ev.isub_e - ev.isub);

  const int ic = stamper.node_index(c_);
  const int ib = stamper.node_index(b_);
  const int ie = stamper.node_index(e_);
  const int is_i = stamper.node_index(s_node_);

  // v1 = s(Vb - Ve), v2 = s(Vb - Vc): dv1/dVb = s, dv1/dVe = -s, etc.
  // Row entries for current J leaving node X: dJ/dVnode. J carries a factor
  // s and the chain rule another, so entries are sign-free. The vertical
  // parasitic collects isub_e into the substrate and returns isub_e/bf_sub
  // through the base (its base is the main device's n-well base).
  struct RowStamp {
    int row;
    double dv1, dv2, j;
  };
  const RowStamp rows[] = {
      {ic, ev.git1, ev.git2 - ev.gbc + ev.gsub, jc},
      {ib, ev.gbe + ev.gsub_e * inv_bf_sub, ev.gbc, jb},
      {ie, -(ev.git1 + ev.gbe + ev.gsub_e * (1.0 + inv_bf_sub)), -ev.git2,
       je},
      {is_i, ev.gsub_e, -ev.gsub, js},
  };
  for (const auto& r : rows) {
    stamper.add_entry(r.row, ib, r.dv1 + r.dv2);
    stamper.add_entry(r.row, ie, -r.dv1);
    stamper.add_entry(r.row, ic, -r.dv2);
    // Companion RHS. The linearisation point is the *limited* (v1, v2):
    //   J(V') = J* + s dv1 (v1' - v1) + s dv2 (v2' - v2),  v1' = s(Vb'-Ve'),
    // so after the matrix terms above the constant left over is
    //   ieq = J* - s (dv1 v1 + dv2 v2),
    // extracted from the node's RHS injection.
    const double ieq = r.j - s * (r.dv1 * v1 + r.dv2 * v2);
    stamper.add_rhs(r.row, -ieq);
  }
}

Bjt::TerminalCurrents Bjt::currents(const Unknowns& x) const {
  const double s = sign_;
  const double v1 = s * (x.node_voltage(b_) - x.node_voltage(e_));
  const double v2 = s * (x.node_voltage(b_) - x.node_voltage(c_));
  const Eval ev = evaluate(v1, v2);
  const double inv_bf_sub =
      std::isfinite(model_.bf_sub) ? 1.0 / model_.bf_sub : 0.0;
  TerminalCurrents tc;
  tc.ic = s * (ev.it - ev.ibc + ev.isub);
  tc.ib = s * (ev.ibe + ev.ibc + ev.isub_e * inv_bf_sub);
  tc.ie = -s * (ev.it + ev.ibe + ev.isub_e * (1.0 + inv_bf_sub));
  tc.isub = s * (ev.isub_e - ev.isub);
  return tc;
}

Terminals Bjt::terminals(const Unknowns& x) const {
  const TerminalCurrents i = currents(x);
  return {{{{c_, i.ic}, {b_, i.ib}, {e_, i.ie}, {s_node_, i.isub}}}, 4};
}

double Bjt::vbe(const Unknowns& x) const {
  return sign_ * (x.node_voltage(b_) - x.node_voltage(e_));
}

double Bjt::power(const Unknowns& x) const { return power(x, currents(x)); }

double Bjt::power(const Unknowns& x, const TerminalCurrents& tc) const {
  // P = sum over terminals of V * I_into_terminal (ground reference).
  return std::abs(x.node_voltage(c_) * tc.ic + x.node_voltage(b_) * tc.ib +
                  x.node_voltage(e_) * tc.ie +
                  x.node_voltage(s_node_) * tc.isub);
}

}  // namespace icvbe::spice
