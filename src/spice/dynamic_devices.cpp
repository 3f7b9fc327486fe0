#include "icvbe/spice/dynamic_devices.hpp"

#include "icvbe/common/error.hpp"

namespace icvbe::spice {

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads,
                     double ic_volts)
    : DynamicDevice(std::move(name)), a_(a), b_(b), farads_(farads) {
  ICVBE_REQUIRE(farads > 0.0, "Capacitor: capacitance must be > 0");
  ICVBE_REQUIRE(a != b, "Capacitor: terminals must differ");
  ic_ = ic_volts;
}

std::unique_ptr<Device> Capacitor::clone() const {
  auto d = std::make_unique<Capacitor>(name(), a_, b_, farads_, ic_);
  d->transient_ = transient_;
  d->method_ = method_;
  d->s_ = s_;
  d->v_prev_ = v_prev_;
  d->i_prev_ = i_prev_;
  return d;
}

void Capacitor::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  // DC: an open circuit whose zero values register the slots (alpha/h)*C
  // lands in (zero values still register, see SparseMatrix::add). In
  // transient mode the companion's history current rides on the RHS; its
  // conductance is the session's (alpha/h)*stamp_reactive.
  stamper.add_conductance(a_, b_, 0.0);
  if (transient_) stamp_history(stamper);
}

void Capacitor::stamp_history(Stamper& stamper) const {
  // ieq flows a -> b: extracted from a's injection, added to b's.
  const double i = ieq();
  stamper.add_current_into(a_, -i);
  stamper.add_current_into(b_, i);
}

void Capacitor::stamp_reactive(Stamper& stamper) const {
  stamper.add_conductance(a_, b_, farads_);
}

Terminals Capacitor::terminals(const Unknowns& /*x*/) const {
  // The committed companion current of the last accepted timepoint --
  // what a probe evaluated at that point should read. DC blocks.
  return Terminals::branch(a_, b_, transient_ ? i_prev_ : 0.0);
}

void Capacitor::commit(const Unknowns& x) {
  const double v = x.node_voltage(a_) - x.node_voltage(b_);
  i_prev_ = geq() * v + ieq();  // companion current, pre-update state
  v_prev_ = v;
}

void Capacitor::set_capacitance(double farads) {
  ICVBE_REQUIRE(farads > 0.0, "Capacitor: capacitance must be > 0");
  ICVBE_REQUIRE(!transient_,
                "Capacitor: cannot re-program the value mid-transient");
  farads_ = farads;
}

void Capacitor::init_state(const Unknowns& x) {
  v_prev_ = has_initial_condition()
                ? initial_condition()
                : x.node_voltage(a_) - x.node_voltage(b_);
  i_prev_ = 0.0;  // steady state / t = 0-: no displacement current
}

Inductor::Inductor(std::string name, NodeId p, NodeId m, double henries,
                   double ic_amps)
    : DynamicDevice(std::move(name)), p_(p), m_(m), henries_(henries) {
  ICVBE_REQUIRE(henries > 0.0, "Inductor: inductance must be > 0");
  ICVBE_REQUIRE(p != m, "Inductor: terminals must differ");
  ic_ = ic_amps;
}

std::unique_ptr<Device> Inductor::clone() const {
  auto d = std::make_unique<Inductor>(name(), p_, m_, henries_, ic_);
  d->transient_ = transient_;
  d->method_ = method_;
  d->s_ = s_;
  d->i_prev_ = i_prev_;
  d->v_prev_ = v_prev_;
  return d;
}

void Inductor::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  const int k = first_aux();
  ICVBE_ASSERT(k >= 0, "Inductor: aux index not assigned");
  const int ip = stamper.node_index(p_);
  const int im = stamper.node_index(m_);
  // KCL: the branch current leaves p and enters m.
  stamper.add_entry(ip, k, 1.0);
  stamper.add_entry(im, k, -1.0);
  // Branch row: V(p) - V(m) - (alpha/h) L i = veq. DC: a short (0 V
  // branch); the zero-valued (k, k) entry registers the slot the session's
  // -(alpha/h) L lands in. Transient mode adds the history term veq.
  stamper.add_entry(k, ip, 1.0);
  stamper.add_entry(k, im, -1.0);
  stamper.add_entry(k, k, 0.0);
  if (transient_) stamp_history(stamper);
}

void Inductor::stamp_history(Stamper& stamper) const {
  const double req = s_ * henries_;
  stamper.add_rhs(first_aux(), method_ == IntegrationMethod::kTrapezoidal
                                   ? -req * i_prev_ - v_prev_
                                   : -req * i_prev_);
}

void Inductor::stamp_reactive(Stamper& stamper) const {
  const int k = first_aux();
  ICVBE_ASSERT(k >= 0, "Inductor: aux index not assigned");
  stamper.add_entry(k, k, -henries_);
}

Terminals Inductor::terminals(const Unknowns& x) const {
  return Terminals::branch(p_, m_, x.aux(first_aux()));
}

void Inductor::commit(const Unknowns& x) {
  i_prev_ = x.aux(first_aux());
  v_prev_ = x.node_voltage(p_) - x.node_voltage(m_);
}

void Inductor::set_inductance(double henries) {
  ICVBE_REQUIRE(henries > 0.0, "Inductor: inductance must be > 0");
  ICVBE_REQUIRE(!transient_,
                "Inductor: cannot re-program the value mid-transient");
  henries_ = henries;
}

void Inductor::init_state(const Unknowns& x) {
  i_prev_ =
      has_initial_condition() ? initial_condition() : x.aux(first_aux());
  v_prev_ = x.node_voltage(p_) - x.node_voltage(m_);
}

void Inductor::imprint_ic(Unknowns& x) const {
  if (has_initial_condition() && first_aux() >= 0) {
    x.raw()[static_cast<std::size_t>(first_aux())] = initial_condition();
  }
}

}  // namespace icvbe::spice
