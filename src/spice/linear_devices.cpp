#include "icvbe/spice/linear_devices.hpp"

#include <cmath>

#include "icvbe/common/error.hpp"

namespace icvbe::spice {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms,
                   double tc1, double tc2, double tnom_kelvin)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      r0_(ohms),
      tc1_(tc1),
      tc2_(tc2),
      tnom_(tnom_kelvin),
      r_now_(ohms) {
  ICVBE_REQUIRE(ohms > 0.0, "Resistor: resistance must be > 0");
  ICVBE_REQUIRE(a != b, "Resistor: terminals must differ");
}

void Resistor::set_temperature(double t_kelvin) {
  const double dt = t_kelvin - tnom_;
  const double factor = 1.0 + tc1_ * dt + tc2_ * dt * dt;
  ICVBE_REQUIRE(factor > 0.0, "Resistor: temperature model gives R <= 0");
  factor_ = factor;
  r_now_ = r0_ * factor_;
}

void Resistor::set_nominal_resistance(double ohms) {
  ICVBE_REQUIRE(ohms > 0.0, "Resistor: resistance must be > 0");
  r0_ = ohms;
  r_now_ = r0_ * factor_;
}

std::unique_ptr<Device> Resistor::clone() const {
  auto d = std::make_unique<Resistor>(name(), a_, b_, r0_, tc1_, tc2_, tnom_);
  d->factor_ = factor_;
  d->r_now_ = r_now_;
  return d;
}

void Resistor::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  stamper.add_conductance(a_, b_, 1.0 / r_now_);
}

Terminals Resistor::terminals(const Unknowns& x) const {
  return Terminals::branch(
      a_, b_, (x.node_voltage(a_) - x.node_voltage(b_)) / r_now_);
}

double Resistor::power(const Unknowns& x) const {
  const double v = x.node_voltage(a_) - x.node_voltage(b_);
  return v * v / r_now_;
}

void IndependentSource::add_ac_stimulus(linalg::ComplexVector& b) const {
  const linalg::Complex j =
      std::polar(ac_magnitude_, ac_phase_deg_ * M_PI / 180.0);
  if (aux_count() == 1) {
    b[static_cast<std::size_t>(first_aux())] += j;
    return;
  }
  if (p_ != kGround) b[static_cast<std::size_t>(p_ - 1)] += -j;
  if (m_ != kGround) b[static_cast<std::size_t>(m_ - 1)] += j;
}

VoltageSource::VoltageSource(std::string name, NodeId p, NodeId m,
                             double volts)
    : IndependentSource(std::move(name), p, m, volts) {
  ICVBE_REQUIRE(p != m, "VoltageSource: terminals must differ");
}

void VoltageSource::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  const int k = first_aux();
  ICVBE_ASSERT(k >= 0, "VoltageSource: aux index not assigned");
  const int ip = stamper.node_index(p_);
  const int im = stamper.node_index(m_);
  stamper.add_entry(ip, k, 1.0);
  stamper.add_entry(im, k, -1.0);
  stamper.add_entry(k, ip, 1.0);
  stamper.add_entry(k, im, -1.0);
  stamper.add_rhs(k, value_);
}

Terminals VoltageSource::terminals(const Unknowns& x) const {
  return Terminals::branch(p_, m_, x.aux(first_aux()));
}

CurrentSource::CurrentSource(std::string name, NodeId p, NodeId m,
                             double amps)
    : IndependentSource(std::move(name), p, m, amps) {
  ICVBE_REQUIRE(p != m, "CurrentSource: terminals must differ");
}

void CurrentSource::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  // value_ flows p -> m inside the source: extracted from p, injected at m.
  stamper.add_current_into(p_, -value_);
  stamper.add_current_into(m_, value_);
}

Terminals CurrentSource::terminals(const Unknowns& /*x*/) const {
  return Terminals::branch(p_, m_, value_);
}

Vcvs::Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double gain)
    : Device(std::move(name)), p_(p), m_(m), cp_(cp), cm_(cm), gain_(gain) {
  ICVBE_REQUIRE(p != m, "Vcvs: output terminals must differ");
}

void Vcvs::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  const int k = first_aux();
  ICVBE_ASSERT(k >= 0, "Vcvs: aux index not assigned");
  const int ip = stamper.node_index(p_);
  const int im = stamper.node_index(m_);
  stamper.add_entry(ip, k, 1.0);
  stamper.add_entry(im, k, -1.0);
  // Row: V(p) - V(m) - gain (V(cp) - V(cm)) = 0.
  stamper.add_entry(k, ip, 1.0);
  stamper.add_entry(k, im, -1.0);
  stamper.add_entry(k, stamper.node_index(cp_), -gain_);
  stamper.add_entry(k, stamper.node_index(cm_), gain_);
}

Terminals Vcvs::terminals(const Unknowns& x) const {
  const double i = x.aux(first_aux());
  return {{{{p_, i}, {m_, -i}, {cp_, 0.0}, {cm_, 0.0}}}, 4};
}

std::unique_ptr<Device> Vcvs::clone() const {
  return std::make_unique<Vcvs>(name(), p_, m_, cp_, cm_, gain_);
}

OpAmp::OpAmp(std::string name, NodeId out, NodeId inp, NodeId inn,
             double gain, double offset_volts)
    : Device(std::move(name)),
      out_(out),
      inp_(inp),
      inn_(inn),
      gain_(gain),
      offset_(offset_volts) {
  ICVBE_REQUIRE(gain > 0.0, "OpAmp: gain must be > 0");
}

void OpAmp::stamp(Stamper& stamper, const Unknowns& /*prev*/) {
  const int k = first_aux();
  ICVBE_ASSERT(k >= 0, "OpAmp: aux index not assigned");
  const int io = stamper.node_index(out_);
  stamper.add_entry(io, k, 1.0);
  // Row: V(out)/gain - (V(inp) + offset - V(inn)) = 0, i.e. the ideal
  // V(out) = gain (V(inp) + offset - V(inn)) normalised by the gain so the
  // matrix entries stay O(1) (a raw 1e6 entry next to gmin-sized
  // conductances fails the LU pivot threshold).
  stamper.add_entry(k, io, 1.0 / gain_);
  stamper.add_entry(k, stamper.node_index(inp_), -1.0);
  stamper.add_entry(k, stamper.node_index(inn_), 1.0);
  stamper.add_rhs(k, offset_);
}

Terminals OpAmp::terminals(const Unknowns& x) const {
  const double i = x.aux(first_aux());
  return {{{{out_, i}, {inp_, 0.0}, {inn_, 0.0}, {kGround, -i}}}, 4};
}

std::unique_ptr<Device> OpAmp::clone() const {
  return std::make_unique<OpAmp>(name(), out_, inp_, inn_, gain_, offset_);
}

}  // namespace icvbe::spice
