#include "icvbe/spice/param.hpp"

#include <cctype>

#include "icvbe/common/constants.hpp"
#include "icvbe/spice/circuit.hpp"

namespace icvbe::spice {

using Kind = ParamRef::Kind;

std::optional<Kind> ParamRef::kind_of(char letter) {
  switch (std::toupper(static_cast<unsigned char>(letter))) {
    case 'V': return Kind::kVsource;
    case 'I': return Kind::kIsource;
    case 'R': return Kind::kResistor;
    case 'C': return Kind::kCapacitor;
    case 'L': return Kind::kInductor;
    default: return std::nullopt;
  }
}

namespace {

Device* find_device(const ParamRef& ref, Circuit& c) {
  switch (ref.kind) {
    case Kind::kVsource: return &c.get<VoltageSource>(ref.device);
    case Kind::kIsource: return &c.get<CurrentSource>(ref.device);
    case Kind::kResistor: return &c.get<Resistor>(ref.device);
    case Kind::kCapacitor: return &c.get<Capacitor>(ref.device);
    case Kind::kInductor: return &c.get<Inductor>(ref.device);
    case Kind::kTemperature: return nullptr;
  }
  return nullptr;  // unreachable
}

}  // namespace

BoundParam::BoundParam(const ParamRef& ref, Circuit& circuit)
    : kind_(ref.kind),
      celsius_(ref.celsius),
      circuit_(&circuit),
      device_(find_device(ref, circuit)) {}

void BoundParam::apply(double value) const {
  switch (kind_) {
    case Kind::kVsource:
    case Kind::kIsource:
      static_cast<IndependentSource*>(device_)->set_value(value);
      break;
    case Kind::kResistor:
      static_cast<Resistor*>(device_)->set_nominal_resistance(value);
      break;
    case Kind::kCapacitor:
      static_cast<Capacitor*>(device_)->set_capacitance(value);
      break;
    case Kind::kInductor:
      static_cast<Inductor*>(device_)->set_inductance(value);
      break;
    case Kind::kTemperature:
      circuit_->set_temperature(celsius_ ? to_kelvin(value) : value);
      break;
  }
}

double BoundParam::value() const {
  switch (kind_) {
    case Kind::kVsource:
    case Kind::kIsource:
      return static_cast<const IndependentSource*>(device_)->value();
    case Kind::kResistor:
      return static_cast<const Resistor*>(device_)->nominal_resistance();
    case Kind::kCapacitor:
      return static_cast<const Capacitor*>(device_)->capacitance();
    case Kind::kInductor:
      return static_cast<const Inductor*>(device_)->inductance();
    case Kind::kTemperature:
      return celsius_ ? to_celsius(circuit_->temperature())
                      : circuit_->temperature();
  }
  return 0.0;  // unreachable
}

BoundParam ParamGuard::save(const ParamRef& ref) {
  BoundParam bound(ref, *circuit_);
  if (ref.kind != Kind::kTemperature || circuit_->has_temperature()) {
    BoundParam si = bound;
    si.celsius_ = false;
    saved_.emplace_back(si, si.value());
  }
  return bound;
}

ParamGuard::~ParamGuard() {
  // No restore can throw: each saved value was accepted when it was set,
  // and Circuit::set_temperature records only accepted temperatures.
  for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
    if (it->first.value() != it->second) it->first.apply(it->second);
  }
}

}  // namespace icvbe::spice
