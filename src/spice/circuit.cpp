#include "icvbe/spice/circuit.hpp"

#include "icvbe/common/error.hpp"

namespace icvbe::spice {

NodeId Circuit::node(std::string_view name) {
  auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.emplace_back(name);
  node_ids_.emplace(std::string(name), id);
  return id;
}

const std::string& Circuit::node_name(NodeId n) const {
  ICVBE_REQUIRE(n >= 0 && n < node_count(), "Circuit::node_name: bad node id");
  return node_names_[static_cast<std::size_t>(n)];
}

NodeId Circuit::find_node(std::string_view name) const {
  auto it = node_ids_.find(name);
  return it == node_ids_.end() ? NodeId{-1} : it->second;
}

Circuit Circuit::clone() const {
  Circuit copy;
  copy.node_names_ = node_names_;
  copy.node_ids_ = node_ids_;
  copy.device_index_ = device_index_;
  copy.temperature_ = temperature_;
  copy.has_temperature_ = has_temperature_;
  copy.devices_.reserve(devices_.size());
  for (const auto& dev : devices_) copy.devices_.push_back(dev->clone());
  return copy;
}

void Circuit::require_unique_name(const std::string& name) const {
  if (device_index_.contains(name)) {
    throw CircuitError("duplicate device name '" + name + "'");
  }
}

Device& Circuit::add_device(std::unique_ptr<Device> device) {
  require_unique_name(device->name());
  Device& ref = *device;
  device_index_.emplace(device->name(), devices_.size());
  devices_.push_back(std::move(device));
  return ref;
}

template <typename T, typename... Args>
T& Circuit::emplace(Args&&... args) {
  auto dev = std::make_unique<T>(std::forward<Args>(args)...);
  T& ref = *dev;
  add_device(std::move(dev));
  return ref;
}

Resistor& Circuit::add_resistor(std::string name, NodeId a, NodeId b,
                                double ohms, double tc1, double tc2) {
  return emplace<Resistor>(std::move(name), a, b, ohms, tc1, tc2);
}

VoltageSource& Circuit::add_vsource(std::string name, NodeId p, NodeId m,
                                    double volts) {
  return emplace<VoltageSource>(std::move(name), p, m, volts);
}

CurrentSource& Circuit::add_isource(std::string name, NodeId p, NodeId m,
                                    double amps) {
  return emplace<CurrentSource>(std::move(name), p, m, amps);
}

Vcvs& Circuit::add_vcvs(std::string name, NodeId p, NodeId m, NodeId cp,
                        NodeId cm, double gain) {
  return emplace<Vcvs>(std::move(name), p, m, cp, cm, gain);
}

OpAmp& Circuit::add_opamp(std::string name, NodeId out, NodeId inp,
                          NodeId inn, double gain, double offset) {
  return emplace<OpAmp>(std::move(name), out, inp, inn, gain, offset);
}

Diode& Circuit::add_diode(std::string name, NodeId anode, NodeId cathode,
                          DiodeModel model, double area) {
  return emplace<Diode>(std::move(name), anode, cathode, model, area);
}

Bjt& Circuit::add_bjt(std::string name, NodeId collector, NodeId base,
                      NodeId emitter, BjtModel model, double area,
                      NodeId substrate) {
  return emplace<Bjt>(std::move(name), collector, base, emitter, model, area,
                      substrate);
}

Mosfet& Circuit::add_mosfet(std::string name, NodeId drain, NodeId gate,
                            NodeId source, MosfetModel model,
                            double w_over_l) {
  return emplace<Mosfet>(std::move(name), drain, gate, source, model,
                         w_over_l);
}

Capacitor& Circuit::add_capacitor(std::string name, NodeId a, NodeId b,
                                  double farads, double ic_volts) {
  return emplace<Capacitor>(std::move(name), a, b, farads, ic_volts);
}

Inductor& Circuit::add_inductor(std::string name, NodeId p, NodeId m,
                                double henries, double ic_amps) {
  return emplace<Inductor>(std::move(name), p, m, henries, ic_amps);
}

Device* Circuit::find(std::string_view name) {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

const Device* Circuit::find(std::string_view name) const {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

int Circuit::assign_unknowns() {
  int next = node_count() - 1;  // node unknowns first (ground excluded)
  for (auto& dev : devices_) {
    if (dev->aux_count() > 0) {
      dev->set_first_aux(next);
      next += dev->aux_count();
    }
  }
  return next;
}

void Circuit::set_temperature(double t_kelvin) {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    try {
      devices_[i]->set_temperature(t_kelvin);
    } catch (...) {
      // A rejected temperature is recorded nowhere: the devices already
      // set go back to the last one.
      for (std::size_t j = 0; has_temperature_ && j < i; ++j) {
        devices_[j]->set_temperature(temperature_);
      }
      throw;
    }
    devices_[i]->reset_state();
  }
  temperature_ = t_kelvin;
  has_temperature_ = true;
}

double Circuit::total_power(const Unknowns& x) const {
  double p = 0.0;
  for (const auto& dev : devices_) p += dev->power(x);
  return p;
}

}  // namespace icvbe::spice
