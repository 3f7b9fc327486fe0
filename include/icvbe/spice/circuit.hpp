#pragma once
// Circuit: owns devices and the node table; assigns unknown indices.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/bjt.hpp"
#include "icvbe/spice/device.hpp"
#include "icvbe/spice/diode.hpp"
#include "icvbe/spice/dynamic_devices.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/mosfet.hpp"

namespace icvbe::spice {

class Circuit {
 public:
  Circuit() = default;

  /// Get-or-create a named node. "0" and "gnd" map to ground.
  [[nodiscard]] NodeId node(std::string_view name);

  /// Number of nodes including ground.
  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(node_names_.size());
  }

  /// Name of a node id (for diagnostics).
  [[nodiscard]] const std::string& node_name(NodeId n) const;

  /// Look up an existing node without creating it. Returns kGround for
  /// ground aliases and -1 if the name is unknown.
  [[nodiscard]] NodeId find_node(std::string_view name) const;

  // --- typed device factories (return references owned by the circuit) ---
  Resistor& add_resistor(std::string name, NodeId a, NodeId b, double ohms,
                         double tc1 = 0.0, double tc2 = 0.0);
  VoltageSource& add_vsource(std::string name, NodeId p, NodeId m,
                             double volts);
  CurrentSource& add_isource(std::string name, NodeId p, NodeId m,
                             double amps);
  Vcvs& add_vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
                 double gain);
  OpAmp& add_opamp(std::string name, NodeId out, NodeId inp, NodeId inn,
                   double gain = 1.0e6, double offset = 0.0);
  Diode& add_diode(std::string name, NodeId anode, NodeId cathode,
                   DiodeModel model, double area = 1.0);
  Bjt& add_bjt(std::string name, NodeId collector, NodeId base, NodeId emitter,
               BjtModel model, double area = 1.0, NodeId substrate = kGround);
  Mosfet& add_mosfet(std::string name, NodeId drain, NodeId gate,
                     NodeId source, MosfetModel model, double w_over_l = 1.0);
  Capacitor& add_capacitor(std::string name, NodeId a, NodeId b,
                           double farads, double ic_volts = std::nan(""));
  Inductor& add_inductor(std::string name, NodeId p, NodeId m,
                         double henries, double ic_amps = std::nan(""));
  /// Add a device of any class (takes ownership); throws CircuitError on
  /// a duplicate name.
  Device& add_device(std::unique_ptr<Device> device);

  /// Look up a device by name; throws CircuitError if absent or of the
  /// wrong type.
  template <typename T>
  [[nodiscard]] T& get(std::string_view name) {
    return const_cast<T&>(std::as_const(*this).get<T>(name));
  }

  /// Const lookup, for probes and read-only inspection of a solved circuit.
  template <typename T>
  [[nodiscard]] const T& get(std::string_view name) const {
    const Device* d = find(name);
    if (d == nullptr) {
      throw CircuitError("no device named '" + std::string(name) + "'");
    }
    const T* t = dynamic_cast<const T*>(d);
    if (t == nullptr) {
      throw CircuitError("device '" + std::string(name) +
                         "' has unexpected type");
    }
    return *t;
  }

  [[nodiscard]] Device* find(std::string_view name);
  [[nodiscard]] const Device* find(std::string_view name) const;

  [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Deep copy of the whole circuit: node table plus per-device clone()
  /// (full state, including temperature-derived values). Used for
  /// per-thread clones in parallel plan execution; the copy's unknown
  /// indices are re-assigned by its own SimSession.
  [[nodiscard]] Circuit clone() const;

  /// Total unknown count (non-ground nodes + aux); assigns aux indices.
  [[nodiscard]] int assign_unknowns();

  /// Broadcast a new device temperature and clear iteration state. If a
  /// device rejects it, the devices already set go back to the last
  /// temperature (when there is one) and the error propagates; the value
  /// is recorded only once every device accepts it.
  void set_temperature(double t_kelvin);

  /// Last set_temperature value, if any (devices added later, or
  /// re-programmed resistors, need it re-applied to honour tempco).
  [[nodiscard]] bool has_temperature() const noexcept {
    return has_temperature_;
  }
  [[nodiscard]] double temperature() const noexcept { return temperature_; }

  /// Sum of device power at a solution [W].
  [[nodiscard]] double total_power(const Unknowns& x) const;

 private:
  template <typename T, typename... Args>
  T& emplace(Args&&... args);

  void require_unique_name(const std::string& name) const;

  std::vector<std::unique_ptr<Device>> devices_;
  std::map<std::string, std::size_t, std::less<>> device_index_;
  double temperature_ = 0.0;
  bool has_temperature_ = false;
  std::vector<std::string> node_names_{"0"};
  std::map<std::string, NodeId, std::less<>> node_ids_{{"0", kGround},
                                                       {"gnd", kGround}};
};

}  // namespace icvbe::spice
