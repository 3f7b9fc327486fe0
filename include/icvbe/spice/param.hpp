#pragma once
// The parameter binder: the one way a driver names a circuit value and
// sets it -- a .DC/.STEP sweep axis, a server PATCH line, and the
// restore that follows either.

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace icvbe::spice {

class Circuit;
class Device;

/// A settable circuit value by name: a source's DC value, a resistor,
/// capacitor or inductor value, or the circuit temperature.
struct ParamRef {
  enum class Kind {
    kVsource, kIsource, kResistor, kCapacitor, kInductor, kTemperature
  };

  Kind kind = Kind::kTemperature;
  std::string device;    ///< device name; empty for kTemperature
  bool celsius = false;  ///< kTemperature: values in degrees C, not kelvin

  /// The kind a SPICE element letter names (V, I, R, C or L, either
  /// case); nullopt for any other letter.
  [[nodiscard]] static std::optional<Kind> kind_of(char letter);
};

/// A ParamRef resolved against one circuit: apply() and value() are a
/// switch and a pointer call, no lookups. Binding looks the device up once
/// through Circuit::get, so a missing name or a device of another class
/// throws CircuitError with get's text.
class BoundParam {
 public:
  BoundParam(const ParamRef& ref, Circuit& circuit);

  /// Set the value (in the ref's unit). A value the device rejects
  /// throws and leaves the circuit as it was.
  void apply(double value) const;
  /// The value apply() last set, in the ref's unit.
  [[nodiscard]] double value() const;

 private:
  friend class ParamGuard;

  ParamRef::Kind kind_;
  bool celsius_;
  Circuit* circuit_;
  Device* device_;
};

/// Saves parameter values and, when destroyed without dismiss(), puts
/// back every one that moved, newest first (a temperature re-broadcast
/// also resets device state, so values that did not move are left
/// alone). A temperature the circuit never had is not saved: there is no
/// value to go back to. Plan runs guard their axes this way, so the next
/// run sees the deck's values; PATCH dismisses its guard only once every
/// line applied, so a PATCH that fails changes nothing.
class ParamGuard {
 public:
  explicit ParamGuard(Circuit& circuit) : circuit_(&circuit) {}
  ParamGuard(const ParamGuard&) = delete;
  ParamGuard& operator=(const ParamGuard&) = delete;
  ~ParamGuard();

  /// Bind `ref`, save its current value and return the binding.
  BoundParam save(const ParamRef& ref);
  /// Keep every value as it is now.
  void dismiss() noexcept { saved_.clear(); }

 private:
  Circuit* circuit_;
  /// Bound in kelvin, so a restore makes no Celsius round trip.
  std::vector<std::pair<BoundParam, double>> saved_;
};

}  // namespace icvbe::spice
