#pragma once
// Electro-thermal coupling: the die runs warmer than the chamber because
// the circuit dissipates power. The paper attributes the several-kelvin
// difference between sensor and die temperature (Table 1) to "the bias
// current of the circuit, and then to self-heating of QA, QB and the other
// components on the chip".
//
// Model: one thermal node per named device plus a shared die node,
//   T_device = T_ambient + rth_die * P_total + rth_self * P_device,
// solved by damped fixed-point iteration around the DC operating point
// (power levels here are micro/milliwatt, so the loop converges in a few
// passes).

#include <map>
#include <string>
#include <vector>

#include "icvbe/spice/sim_session.hpp"

namespace icvbe::thermal {

/// Thermal description of one device (junction-to-die).
struct DeviceThermal {
  std::string device;        ///< circuit device name
  double rth_self = 0.0;     ///< junction-to-die thermal resistance [K/W]
};

/// Chip-level thermal environment.
struct ChipThermal {
  double rth_die = 350.0;    ///< die-to-ambient thermal resistance [K/W]
  double aux_power = 0.0;    ///< fixed dissipation of surrounding circuitry [W]
  std::vector<DeviceThermal> devices;  ///< devices with their own heating
};

struct ElectroThermalOptions {
  int max_iterations = 40;
  double temp_tol = 1e-4;    ///< [K] fixed-point convergence tolerance
  double damping = 0.8;      ///< under-relaxation of temperature updates
  spice::NewtonOptions newton;
};

struct ElectroThermalResult {
  spice::Unknowns solution;
  double die_temperature = 0.0;             ///< shared die node [K]
  std::map<std::string, double> device_temperature;  ///< per tracked device
  double total_power = 0.0;                 ///< electrical dissipation [W]
  int iterations = 0;
  bool converged = false;
};

/// Solve the coupled electro-thermal operating point at the given ambient
/// temperature. Devices listed in `chip.devices` get individual junction
/// temperatures; everything else sits at the die temperature.
[[nodiscard]] ElectroThermalResult solve_electrothermal(
    spice::Circuit& circuit, const ChipThermal& chip, double t_ambient_kelvin,
    const ElectroThermalOptions& options = {});

}  // namespace icvbe::thermal
