#pragma once
// Measurement campaigns: the lab procedures of the paper's section 5, run
// against the virtual silicon. Each campaign returns what the *operator*
// records (sensor readings, SMU readings); ground-truth die temperatures are
// carried alongside for test validation only and are never consumed by the
// extraction code.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/series.hpp"
#include "icvbe/lab/instruments.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::lab {

/// Campaign-level configuration.
struct CampaignConfig {
  std::uint64_t seed = 7;          ///< instrument-error master seed
  Pt100Sensor::Spec sensor_spec;   ///< pt100 behaviour
  SmuChannel::Spec smu_spec;       ///< HP4156 channel behaviour
  bool ideal_instruments = false;  ///< true: no instrument error at all
  bool ideal_thermal = false;      ///< true: die temperature == chamber
  bandgap::TestCellParams cell;    ///< cell electricals (models overwritten
                                   ///< from the DieSample)
};

/// One VBE(T) observation on the single DUT (classical-method input).
struct VbePoint {
  double t_sensor = 0.0;   ///< recorded temperature [K]
  double vbe = 0.0;        ///< measured base-emitter voltage [V]
  double ic = 0.0;         ///< measured collector current [A]
  double t_die_true = 0.0; ///< ground truth [K] -- validation only
};

/// One test-cell observation (Meijer-method input / Fig. 8 point).
struct CellPoint {
  double t_sensor = 0.0;
  double vbe_qa = 0.0;     ///< pad P4 reading [V]
  double vbe_qb = 0.0;     ///< pad P5 reading [V]
  double delta_vbe = 0.0;  ///< vbe_qa - vbe_qb as measured
  double ic_qa = 0.0;      ///< branch current of QA [A] (measured)
  double ic_qb = 0.0;      ///< branch current of QB [A] (measured)
  double vref = 0.0;       ///< reference output [V] (measured)
  double t_die_true = 0.0; ///< ground truth [K] -- validation only
};

/// The lab's measurement rigs, shared by Laboratory and the batched lot
/// body, and public so a test can drive one chamber point by itself (the
/// rest of the procedure is private to the lab).
namespace protocol {
struct Instruments;

/// The diode-connected DUT rig (VCB = 0): BJT "DUT" of model `qin`, its
/// emitter "e" (returned) driven by source "IE" or "VE".
spice::NodeId build_dut(spice::Circuit& c, const spice::BjtModel& qin,
                        bool current_driven);

/// The analytic start point of the current-driven DUT rig at its present
/// IE and temperature, from the ideal-diode law:
/// V(e) = NF Vt(T) ln(|IE| / IS(T) + 1). Every VBE(T) chamber point starts
/// here, as a cell's first thermal pass starts from cell_initial_guess.
[[nodiscard]] spice::Unknowns dut_initial_guess(spice::Circuit& c,
                                                spice::NodeId emitter);

/// The test-cell electricals of `die`, RADJA programmed to `radja_ohms`.
[[nodiscard]] bandgap::TestCellParams cell_params(const DieSample& die,
                                                  const CampaignConfig& cfg,
                                                  double radja_ohms);
}  // namespace protocol

/// A laboratory session bound to one die sample. Instruments are drawn at
/// construction (one calibration cycle per session).
class Laboratory {
 public:
  Laboratory(DieSample sample, CampaignConfig config = {});
  ~Laboratory();

  /// Fig. 5: the IC(VBE) family of the single DUT. One Series per chamber
  /// temperature; x = VBE [V], y = IC [A]. VCB is held at 0 (the
  /// diode-connected saturation-limit bias of the cell).
  [[nodiscard]] std::vector<Series> icvbe_family(
      const std::vector<double>& chamber_celsius, double vbe_min,
      double vbe_max, int points);

  /// Classical-method input: VBE(T) of the single DUT at a forced collector
  /// current, across chamber settings.
  [[nodiscard]] std::vector<VbePoint> vbe_vs_temperature(
      double ic_amps, const std::vector<double>& chamber_celsius);

  /// Meijer-method input + Fig. 8 measured curve: full test-cell sweep.
  /// `radja_ohms` programs the trim resistor (0 = untrimmed).
  [[nodiscard]] std::vector<CellPoint> test_cell_sweep(
      const std::vector<double>& chamber_celsius, double radja_ohms = 0.0);

  /// VREF(T) as a Series (x = chamber Celsius, y = VREF [V]). Each point
  /// solves the cell as test_cell_sweep does at that setting; VREF is read
  /// with one SMU draw (none with ideal instruments).
  [[nodiscard]] Series vref_curve(const std::vector<double>& chamber_celsius,
                                  double radja_ohms = 0.0);

  [[nodiscard]] const DieSample& sample() const noexcept { return sample_; }
  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

 private:
  // Persistent measurement rigs. Each circuit is built once per laboratory
  // session and re-biased between measurements; the SimSession keeps the
  // solver workspace alive across the whole campaign. unique_ptr keeps the
  // circuit address stable (the session holds a reference into it).
  struct CellRig {
    spice::Circuit circuit;
    bandgap::TestCellHandles handles;
    std::optional<spice::SimSession> session;
  };
  struct DutRig {
    spice::Circuit circuit;
    spice::NodeId emitter = spice::kGround;
    std::optional<spice::SimSession> session;
  };

  /// Test cell with RADJA programmed to `radja_ohms` (built on first use).
  [[nodiscard]] CellRig& cell_rig(double radja_ohms);
  /// The DUT rig in `rig`, built on first use: voltage-driven for IC(VBE)
  /// families (vbias_), current-driven for VBE(T) (ibias_).
  [[nodiscard]] DutRig& dut_rig(std::unique_ptr<DutRig>& rig,
                                bool current_driven);

  /// The die temperature the cell settles at (electro-thermal fixed point).
  [[nodiscard]] double settle_die_temperature(CellRig& rig,
                                              double chamber_kelvin);

  DieSample sample_;
  CampaignConfig config_;
  std::unique_ptr<protocol::Instruments> inst_;
  std::unique_ptr<CellRig> cell_;
  std::unique_ptr<DutRig> vbias_;
  std::unique_ptr<DutRig> ibias_;
};

}  // namespace icvbe::lab
