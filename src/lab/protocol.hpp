#pragma once
// The lab procedure, written down once. Laboratory measures one die on
// scalar sessions; LotCampaign's batched group body measures K dies in
// lanes. Both call these functions in the same per-die order, and each
// instrument stream belongs to one die, so both record the same bits.
// Every chamber point starts from the analytic guess at its own setting
// (dut_initial_guess, and cell_initial_guess for a cell's first thermal
// pass), so a point depends only on (die, setting). The rig builders are
// declared in campaign.hpp.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/spice/batch_session.hpp"
#include "icvbe/spice/bjt.hpp"
#include "icvbe/spice/linear_devices.hpp"

namespace icvbe::lab::protocol {

/// The electro-thermal fixed point of a cell measurement: at most this
/// many solve-and-reheat passes, until the die moves less than the tol.
inline constexpr int kThermalPasses = 8;
inline constexpr double kThermalTolKelvin = 1e-4;

/// One die's bench: the instruments drawn from its seed (one calibration
/// cycle) and the procedure steps that use them. With ideal_instruments
/// each step returns the true value and draws nothing.
struct Instruments {
  Instruments(std::uint64_t seed, const CampaignConfig& cfg);
  /// The current the SMU actually forces for a programmed one.
  [[nodiscard]] double forced_current(double amps);
  /// Record a VBE(T) point from true values: sensor, VBE, then IC.
  [[nodiscard]] VbePoint record_vbe_point(double chamber_kelvin, double t_die,
                                          double vbe_true, double ic_true);
  /// Record a cell point from a true observation: sensor, the two pads,
  /// VREF, then the two branch currents.
  [[nodiscard]] CellPoint record_cell_point(
      double chamber_kelvin, const bandgap::CellObservation& obs,
      double t_die);

  bool ideal;
  Pt100Sensor sensor;
  SmuChannel smu_vbe;  ///< channel on the DUT / pad P4
  SmuChannel smu_pad;  ///< channel on pad P5
  SmuChannel smu_aux;  ///< channel for VREF and currents
};

/// Die temperature [K] for a chamber setting and a chip power.
[[nodiscard]] double die_temperature(const DieSample& die,
                                     const CampaignConfig& cfg,
                                     double chamber_kelvin,
                                     double power_watts);

/// Extraction and assembly of one die's result in the per-die order: the
/// VBE(T) records (`vbe()`) and the classical EG, then the cell records
/// (`cell()`) and the Meijer EG/XTI; `out.ok` is set last. A throw leaves
/// `out` filled as far as it got.
void characterise(const LotCampaignConfig& cfg,
                  const std::function<std::vector<VbePoint>()>& vbe,
                  const std::function<std::vector<CellPoint>()>& cell,
                  DieCharacterisation& out);

/// One worker's batched group body (lot_batch.cpp): kBatchLanes lane
/// circuits per rig, each rig's batch sharing one pattern and one pinned
/// symbolic analysis, plus per-lane scratch -- reused by every group it
/// runs.
struct LaneGroup {
  static constexpr std::size_t k = linalg::kBatchLanes;

  LaneGroup(const LotCampaign& owner, std::vector<DieCharacterisation>& out);
  /// Characterise dies [first_offset, first_offset + group_size) into
  /// `results` (group_size <= k; the lanes beyond it sit out); a die that
  /// leaves the lockstep falls back to run_die.
  void run(std::size_t first_offset, std::size_t group_size);
  /// Re-program lane `l` to `die` and reset it to fresh-rig state.
  void program_die(std::size_t l, const DieSample& die);
  void drop_lane(std::size_t l);

  const LotCampaign& campaign;
  std::vector<DieCharacterisation>& results;

  // Classical-method rig (forced-current diode-connected DUT, n = 1); not
  // built for an empty classical chamber grid.
  std::vector<std::unique_ptr<spice::Circuit>> ibias_circuit;
  spice::NodeId ibias_emitter = spice::kGround;  ///< the same in every lane
  std::vector<spice::CurrentSource*> ibias_ie;
  std::vector<spice::Bjt*> ibias_dut;
  std::optional<spice::BatchDcSession> ibias;

  // Meijer-method rig (the full test cell).
  std::vector<std::unique_ptr<spice::Circuit>> cell_circuit;
  std::vector<bandgap::TestCellHandles> cell_handles;
  /// The devices a die re-programs in one lane's cell.
  struct CellDevices {
    spice::Bjt* qa = nullptr;
    spice::Bjt* qb = nullptr;
    spice::OpAmp* u1 = nullptr;
    spice::Resistor* rx1 = nullptr;
    spice::Resistor* rx2 = nullptr;
    spice::Resistor* rb = nullptr;
  };
  std::vector<CellDevices> cell_dev;
  std::optional<spice::BatchDcSession> cell;

  std::vector<DieSample> sample;
  std::vector<std::optional<Instruments>> inst;
  std::vector<unsigned char> good;
  std::vector<unsigned char> iterating;
  std::vector<double> t_die;
  std::vector<std::vector<VbePoint>> vbe_pts;
  std::vector<std::vector<CellPoint>> cell_pts;
};

}  // namespace icvbe::lab::protocol
