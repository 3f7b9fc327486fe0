#pragma once
// The paper's programmable bandgap test cell (Fig. 3), built as a SPICE
// netlist. Topology (functional equivalent of the published schematic; the
// substitution is documented in DESIGN.md):
//
//            +--------------- op-amp out = VREF ---------------+
//            |                                                  |
//           RX1 (25k)                                          RX2 (25k)
//            |                                                  |
//          node a  -------- op-amp (+) input                 node btop --- (-)
//            |                                                  |
//           QA (1x, PNP, emitter up,                           RB
//            |   collector grounded)                            |
//          base qac -- [RadjB] -- gnd                        node be
//                                                               |
//                                                              QB (8x, PNP,
//                                                               collector gnd)
//                                                               |
//                                                          base qbc -- [RadjA] -- gnd
//
// The op-amp forces V(a) = V(btop) (+ its input offset), so the two 25k
// branches carry equal currents -- the paper's "fixing the same potential
// through RX1 and RX2 imposes the equality between the collector current of
// QA and QB". The PTAT current is dVEB / RB and
//   VREF = VEB(QA) + (RX2 / RB) dVEB  (first order).
// RadjA ("added between P5 and P6 in order to correct the non linear
// component of dVBE due to the substrate leakage current and the offset of
// op-amp stage") trims the curve; ADJ-pad style offset trim maps to RadjB.

#include <string>
#include <vector>

#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::bandgap {

/// Electrical parameters of the test cell.
struct TestCellParams {
  spice::BjtModel qa_model;   ///< 1x device
  spice::BjtModel qb_model;   ///< same card; area applied separately
  double area_ratio = 8.0;    ///< paper: emitter areas 6 um^2 / 48 um^2
  double rx1 = 25e3;          ///< branch resistor [ohm] (paper: 25k)
  double rx2 = 25e3;          ///< branch resistor [ohm] (paper: 25k)
  double rb = 2.44e3;         ///< dVBE-to-current resistor [ohm]
  double radja = 0.0;         ///< trim resistor in QB's collector leg [ohm]
  double radjb = 0.0;         ///< trim resistor in QA's collector leg [ohm]
  double resistor_tc1 = 1.2e-3;  ///< n-well resistor tempco [1/K]
  double resistor_tc2 = 0.4e-6;  ///< n-well resistor tempco [1/K^2]
  double opamp_gain = 1.0e6;
  double opamp_offset = 0.0;  ///< input-referred offset [V]
};

/// Node/device names of a built cell, for probing and reconfiguration.
struct TestCellHandles {
  spice::NodeId vref = spice::kGround;
  spice::NodeId a = spice::kGround;      ///< QA emitter (pad P4)
  spice::NodeId btop = spice::kGround;   ///< top of RB
  spice::NodeId be = spice::kGround;     ///< QB emitter (pad P5)
  spice::NodeId qac = spice::kGround;    ///< QA base node (top of RadjB)
  spice::NodeId qbc = spice::kGround;    ///< QB base node (top of RadjA)
  std::string qa = "QA";
  std::string qb = "QB";
  std::string radja = "RADJA";
  std::string radjb = "RADJB";
};

/// Build the test cell into `circuit`; returns the probe handles. The trim
/// resistors are always instantiated (value clamped to >= 1 micro-ohm) so
/// they can be re-programmed between solves.
TestCellHandles build_test_cell(spice::Circuit& circuit,
                                const TestCellParams& params);

/// One solved cell observation.
struct CellObservation {
  double t_die = 0.0;       ///< junction temperature used [K]
  double vref = 0.0;        ///< reference voltage [V]
  double vbe_qa = 0.0;      ///< V(a): QA emitter voltage = VEB(QA) + trim drop
  double vbe_qb = 0.0;      ///< V(be)
  double delta_vbe = 0.0;   ///< V(a) - V(be) -- the pad-measured dVBE
  double ic_qa = 0.0;       ///< |collector current| of QA [A]
  double ic_qb = 0.0;       ///< |collector current| of QB [A]
  double power = 0.0;       ///< cell dissipation [W]
};

/// The observation of a solved cell: node voltages at solution x, QA/QB
/// collector currents and the total dissipation (Circuit::total_power,
/// bit for bit) at die temperature t_die_kelvin. Shared by solve_cell_at
/// and the batched lot driver, so both record the same bits.
[[nodiscard]] CellObservation observe_cell(const spice::Circuit& circuit,
                                           const TestCellHandles& handles,
                                           const spice::Unknowns& x,
                                           double t_die_kelvin);

/// Solve the cell at a fixed die temperature (no thermal feedback).
[[nodiscard]] CellObservation solve_cell_at(spice::Circuit& circuit,
                                            const TestCellHandles& handles,
                                            double t_die_kelvin);

/// Session variant for repeated solves (sweeps, trim searches, thermal
/// fixed-point loops): reuses the session workspace and warm-starts from
/// the previous operating point, falling back to the analytic startup
/// guess if the continuation fails. The session must be bound to the
/// circuit the handles refer to.
[[nodiscard]] CellObservation solve_cell_at(spice::SimSession& session,
                                            const TestCellHandles& handles,
                                            double t_die_kelvin);

/// The analytic startup guess used by solve_cell_at (the simulation
/// equivalent of a bandgap startup circuit). Exposed for callers driving a
/// SimSession directly.
[[nodiscard]] spice::Unknowns cell_initial_guess(spice::Circuit& circuit,
                                                 const TestCellHandles& handles,
                                                 double t_die_kelvin);

/// First-order ideal model of the same cell (no parasitics, ideal op-amp):
/// VREF(T) = VEB(T) + (rx2/rb) (kT/q) ln(area_ratio). Used as an analytic
/// cross-check of the netlist.
[[nodiscard]] double ideal_vref(const TestCellParams& params, double t_kelvin,
                                double vbe_t0, double t0, double eg,
                                double xti);

/// Search radja in [0, radja_max] minimising the peak-to-peak VREF spread
/// over the given die-temperature grid. Returns the best radja found.
struct TrimResult {
  double radja = 0.0;
  double vref_spread = 0.0;    ///< peak-to-peak VREF over the grid [V]
  double vref_mean = 0.0;
};
[[nodiscard]] TrimResult trim_radja(spice::Circuit& circuit,
                                    const TestCellHandles& handles,
                                    const std::vector<double>& t_kelvin,
                                    double radja_max, int steps);

/// Session variant: the whole steps x |t_kelvin| grid of solves reuses one
/// workspace with warm-start continuation.
[[nodiscard]] TrimResult trim_radja(spice::SimSession& session,
                                    const TestCellHandles& handles,
                                    const std::vector<double>& t_kelvin,
                                    double radja_max, int steps);

}  // namespace icvbe::bandgap
