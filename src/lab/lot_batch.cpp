// LotCampaign's batched group body: the lane mechanics, nothing else. A
// worker's LaneGroup keeps one set of kBatchLanes lane circuits per rig,
// re-programs each die's values in place (device setters + begin_variant)
// and carries the group's dies through every LU refactor/solve
// (BatchDcSession). Results equal run_die's bit for bit: the lab procedure
// is protocol.hpp's, called in per-die order; each rig's batch is primed
// at a campaign-fixed reference die, whichever worker claims which group;
// and a die that leaves the lockstep (pivot rejection, plain-Newton
// non-convergence, any exception) is recomputed by run_die.

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/spice/batch_session.hpp"
#include "protocol.hpp"

namespace icvbe::lab::protocol {

LaneGroup::LaneGroup(const LotCampaign& owner,
                     std::vector<DieCharacterisation>& out)
    : campaign(owner), results(out), sample(k), inst(k),
      good(k), iterating(k), t_die(k), vbe_pts(k), cell_pts(k) {
  const LotCampaignConfig& cfg = owner.config();
  const DieSample ref = owner.lot().sample(kFirstDieIndex);

  // Classical-method rig. An empty chamber grid fails every die in the
  // extraction, and has no first setting to prime at.
  if (!cfg.classical_celsius.empty()) {
    std::vector<spice::Circuit*> ptrs;
    for (std::size_t l = 0; l < k; ++l) {
      spice::Circuit& c =
          *ibias_circuit.emplace_back(std::make_unique<spice::Circuit>());
      ibias_emitter = build_dut(c, ref.qin, /*current_driven=*/true);
      ibias_ie.push_back(&c.get<spice::CurrentSource>("IE"));
      ibias_dut.push_back(&c.get<spice::Bjt>("DUT"));
      ptrs.push_back(&c);
    }
    ibias.emplace(std::move(ptrs));
    // Deterministic prime: the reference die at the first chamber
    // setting and the nominal forced current, seeded from the DUT's
    // ideal-diode guess -- the state every VBE(T) point starts from, and a
    // pure function of (lot, config), so every worker pins identical
    // pivots.
    const double chamber_k = to_kelvin(cfg.classical_celsius.front());
    const double t_ref = die_temperature(ref, cfg.lab, chamber_k, 0.0);
    ibias_ie[0]->set_value(cfg.classical_ic);
    ibias_circuit[0]->set_temperature(t_ref);
    ibias->seed_warm_start(0,
                           dut_initial_guess(*ibias_circuit[0], ibias_emitter));
    ibias->prime();
  }

  // Meijer-method rig: every campaign runs it.
  const bandgap::TestCellParams ref_params = cell_params(ref, cfg.lab, 0.0);
  std::vector<spice::Circuit*> ptrs;
  for (std::size_t l = 0; l < k; ++l) {
    spice::Circuit& c =
        *cell_circuit.emplace_back(std::make_unique<spice::Circuit>());
    const auto& h =
        cell_handles.emplace_back(bandgap::build_test_cell(c, ref_params));
    cell_dev.push_back({&c.get<spice::Bjt>(h.qa), &c.get<spice::Bjt>(h.qb),
                        &c.get<spice::OpAmp>("U1"),
                        &c.get<spice::Resistor>("RX1"),
                        &c.get<spice::Resistor>("RX2"),
                        &c.get<spice::Resistor>("RB")});
    ptrs.push_back(&c);
  }
  cell.emplace(std::move(ptrs));
  // Deterministic prime: reference die, first cell chamber setting,
  // warm-seeded from the cell's analytic startup guess -- the same
  // state the per-die session analyses at its first Newton iterate.
  const double chamber_k = to_kelvin(cfg.cell_celsius.front());
  const double t_ref = die_temperature(ref, cfg.lab, chamber_k, 0.0);
  cell_circuit[0]->set_temperature(t_ref);
  cell->seed_warm_start(
      0, bandgap::cell_initial_guess(*cell_circuit[0], cell_handles[0],
                                     t_ref));
  cell->prime();
}

void LaneGroup::program_die(std::size_t l, const DieSample& die) {
  if (ibias) {
    ibias_dut[l]->set_model(die.qin);
    ibias->begin_variant(l);
    ibias->set_lane_active(l, true);
  }
  const bandgap::TestCellParams p =
      cell_params(die, campaign.config().lab, 0.0);
  const CellDevices& d = cell_dev[l];
  d.qa->set_model(p.qa_model);
  d.qb->set_model(p.qb_model);
  d.u1->set_offset(p.opamp_offset);
  d.rx1->set_nominal_resistance(p.rx1);
  d.rx2->set_nominal_resistance(p.rx2);
  d.rb->set_nominal_resistance(p.rb);
  cell->begin_variant(l);
  cell->set_lane_active(l, true);
}

void LaneGroup::drop_lane(std::size_t l) {
  if (ibias) ibias->set_lane_active(l, false);
  cell->set_lane_active(l, false);
}

void LaneGroup::run(std::size_t first_offset, std::size_t group_size) {
  const LotCampaignConfig& config = campaign.config();
  const CampaignConfig& lab = config.lab;
  // A failure of the shared machinery (not of one lane) falls back to the
  // per-die path for the whole group.
  bool group_failed = false;
  try {
    for (std::size_t l = 0; l < k; ++l) {
      if (l >= group_size) {
        drop_lane(l);
        good[l] = 0;
        continue;
      }
      const int index = kFirstDieIndex + static_cast<int>(first_offset + l);
      sample[l] = campaign.lot().sample(index);
      inst[l].emplace(config.seed_base + static_cast<std::uint64_t>(index),
                      lab);
      program_die(l, sample[l]);
      good[l] = 1;
      vbe_pts[l].clear();
      cell_pts[l].clear();
    }

    // ---- Classical method: VBE(T) of the single DUT ----
    if (!(config.classical_ic > 0.0)) {
      // vbe_vs_temperature would throw per die; let run_die record the
      // identical error text for every die in the group.
      throw MeasurementError("vbe_vs_temperature: current must be > 0");
    }
    for (double tc : config.classical_celsius) {
      const double chamber_k = to_kelvin(tc);
      for (std::size_t l = 0; l < group_size; ++l) {
        if (!good[l]) continue;
        t_die[l] = die_temperature(sample[l], lab, chamber_k, 0.0);
        ibias_ie[l]->set_value(inst[l]->forced_current(config.classical_ic));
        ibias_circuit[l]->set_temperature(t_die[l]);
        ibias->seed_warm_start(
            l, dut_initial_guess(*ibias_circuit[l], ibias_emitter));
      }
      ibias->solve_active();
      for (std::size_t l = 0; l < group_size; ++l) {
        if (!good[l]) continue;
        if (!ibias->status(l).converged) {
          good[l] = 0;
          drop_lane(l);
          continue;
        }
        const spice::Unknowns& x = ibias->solution(l);
        vbe_pts[l].push_back(inst[l]->record_vbe_point(
            chamber_k, t_die[l], x.node_voltage(ibias_emitter),
            std::abs(ibias_dut[l]->currents(x).ic)));
      }
    }

    // ---- Meijer method: the test-cell sweep ----
    for (double tc : config.cell_celsius) {
      const double chamber_k = to_kelvin(tc);
      std::size_t n_iterating = 0;
      for (std::size_t l = 0; l < group_size; ++l) {
        iterating[l] = good[l];
        if (!good[l]) continue;
        t_die[l] = die_temperature(sample[l], lab, chamber_k, 0.0);
        ++n_iterating;
      }
      // Electro-thermal fixed point, masked per lane: each lane runs
      // exactly the passes Laboratory's scalar loop would, lanes sitting
      // out once settled. Pass 0 starts from the cell's analytic guess
      // at this setting; later passes continue warm.
      for (int pass = 0; pass < kThermalPasses && n_iterating > 0; ++pass) {
        for (std::size_t l = 0; l < group_size; ++l) {
          cell->set_lane_active(l, iterating[l] != 0);
          if (!iterating[l]) continue;
          cell_circuit[l]->set_temperature(t_die[l]);
          if (pass == 0) {
            cell->seed_warm_start(
                l, bandgap::cell_initial_guess(*cell_circuit[l],
                                               cell_handles[l],
                                               t_die[l]));
          }
        }
        cell->solve_active();
        for (std::size_t l = 0; l < group_size; ++l) {
          if (!iterating[l]) continue;
          if (!cell->status(l).converged) {
            good[l] = 0;
            iterating[l] = 0;
            --n_iterating;
            drop_lane(l);
            continue;
          }
          const bandgap::CellObservation obs = bandgap::observe_cell(
              *cell_circuit[l], cell_handles[l],
              cell->solution(l), t_die[l]);
          const double t_new =
              die_temperature(sample[l], lab, chamber_k, obs.power);
          if (std::abs(t_new - t_die[l]) < kThermalTolKelvin) {
            iterating[l] = 0;
            --n_iterating;
          }
          t_die[l] = t_new;
        }
      }
      // The committed observation at the resolved die temperature.
      for (std::size_t l = 0; l < group_size; ++l) {
        cell->set_lane_active(l, good[l] != 0);
        if (!good[l]) continue;
        cell_circuit[l]->set_temperature(t_die[l]);
      }
      cell->solve_active();
      for (std::size_t l = 0; l < group_size; ++l) {
        if (!good[l]) continue;
        if (!cell->status(l).converged) {
          good[l] = 0;
          drop_lane(l);
          continue;
        }
        cell_pts[l].push_back(inst[l]->record_cell_point(
            chamber_k,
            bandgap::observe_cell(*cell_circuit[l], cell_handles[l],
                                  cell->solution(l), t_die[l]),
            t_die[l]));
      }
    }
  } catch (const std::exception&) {
    group_failed = true;
  }

  for (std::size_t l = 0; l < group_size; ++l) {
    const auto offset = static_cast<int>(first_offset + l);
    DieCharacterisation& slot = results[first_offset + l];
    if (!group_failed && good[l]) {
      DieCharacterisation out;
      out.index = kFirstDieIndex + offset;
      try {
        characterise(
            config, [&] { return vbe_pts[l]; }, [&] { return cell_pts[l]; },
            out);
        slot = std::move(out);
        continue;
      } catch (const std::exception&) {
        // The scalar path may record this as a failed die or rescue it
        // with its deeper fallback ladder; either way run_die IS that
        // path, so its result is the result.
      }
    }
    slot = campaign.run_die(offset);
  }
}

}  // namespace icvbe::lab::protocol
