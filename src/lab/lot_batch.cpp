// LotCampaign::run_batched -- the K-lane batched lot driver.
//
// The per-die path (run_die) builds a fresh Laboratory per die: fresh
// circuits, fresh solver sessions (pattern discovery + symbolic analysis
// per die), fresh instrument streams. This driver keeps ONE set of K lane
// circuits per rig per worker, re-programs the per-die parameter values
// between dies (ParamDeltaSet + begin_variant -- value changes never touch
// the frozen pattern), and carries all K dies through every LU
// refactor/solve together (BatchDcSession).
//
// Bit-identity discipline (results must equal run_die's for any thread
// count and any lane count):
//  * every per-die arithmetic expression -- parameter scaling, die
//    temperature, thermal fixed point, measurement draws -- is copied
//    verbatim from the Laboratory path, in per-die order (instrument
//    streams are per-die, so interleaving dies is free);
//  * each worker's batch sessions are primed from the campaign-fixed
//    reference die (first_index) at a deterministic state, so the shared
//    pivot sequence is independent of which worker solves which group;
//  * any lane that leaves the lockstep (pivot rejection, plain-Newton
//    non-convergence, any exception) discards its batch-side work and the
//    die is recomputed with run_die -- same bits by definition.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/instruments.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/spice/batch_session.hpp"

namespace icvbe::lab {

namespace {

/// Laboratory::build_cell's parameter derivation, expression for
/// expression (same operands, same order, same bits).
bandgap::TestCellParams cell_params_for(const DieSample& sample,
                                        const CampaignConfig& cfg,
                                        double radja_ohms) {
  bandgap::TestCellParams p = cfg.cell;
  p.qa_model = sample.qa;
  p.qb_model = sample.qb;
  p.opamp_offset = sample.opamp_offset;
  p.radja = radja_ohms;
  p.rx1 *= sample.resistor_scale;
  p.rx2 *= sample.resistor_scale;
  p.rb *= sample.resistor_scale;
  return p;
}

/// One die's instrument set, drawn exactly as the Laboratory constructor
/// draws it (same child streams, same specs).
struct DieInstruments {
  Pt100Sensor sensor;
  SmuChannel smu_vbe;
  SmuChannel smu_pad;
  SmuChannel smu_aux;
  DieInstruments(std::uint64_t seed, const CampaignConfig& cfg)
      : sensor(Rng::child(seed, 1), cfg.sensor_spec),
        smu_vbe(Rng::child(seed, 2), cfg.smu_spec),
        smu_pad(Rng::child(seed, 3), cfg.smu_spec),
        smu_aux(Rng::child(seed, 4), cfg.smu_spec) {}
};

/// One worker's lane rigs: K ibias circuits + K cell circuits, each pair
/// of batches sharing one pattern and one pinned symbolic analysis.
struct WorkerRigs {
  std::size_t k = 0;

  // Classical-method rig (forced-current diode-connected DUT, n = 1).
  std::vector<std::unique_ptr<spice::Circuit>> ibias_circuit;
  std::vector<spice::NodeId> ibias_emitter;
  std::vector<spice::CurrentSource*> ibias_ie;
  std::vector<const spice::Bjt*> ibias_dut;
  std::optional<spice::BatchDcSession> ibias;

  // Meijer-method rig (the full test cell).
  std::vector<std::unique_ptr<spice::Circuit>> cell_circuit;
  std::vector<bandgap::TestCellHandles> cell_handles;
  std::vector<spice::ParamDeltaSet> cell_delta;
  std::size_t slot_qa = 0, slot_qb = 0, slot_u1 = 0;
  std::size_t slot_rx1 = 0, slot_rx2 = 0, slot_rb = 0;
  std::optional<spice::BatchDcSession> cell;

  WorkerRigs(std::size_t lanes, const SiliconLot& lot,
             const LotCampaignConfig& cfg) {
    k = lanes;
    const DieSample ref = lot.sample(cfg.first_index);

    if (cfg.run_classical && !cfg.classical_celsius.empty()) {
      std::vector<spice::Circuit*> ptrs;
      for (std::size_t l = 0; l < k; ++l) {
        auto c = std::make_unique<spice::Circuit>();
        const spice::NodeId e = c->node("e");
        c->add_isource("IE", spice::kGround, e, 1e-6);
        c->add_bjt("DUT", spice::kGround, spice::kGround, e, ref.qin, 1.0,
                   spice::kGround);
        ibias_emitter.push_back(e);
        ibias_circuit.push_back(std::move(c));
        ptrs.push_back(ibias_circuit.back().get());
      }
      ibias.emplace(std::move(ptrs), cfg.lab.newton);
      for (std::size_t l = 0; l < k; ++l) {
        ibias_ie.push_back(
            &ibias_circuit[l]->get<spice::CurrentSource>("IE"));
        ibias_dut.push_back(&ibias_circuit[l]->get<spice::Bjt>("DUT"));
      }
      // Deterministic prime: the reference die at the first chamber
      // setting and the nominal forced current, cold start -- a pure
      // function of (lot, config), so every worker pins identical pivots.
      const double chamber_k = to_kelvin(cfg.classical_celsius.front());
      const double t_ref = cfg.lab.ideal_thermal
                               ? chamber_k
                               : ref.fixture.die_temperature(chamber_k, 0.0);
      ibias_ie[0]->set_current(cfg.classical_ic);
      ibias_circuit[0]->set_temperature(t_ref);
      ibias->prime(0);
    }

    if (cfg.run_meijer && !cfg.cell_celsius.empty()) {
      const bandgap::TestCellParams ref_params =
          cell_params_for(ref, cfg.lab, 0.0);
      std::vector<spice::Circuit*> ptrs;
      for (std::size_t l = 0; l < k; ++l) {
        auto c = std::make_unique<spice::Circuit>();
        cell_handles.push_back(bandgap::build_test_cell(*c, ref_params));
        cell_circuit.push_back(std::move(c));
        ptrs.push_back(cell_circuit.back().get());
      }
      cell.emplace(std::move(ptrs), cfg.lab.newton);
      for (std::size_t l = 0; l < k; ++l) {
        spice::ParamDeltaSet d(*cell_circuit[l]);
        slot_qa = d.bind_bjt(cell_handles[l].qa);
        slot_qb = d.bind_bjt(cell_handles[l].qb);
        slot_u1 = d.bind_opamp("U1");
        slot_rx1 = d.bind_resistor("RX1");
        slot_rx2 = d.bind_resistor("RX2");
        slot_rb = d.bind_resistor("RB");
        cell_delta.push_back(std::move(d));
      }
      // Deterministic prime: reference die, first cell chamber setting,
      // warm-seeded from the cell's analytic startup guess -- the same
      // state the per-die session analyses at its first Newton iterate.
      const double chamber_k = to_kelvin(cfg.cell_celsius.front());
      const double t_ref = cfg.lab.ideal_thermal
                               ? chamber_k
                               : ref.fixture.die_temperature(chamber_k, 0.0);
      cell_circuit[0]->set_temperature(t_ref);
      cell->seed_warm_start(
          0, bandgap::cell_initial_guess(*cell_circuit[0], cell_handles[0],
                                         t_ref));
      cell->prime(0);
      cell->begin_variant(0);  // wipe the priming seed before real dies
    }
  }

  /// Re-program lane `l` to `sample` and reset it to fresh-rig state.
  void program_die(std::size_t l, const DieSample& sample,
                   const LotCampaignConfig& cfg) {
    if (ibias) {
      ibias_circuit[l]->get<spice::Bjt>("DUT").set_model(sample.qin);
      ibias->begin_variant(l);
      ibias->set_lane_active(l, true);
    }
    if (cell) {
      auto& d = cell_delta[l];
      d.set_bjt_model(slot_qa, sample.qa);
      d.set_bjt_model(slot_qb, sample.qb);
      d.set_opamp_offset(slot_u1, sample.opamp_offset);
      d.set_resistance(slot_rx1, cfg.lab.cell.rx1 * sample.resistor_scale);
      d.set_resistance(slot_rx2, cfg.lab.cell.rx2 * sample.resistor_scale);
      d.set_resistance(slot_rb, cfg.lab.cell.rb * sample.resistor_scale);
      cell->begin_variant(l);
      cell->set_lane_active(l, true);
    }
  }

  void drop_lane(std::size_t l) {
    if (ibias) ibias->set_lane_active(l, false);
    if (cell) cell->set_lane_active(l, false);
  }
};

}  // namespace

std::vector<DieCharacterisation> LotCampaign::run_batched() const {
  const auto n = static_cast<std::size_t>(config_.samples);
  const std::size_t k = config_.lanes;
  std::vector<DieCharacterisation> results(n);

  const std::size_t groups = (n + k - 1) / k;
  unsigned threads = common::resolve_thread_count(config_.threads);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(groups));

  // Workers pull whole lane groups from a shared counter; every die writes
  // only its own slot, and each worker's rigs are primed from the same
  // campaign-fixed reference, so the output is bit-identical for any
  // thread count and any lane count.
  std::atomic<std::size_t> next{0};
  common::fan_out(threads, [&]() {
    std::optional<WorkerRigs> rigs;
    std::vector<DieSample> sample(k);
    std::vector<std::optional<DieInstruments>> inst(k);
    std::vector<unsigned char> good(k);
    std::vector<unsigned char> iterating(k);
    std::vector<double> t_die(k);
    std::vector<std::vector<VbePoint>> vbe_pts(k);
    std::vector<std::vector<CellPoint>> cell_pts(k);

    for (;;) {
      const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups) break;
      if (!rigs) rigs.emplace(k, lot_, config_);

      const std::size_t first_offset = g * k;
      const std::size_t group_size = std::min(k, n - first_offset);

      // A failure of the shared machinery (not of one lane) falls back to
      // the per-die path for the whole group.
      bool group_failed = false;
      try {
        for (std::size_t l = 0; l < k; ++l) {
          if (l >= group_size) {
            rigs->drop_lane(l);
            good[l] = 0;
            continue;
          }
          const int index =
              config_.first_index + static_cast<int>(first_offset + l);
          sample[l] = lot_.sample(index);
          CampaignConfig cfg = config_.lab;
          cfg.seed =
              config_.seed_base + static_cast<std::uint64_t>(index);
          inst[l].emplace(cfg.seed, cfg);
          rigs->program_die(l, sample[l], config_);
          good[l] = 1;
          vbe_pts[l].clear();
          cell_pts[l].clear();
        }

        // ---- Classical method: VBE(T) of the single DUT ----
        if (config_.run_classical) {
          if (!(config_.classical_ic > 0.0)) {
            // vbe_vs_temperature would throw per die; let run_die record
            // the identical error text for every die in the group.
            throw MeasurementError("vbe_vs_temperature: current must be > 0");
          }
          for (double tc : config_.classical_celsius) {
            const double chamber_k = to_kelvin(tc);
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              t_die[l] = config_.lab.ideal_thermal
                             ? chamber_k
                             : sample[l].fixture.die_temperature(chamber_k,
                                                                 0.0);
              const double forced =
                  config_.lab.ideal_instruments
                      ? config_.classical_ic
                      : inst[l]->smu_aux.force_current(config_.classical_ic);
              rigs->ibias_ie[l]->set_current(forced);
              rigs->ibias_circuit[l]->set_temperature(t_die[l]);
            }
            rigs->ibias->solve_active();
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              if (!rigs->ibias->status(l).converged) {
                good[l] = 0;
                rigs->drop_lane(l);
                continue;
              }
              const spice::Unknowns& x = rigs->ibias->solution(l);
              VbePoint p;
              p.t_die_true = t_die[l];
              p.t_sensor = config_.lab.ideal_instruments
                               ? chamber_k
                               : inst[l]->sensor.read(chamber_k);
              const double vbe_true =
                  x.node_voltage(rigs->ibias_emitter[l]);
              p.vbe = config_.lab.ideal_instruments
                          ? vbe_true
                          : inst[l]->smu_vbe.measure_voltage(vbe_true);
              const double ic_true =
                  std::abs(rigs->ibias_dut[l]->currents(x).ic);
              p.ic = config_.lab.ideal_instruments
                         ? ic_true
                         : inst[l]->smu_aux.measure_current(ic_true);
              vbe_pts[l].push_back(p);
            }
          }
        }

        // ---- Meijer method: the test-cell sweep ----
        if (config_.run_meijer) {
          for (double tc : config_.cell_celsius) {
            const double chamber_k = to_kelvin(tc);
            std::size_t n_iterating = 0;
            for (std::size_t l = 0; l < group_size; ++l) {
              iterating[l] = good[l];
              if (!good[l]) continue;
              t_die[l] = config_.lab.ideal_thermal
                             ? chamber_k
                             : sample[l].fixture.die_temperature(chamber_k,
                                                                 0.0);
              ++n_iterating;
            }
            // Electro-thermal fixed point, masked per lane: each lane runs
            // exactly the passes its own scalar loop would (<= 8, tol
            // 1e-4), lanes sitting out once converged.
            for (int pass = 0; pass < 8 && n_iterating > 0; ++pass) {
              for (std::size_t l = 0; l < group_size; ++l) {
                rigs->cell->set_lane_active(l, iterating[l] != 0);
                if (!iterating[l]) continue;
                rigs->cell_circuit[l]->set_temperature(t_die[l]);
                if (!rigs->cell->has_warm_start(l)) {
                  rigs->cell->seed_warm_start(
                      l, bandgap::cell_initial_guess(*rigs->cell_circuit[l],
                                                     rigs->cell_handles[l],
                                                     t_die[l]));
                }
              }
              rigs->cell->solve_active();
              for (std::size_t l = 0; l < group_size; ++l) {
                if (!iterating[l]) continue;
                if (!rigs->cell->status(l).converged) {
                  good[l] = 0;
                  iterating[l] = 0;
                  --n_iterating;
                  rigs->drop_lane(l);
                  continue;
                }
                const bandgap::CellObservation obs = bandgap::observe_cell(
                    *rigs->cell_circuit[l], rigs->cell_handles[l],
                    rigs->cell->solution(l), t_die[l]);
                const double t_new =
                    config_.lab.ideal_thermal
                        ? chamber_k
                        : sample[l].fixture.die_temperature(chamber_k,
                                                            obs.power);
                if (std::abs(t_new - t_die[l]) < 1e-4) {
                  t_die[l] = t_new;
                  iterating[l] = 0;
                  --n_iterating;
                } else {
                  t_die[l] = t_new;
                }
              }
            }
            // The committed observation at the resolved die temperature.
            for (std::size_t l = 0; l < group_size; ++l) {
              rigs->cell->set_lane_active(l, good[l] != 0);
              if (!good[l]) continue;
              rigs->cell_circuit[l]->set_temperature(t_die[l]);
            }
            rigs->cell->solve_active();
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              if (!rigs->cell->status(l).converged) {
                good[l] = 0;
                rigs->drop_lane(l);
                continue;
              }
              const bandgap::CellObservation obs = bandgap::observe_cell(
                  *rigs->cell_circuit[l], rigs->cell_handles[l],
                  rigs->cell->solution(l), t_die[l]);
              CellPoint p;
              p.t_die_true = t_die[l];
              p.t_sensor = config_.lab.ideal_instruments
                               ? chamber_k
                               : inst[l]->sensor.read(chamber_k);
              if (config_.lab.ideal_instruments) {
                p.vbe_qa = obs.vbe_qa;
                p.vbe_qb = obs.vbe_qb;
                p.vref = obs.vref;
                p.ic_qa = obs.ic_qa;
                p.ic_qb = obs.ic_qb;
              } else {
                p.vbe_qa = inst[l]->smu_vbe.measure_voltage(obs.vbe_qa);
                p.vbe_qb = inst[l]->smu_pad.measure_voltage(obs.vbe_qb);
                p.vref = inst[l]->smu_aux.measure_voltage(obs.vref);
                p.ic_qa = inst[l]->smu_aux.measure_current(obs.ic_qa);
                p.ic_qb = inst[l]->smu_aux.measure_current(obs.ic_qb);
              }
              p.delta_vbe = p.vbe_qa - p.vbe_qb;
              cell_pts[l].push_back(p);
            }
          }
        }
      } catch (const std::exception&) {
        group_failed = true;
      }

      // ---- Extraction + assembly, mirroring run_die ----
      for (std::size_t l = 0; l < group_size; ++l) {
        const auto offset = static_cast<int>(first_offset + l);
        if (group_failed || !good[l]) {
          results[first_offset + l] = run_die(offset);
          continue;
        }
        DieCharacterisation out;
        out.index = config_.first_index + offset;
        try {
          if (config_.run_classical) {
            extract::BestFitOptions opt;
            opt.t0 = to_kelvin(25.0);
            out.eg_classical =
                extract::best_fit_eg_xti(
                    extract::samples_from_lab(vbe_pts[l]), opt)
                    .eg;
            out.has_classical = true;
          }
          if (config_.run_meijer) {
            out.cell = cell_pts[l];
            const auto m = extract::meijer_from_cell(
                out.cell, config_.cell_celsius[0], config_.cell_celsius[1],
                config_.cell_celsius[2]);
            out.eg_meijer = m.with_computed_t.eg;
            out.xti_meijer = m.with_computed_t.xti;
            out.eg_measured_t = m.with_measured_t.eg;
            out.xti_measured_t = m.with_measured_t.xti;
            const auto cmp = extract::compare_temperatures(m);
            out.delta_t1 = cmp.delta_t1();
            out.delta_t3 = cmp.delta_t3();
            out.has_meijer = true;
          }
          out.ok = true;
          results[first_offset + l] = std::move(out);
        } catch (const std::exception&) {
          // The scalar path may record this as a failed die or rescue it
          // with its deeper fallback ladder; either way run_die IS that
          // path, so its result is the result.
          results[first_offset + l] = run_die(offset);
        }
      }
    }
  });
  return results;
}

}  // namespace icvbe::lab
