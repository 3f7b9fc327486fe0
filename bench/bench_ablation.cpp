// Ablation studies for the design choices recorded in DESIGN.md section 7:
//  A. thermal/corruption model: which ingredient produces the Table-1 sign
//     flip and the Fig.-8 rise (fixture leak vs self-heating vs op-amp
//     offset vs substrate parasitic);
//  B. solver: analytic warm start vs cold start on the bandgap cell, and
//     the op-amp row normalisation;
//  C. op-amp realism: ideal high-gain element vs the transistor-level CMOS
//     two-stage amplifier.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/bandgap/cmos_opamp.hpp"
#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace {

using namespace icvbe;

// --- A: corruption-model ablation -----------------------------------------

struct AblationRow {
  std::string name;
  double d1 = 0.0;  // T_measured - T_computed at T1
  double d3 = 0.0;
  double vref_rise = 0.0;  // measured VREF(125C) - VREF(-55C)
};

AblationRow run_variant(const std::string& name, bool leak, bool heating,
                        bool offset, bool parasitic) {
  lab::SiliconLot lot;
  lab::DieSample s = lot.sample(2);
  if (!leak) {
    s.fixture.leak = 0.0;
    s.fixture.leak_tempco = 0.0;
  }
  if (!heating) {
    s.fixture.rth_die = 0.0;
    s.fixture.aux_power = 0.0;
  }
  if (!offset) s.opamp_offset = 0.0;
  if (!parasitic) {
    s.qa.iss_e = s.qb.iss_e = s.qin.iss_e = 0.0;
    s.qa.iss = s.qb.iss = s.qin.iss = 0.0;
  }
  lab::CampaignConfig cfg;
  cfg.ideal_instruments = true;  // isolate the physical effects
  lab::Laboratory laboratory(s, cfg);

  AblationRow row;
  row.name = name;
  const auto sweep = laboratory.test_cell_sweep({-26.15, 23.85, 74.85});
  const auto m = extract::meijer_from_cell(sweep, -26.15, 23.85, 74.85);
  const auto c = extract::compare_temperatures(m);
  row.d1 = c.delta_t1();
  row.d3 = c.delta_t3();
  const auto curve = laboratory.vref_curve({-55.0, 125.0});
  row.vref_rise = curve.y(1) - curve.y(0);
  return row;
}

void ablate_corruption_model() {
  bench::banner(
      "Ablation A -- which physical ingredient produces which published "
      "signature (Table-1 deltas and the Fig.-8 rise)");
  Table t({"variant", "dT1 [K] (paper -1.8..-4.6)",
           "dT3 [K] (paper +4.0..+7.3)",
           "VREF(125) - VREF(-55) [mV] (paper: rise)"});
  for (const AblationRow& r : {
           run_variant("full model", true, true, true, true),
           run_variant("no fixture leak", false, true, true, true),
           run_variant("no self-heating", true, false, true, true),
           run_variant("no op-amp offset", true, true, false, true),
           run_variant("no substrate parasitic", true, true, true, false),
           run_variant("leak only", true, false, false, false),
           run_variant("parasitic only", false, false, false, true),
       }) {
    t.add_row({r.name, format_fixed(r.d1, 2), format_fixed(r.d3, 2),
               format_fixed(r.vref_rise * 1e3, 1)});
  }
  bench::emit(t, "ablation_corruption_model.csv");
  std::cout
      << "Reading: only variants with the fixture leak flip the dT sign "
         "across T2; only variants with\nthe parasitic push the hot end of "
         "VREF up. Self-heating and offset alone do neither -- the\n"
         "combination in DESIGN.md section 7 is the minimal one.\n";
}

// --- B: solver ablation ----------------------------------------------------

void ablate_solver() {
  bench::banner("Ablation B -- DC solver strategies on the bandgap cell");
  lab::SiliconLot lot;
  const lab::DieSample s = lot.sample(1);
  bandgap::TestCellParams p;
  p.qa_model = s.qa;
  p.qb_model = s.qb;
  p.opamp_offset = s.opamp_offset;

  Table t({"temperature [C]", "warm start: iters / strategy",
           "cold start: iters / strategy / vref"});
  for (double tc : {-55.0, 25.0, 125.0}) {
    spice::Circuit warm_c;
    auto h = bandgap::build_test_cell(warm_c, p);
    // Warm-start path (what solve_cell_at does internally).
    const auto obs = bandgap::solve_cell_at(warm_c, h, to_kelvin(tc));
    (void)obs;
    // Count iterations by re-solving from the analytic guess.
    warm_c.set_temperature(to_kelvin(tc));
    const int n = warm_c.assign_unknowns();
    spice::Unknowns guess(static_cast<std::size_t>(n));
    // Approximate analytic guess (same construction as solve_cell_at).
    auto set = [&](spice::NodeId node, double v) {
      if (node != spice::kGround) guess.raw()[node - 1] = v;
    };
    set(h.a, obs.vbe_qa);
    set(h.btop, obs.vbe_qa);
    set(h.be, obs.vbe_qb);
    set(h.vref, obs.vref);
    const spice::DcResult warm = spice::SimSession(warm_c).solve(&guess);

    spice::Circuit cold_c;
    auto h2 = bandgap::build_test_cell(cold_c, p);
    (void)h2;
    cold_c.set_temperature(to_kelvin(tc));
    const spice::DcResult cold = spice::SimSession(cold_c).solve();
    const double cold_vref =
        cold.converged ? cold.solution.node_voltage(h2.vref) : 0.0;
    t.add_row({format_fixed(tc, 0),
               std::to_string(warm.iterations) + " / " + warm.strategy,
               cold.converged
                   ? std::to_string(cold.iterations) + " / " + cold.strategy +
                         " / " + format_fixed(cold_vref, 3) +
                         (cold_vref < 0.5 ? " (degenerate zero state!)" : "")
                   : "FAILED (" + std::to_string(cold.iterations) + ")"});
  }
  bench::emit(t, "ablation_solver.csv");
  std::cout << "Reading: without the analytic warm start the cell either "
               "lands in the degenerate all-off\nsolution or fails outright "
               "-- the simulation equivalent of a missing startup circuit.\n";
}

// --- C: ideal vs transistor-level op-amp -----------------------------------

void ablate_opamp() {
  bench::banner(
      "Ablation C -- ideal op-amp element vs transistor-level CMOS "
      "amplifier (both close the same bandgap loop)");
  const double gain = bandgap::measure_open_loop_gain([] {
    bandgap::CmosOpAmpParams p;
    p.nmos = bandgap::default_nmos();
    p.pmos = bandgap::default_pmos();
    return p;
  }());
  std::cout << "transistor-level amplifier: open-loop gain "
            << format_fixed(std::abs(gain), 0) << " ("
            << format_fixed(20.0 * std::log10(std::abs(gain)), 1)
            << " dB), 8 MOSFETs + bias leg\n";

  // Bandgap loop closed by the CMOS amplifier.
  lab::SiliconLot lot;
  const lab::DieSample s = lot.sample(0);
  Table t({"T [C]", "VREF, ideal op-amp [V]", "VREF, CMOS op-amp [V]",
           "difference [mV]"});
  for (double tc : {-25.0, 25.0, 75.0}) {
    // Ideal element.
    bandgap::TestCellParams p;
    p.qa_model = s.qa;
    p.qb_model = s.qb;
    spice::Circuit ci;
    auto hi = bandgap::build_test_cell(ci, p);
    const double v_ideal =
        bandgap::solve_cell_at(ci, hi, to_kelvin(tc)).vref;

    // Transistor-level loop: same branches, amplifier from MOSFETs.
    spice::Circuit ct;
    const auto vref = ct.node("vref");
    const auto a = ct.node("a");
    const auto btop = ct.node("btop");
    const auto be = ct.node("be");
    ct.add_resistor("RX1", vref, a, p.rx1, p.resistor_tc1, p.resistor_tc2);
    ct.add_resistor("RX2", vref, btop, p.rx2, p.resistor_tc1,
                    p.resistor_tc2);
    ct.add_resistor("RB", btop, be, p.rb, p.resistor_tc1, p.resistor_tc2);
    ct.add_bjt("QA", spice::kGround, spice::kGround, a, s.qa, 1.0);
    ct.add_bjt("QB", spice::kGround, spice::kGround, be, s.qb, 8.0);
    bandgap::CmosOpAmpParams op;
    op.nmos = bandgap::default_nmos();
    op.pmos = bandgap::default_pmos();
    op.vdd = 2.5;
    bandgap::build_cmos_opamp(ct, "oa", vref, a, btop, op);
    ct.set_temperature(to_kelvin(tc));
    const int n = ct.assign_unknowns();
    spice::Unknowns guess(static_cast<std::size_t>(n));
    auto set = [&](spice::NodeId node, double v) {
      if (node != spice::kGround) guess.raw()[node - 1] = v;
    };
    const double vbe_guess = 0.65 - 1.9e-3 * (tc - 25.0);
    set(a, vbe_guess);
    set(btop, vbe_guess);
    set(be, vbe_guess - 0.05);
    set(vref, 1.22);
    set(ct.node("oa.vdd"), op.vdd);
    set(ct.node("oa.bias"), 1.4);
    set(ct.node("oa.tail"), 2.2);
    set(ct.node("oa.d1"), 1.0);
    set(ct.node("oa.d2"), 0.8);
    spice::NewtonOptions nopt;
    nopt.max_iterations = 500;
    const spice::DcResult r = spice::SimSession(ct, nopt).solve(&guess);
    const double v_cmos =
        r.converged ? r.solution.node_voltage(vref) : std::nan("");
    t.add_row({format_fixed(tc, 0), format_fixed(v_ideal, 4),
               r.converged ? format_fixed(v_cmos, 4) : "no convergence",
               r.converged ? format_fixed((v_cmos - v_ideal) * 1e3, 2)
                           : "-"});
  }
  bench::emit(t, "ablation_opamp.csv");
  std::cout << "Reading: the transistor-level loop works but carries a "
               "systematic, temperature-dependent\ninput offset (mirror "
               "imbalance), shifting VREF by tens of mV -- the physical "
               "reason the\npaper's cell has ADJ trim pads, and why the "
               "default experiments use the ideal element\nplus an explicit "
               "measured offset.\n";
}

}  // namespace

int main() {
  ablate_corruption_model();
  ablate_solver();
  ablate_opamp();
  return 0;
}
