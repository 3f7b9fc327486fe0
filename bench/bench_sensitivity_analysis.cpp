// Reproduction of the paper's quantitative accuracy claims:
//   section 3: a 1 % VBE measurement error may induce up to 8 % EG error
//              in the classical extraction;
//   section 3 (Meijer, ref [13]): a reference-temperature error dT2 < 5 K
//              has no significant influence on EG and XTI;
//   section 4: the collector-current correction coefficient
//              A = (k T2 / q) ln X is ~0.3 mV (0.45 % of dVBE) for a
//              0..100 C pair -- i.e. the current drift is negligible;
//   ref [12]:  IS(T) sensitivity ~20 %/K, which is why fitting IS(T)
//              directly is hopeless compared to VBE(T).

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/extract/sensitivity.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/physics/saturation_current.hpp"
#include "icvbe/physics/vbe_model.hpp"

namespace {

using namespace icvbe;

std::vector<extract::VbeSample> clean_dataset() {
  physics::VbeModelParams p{1.132, 3.6, 298.15, 0.653};
  std::vector<extract::VbeSample> out;
  for (double t = 223.15; t <= 398.16; t += 25.0) {
    out.push_back({t, physics::vbe_of_t(p, t)});
  }
  return out;
}

void claim_vbe_error() {
  bench::banner(
      "Section-3 claim: 1 % VBE error -> up to 8 % EG error (classical "
      "method)");
  const auto data = clean_dataset();
  extract::BestFitOptions opt;
  opt.t0 = 298.15;

  Table t({"VBE rel. error", "EG rel. RMS", "EG rel. max (MC)",
           "EG worst single-point", "XTI abs. RMS"});
  for (double rel : {0.001, 0.0025, 0.005, 0.01, 0.02}) {
    const auto prop =
        extract::propagate_vbe_error(data, 1.132, rel, 400, opt);
    const double worst = extract::worst_case_eg_error(data, 1.132, rel, opt);
    t.add_row({format_fixed(rel * 100.0, 2) + " %",
               format_fixed(prop.eg_rel_rms * 100.0, 2) + " %",
               format_fixed(prop.eg_rel_max * 100.0, 2) + " %",
               format_fixed(worst * 100.0, 2) + " %",
               format_fixed(prop.xti_abs_rms, 2)});
  }
  bench::emit(t, "sensitivity_vbe_error.csv");
  std::cout << "paper: \"a measurement error of 1% on the VBE(T) "
               "characteristic may induce up to 8% of error on the "
               "extracted values of EG\"\n";
}

void claim_t2_error() {
  bench::banner(
      "Meijer robustness: dT2 < 5 K has no significant influence on EG, "
      "XTI");
  physics::VbeModelParams p{1.132, 3.6, 297.0, 0.64};
  const auto rows = extract::meijer_t2_sensitivity(
      247.0, physics::vbe_of_t(p, 247.0), 297.0, physics::vbe_of_t(p, 297.0),
      348.0, physics::vbe_of_t(p, 348.0),
      {-5.0, -3.0, -1.0, 0.0, 1.0, 3.0, 5.0});
  Table t({"dT2 [K]", "EG [eV]", "EG error [%]", "XTI", "XTI error"});
  for (const auto& r : rows) {
    t.add_row({format_fixed(r.delta_t2, 1), format_fixed(r.eg, 4),
               format_fixed((r.eg - 1.132) / 1.132 * 100.0, 2),
               format_fixed(r.xti, 3), format_fixed(r.xti - 3.6, 3)});
  }
  bench::emit(t, "sensitivity_t2_error.csv");
  std::cout << "Contrast: the same 5 K error applied to T1 *alone* (not a "
               "common scale) is catastrophic:\n";
  const auto bad = extract::meijer_extract(
      252.0, physics::vbe_of_t(p, 247.0), 297.0, physics::vbe_of_t(p, 297.0),
      348.0, physics::vbe_of_t(p, 348.0));
  std::cout << "  T1 mis-measured by +5 K -> EG = " << format_fixed(bad.eg, 4)
            << ", XTI = " << format_fixed(bad.xti, 2)
            << "  (vs true 1.1320 / 3.60)\n";
}

void claim_current_coefficient() {
  bench::banner(
      "Section-4 claim: A = (k T2/q) ln X ~ 0.3 mV (0.45 % of dVBE) -- the "
      "current drift is a weak effect");
  // Evaluate the coefficient for the paper's worked example (T1 = 0 C,
  // T2 = 100 C) across a range of current-ratio drifts X, and for the
  // drift actually observed in the virtual test cell.
  const double t2 = to_kelvin(100.0);
  Table t({"X (eq. 20)", "A = (kT2/q) ln X", "A / dVBE(T2) (70 mV)"});
  for (double x : {1.001, 1.005, 1.0094, 1.02, 1.05}) {
    const double a = extract::current_correction_coefficient(t2, x);
    t.add_row({format_fixed(x, 4), format_fixed(a * 1e3, 3) + " mV",
               format_fixed(a / 70e-3 * 100.0, 2) + " %"});
  }
  bench::emit(t, "sensitivity_current_coefficient.csv");

  lab::SiliconLot lot;
  lab::CampaignConfig cfg;
  cfg.seed = 17;
  lab::Laboratory laboratory(lot.sample(2), cfg);
  const auto sweep = laboratory.test_cell_sweep({0.0, 100.0});
  const double x_cell = extract::current_ratio_x(
      sweep[0].ic_qa, sweep[0].ic_qb, sweep[1].ic_qa, sweep[1].ic_qb);
  const double a_cell = extract::current_correction_coefficient(
      sweep[1].t_sensor, x_cell);
  std::cout << "virtual cell, T1 = 0 C vs T2 = 100 C: X = "
            << format_fixed(x_cell, 5) << ", A = "
            << format_fixed(a_cell * 1e3, 3) << " mV ("
            << format_fixed(a_cell / sweep[1].delta_vbe * 100.0, 2)
            << " % of dVBE(T2))\n"
            << "paper: A ~ 0.3 mV, 0.45 % of dVBE(T2) = 70 mV -> \"the "
               "temperature variation of IC has a weak influence\"\n";
}

void claim_is_sensitivity() {
  bench::banner(
      "Ref [12]: IS(T) sensitivity ~20 %/K -- why IS(T) regression is not "
      "used");
  Table t({"T [K]", "(1/IS) dIS/dT [%/K]", "VBE change for +1 K [mV]"});
  physics::BaseTransport bt;
  bt.en = 0.42;
  bt.erho = 0.11;
  bt.t0 = 300.0;
  const physics::GummelPoonIsModel gp(physics::make_eg5(), 0.045, bt, 48e-8);
  physics::VbeModelParams p{1.132, 3.6, 298.15, 0.653};
  for (double temp : {250.0, 275.0, 300.0, 325.0, 350.0}) {
    const double s = gp.relative_sensitivity(temp) * 100.0;
    const double dvbe =
        (physics::vbe_of_t(p, temp + 1.0) - physics::vbe_of_t(p, temp)) * 1e3;
    t.add_row({format_fixed(temp, 0), format_fixed(s, 1),
               format_fixed(dvbe, 3)});
  }
  bench::emit(t, "sensitivity_is_temperature.csv");
  std::cout << "IS moves ~15-20 %/K while VBE moves ~2 mV/K (0.3 %/K): the "
               "paper fits VBE(T), \"which is more accurate because VBE(T) "
               "is processed from direct measurements\"\n";
}

}  // namespace

int main() {
  claim_vbe_error();
  claim_t2_error();
  claim_current_coefficient();
  claim_is_sensitivity();
  return 0;
}
