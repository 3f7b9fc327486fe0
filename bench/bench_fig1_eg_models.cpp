// Reproduction of Fig. 1: the five EG(T) models over 0-450 K, the 0 K
// spread, and the eq.-(12) identification of SPICE parameters from the
// Gummel-Poon physical model (section 2).

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/physics/carrier.hpp"
#include "icvbe/physics/eg_model.hpp"
#include "icvbe/physics/saturation_current.hpp"

namespace {

using namespace icvbe;

void reproduce_fig1() {
  bench::banner(
      "Fig. 1 -- temperature variation of the Si energy band gap, five "
      "models");

  const auto eg1 = physics::make_eg1(300.0);
  const auto eg2 = physics::make_eg2();
  const auto eg3 = physics::make_eg3();
  const auto eg4 = physics::make_eg4();
  const auto eg5 = physics::make_eg5();
  const physics::EgModel* models[] = {&eg1, &eg2, &eg3, &eg4, &eg5};

  Table t({"T [K]", "EG1 lin", "EG2 Varshni[8]", "EG3 Varshni[7]",
           "EG4 log[6]", "EG5 log[6]"});
  Series s1("EG1"), s2("EG2"), s3("EG3"), s4("EG4"), s5("EG5");
  Series* series[] = {&s1, &s2, &s3, &s4, &s5};
  for (double temp = 0.0; temp <= 450.0; temp += 25.0) {
    std::vector<std::string> row{format_fixed(temp, 0)};
    for (int m = 0; m < 5; ++m) {
      const double eg = models[m]->eg(temp);
      row.push_back(format_fixed(eg, 4));
      series[m]->push_back(temp, eg);
    }
    t.add_row(std::move(row));
  }
  bench::emit(t, "fig1_eg_models.csv");

  AsciiPlotOptions opt;
  opt.title = "Fig. 1: EG(T) [eV] vs T [K]";
  opt.x_label = "Temperature [K]";
  opt.y_label = "Energy band gap of Si [eV]";
  opt.height = 18;
  AsciiPlot plot(opt);
  for (int m = 0; m < 5; ++m) plot.add(*series[m]);
  plot.print(std::cout);

  bench::banner("Fig. 1 headline numbers vs the paper");
  Table h({"quantity", "paper", "reproduced"});
  h.add_row({"EG5(0) - EG2(0) spread", "~22 mV",
             format_fixed((eg5.eg(0.0) - eg2.eg(0.0)) * 1e3, 1) + " mV"});
  const double eg0 = physics::eg0_extrapolated(300.0);
  h.add_row({"EG0 tangent extrapolation", "~1.2 eV (above all models)",
             format_fixed(eg0, 4) + " eV"});
  const double worst =
      eg0 - (eg5.eg(0.0) - 0.045);  // with 45 meV bandgap narrowing
  h.add_row({"error incl. bandgap narrowing", "up to ~90 mV",
             format_fixed(worst * 1e3, 1) + " mV"});
  bench::emit(h, "fig1_headlines.csv");

  bench::banner("Section 2 -- eq. (12) identification from physics");
  physics::BaseTransport bt;
  bt.en = 0.42;
  bt.erho = 0.11;
  bt.t0 = 300.0;
  const physics::GummelPoonIsModel gp(physics::make_eg5(), 0.045, bt, 48e-8);
  const auto p = gp.spice_params();
  Table id({"quantity", "value"});
  id.add_row({"EG(0) (EG5 model)", format_fixed(physics::make_eg5().eg0(), 4) + " eV"});
  id.add_row({"dEG bandgap narrowing", "45.0 meV"});
  id.add_row({"EN (mobility exponent)", format_fixed(bt.en, 2)});
  id.add_row({"Erho (Gummel-number exponent)", format_fixed(bt.erho, 2)});
  id.add_row({"b (EG5 log coefficient)", format_sci(physics::make_eg5().b(), 3) + " eV/K"});
  id.add_row({"=> SPICE EG (eq. 12)", format_fixed(p.eg, 4) + " eV"});
  id.add_row({"=> SPICE XTI (eq. 12)", format_fixed(p.xti, 3)});
  id.add_row({"IS(T) sensitivity at 300 K (paper ref [12]: ~20 %/K)",
              format_fixed(gp.relative_sensitivity(300.0) * 100.0, 1) +
                  " %/K"});
  bench::emit(id, "fig1_eq12_identification.csv");
}

}  // namespace

int main() {
  reproduce_fig1();
  return 0;
}
