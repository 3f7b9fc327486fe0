// Reproduction of Fig. 5: the complete IC(VBE) characteristic family of a
// BJT from -50.88 C to 126.9 C measured in ~25 C steps (section 5),
// generated by the virtual lab on the ground-truth silicon.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/lab/campaign.hpp"

namespace {

using namespace icvbe;

const std::vector<double> kPaperTemps = {-50.88, -25.47, -0.07, 27.36,
                                         50.74,  76.13,  101.6, 126.9};

void reproduce_fig5() {
  bench::banner(
      "Fig. 5 -- complete IC(VBE) family, -50.88 C .. 126.9 C, ~25 C steps");

  lab::SiliconLot lot;
  lab::CampaignConfig cfg;
  cfg.seed = 55;
  lab::Laboratory laboratory(lot.sample(1), cfg);

  const auto family = laboratory.icvbe_family(kPaperTemps, 0.10, 1.00, 46);

  // Table: IC at representative VBE values, one column per temperature.
  Table t({"VBE [V]", "-50.9 C", "-25.5 C", "-0.1 C", "27.4 C", "50.7 C",
           "76.1 C", "101.6 C", "126.9 C"});
  for (double vbe : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    std::vector<std::string> row{format_fixed(vbe, 2)};
    for (const auto& curve : family) {
      row.push_back(format_sci(curve.y(curve.nearest_index(vbe)), 2));
    }
    t.add_row(std::move(row));
  }
  bench::emit(t, "fig5_icvbe_family.csv");

  AsciiPlotOptions opt;
  opt.title =
      "Fig. 5: collector current [A] (log axis) vs base-emitter voltage [V]";
  opt.x_label = "Base-Emitter Voltage (V)";
  opt.y_label = "Collector Current (A)";
  opt.log_y = true;
  opt.height = 20;
  AsciiPlot plot(opt);
  for (const auto& curve : family) plot.add(curve);
  plot.print(std::cout);

  bench::banner("Fig. 5 shape checks vs the paper");
  Table h({"check", "paper", "reproduced"});
  // Decade span at mid-VBE between coldest and hottest curve.
  const double cold = family.front().y(family.front().nearest_index(0.5));
  const double hot = family.back().y(family.back().nearest_index(0.5));
  h.add_row({"curves shift left as T rises", "yes (Fig. 5)",
             hot > 1e2 * cold ? "yes (>= 2 decades at VBE = 0.5 V)" : "NO"});
  // Slope ~ 1 decade per 60 mV at room temperature.
  const auto& room = family[3];
  const double i1 = room.y(room.nearest_index(0.55));
  const double i2 = room.y(room.nearest_index(0.65));
  const double mv_per_decade = 100.0 / std::log10(i2 / i1);
  h.add_row({"subthreshold-style slope at 27 C", "~60 mV/decade",
             format_fixed(mv_per_decade, 1) + " mV/decade"});
  h.add_row({"current floor", "~1e-14 A (instrument floor)",
             format_sci(family.front().min_y(), 1) + " A"});
  bench::emit(h, "fig5_shape_checks.csv");

  // The paper's next step: slice VBE(T) at constant IC from this family.
  bench::banner(
      "VBE(T) characteristics sliced from the family at fixed IC (the "
      "classical-method input)");
  std::vector<double> temps_k;
  for (double tc : kPaperTemps) temps_k.push_back(to_kelvin(tc));
  Table s({"IC [A]", "VBE(-50.9 C)", "VBE(27.4 C)", "VBE(126.9 C)",
           "slope [mV/K]"});
  for (double ic : {1e-8, 1e-7, 1e-6, 1e-5}) {
    const auto samples = extract::vbe_vs_t_at_constant_ic(family, temps_k, ic);
    const double slope = (samples.back().vbe - samples.front().vbe) /
                         (samples.back().t_kelvin - samples.front().t_kelvin);
    s.add_row({format_sci(ic, 0), format_fixed(samples.front().vbe, 4),
               format_fixed(samples[3].vbe, 4),
               format_fixed(samples.back().vbe, 4),
               format_fixed(slope * 1e3, 3)});
  }
  bench::emit(s, "fig5_vbe_slices.csv");
}

}  // namespace

int main() {
  reproduce_fig5();
  return 0;
}
