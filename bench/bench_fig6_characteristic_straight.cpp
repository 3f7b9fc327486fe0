// Reproduction of Fig. 6: the EG(XTI) "characteristic straights" from
//   (C1) the classical best fit of VBE(T) over IC in [1e-8, 1e-5] A,
//   (C2) the analytical (Meijer) method with sensor-measured temperatures,
//   (C3) the analytical method with eq.-(16)-computed die temperatures.
// The paper's findings: C1 and C2 correlate (same temperature corruption);
// C3 sits apart and carries the real device behaviour.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/campaign.hpp"

namespace {

using namespace icvbe;

std::vector<double> xti_grid() {
  std::vector<double> g;
  for (double x = 0.5; x <= 6.5; x += 0.25) g.push_back(x);
  return g;
}

void reproduce_fig6() {
  bench::banner(
      "Fig. 6 -- characteristic straights EG(XTI): best fit (C1), "
      "analytical with measured T (C2), analytical with computed T (C3)");

  lab::SiliconLot lot;
  lab::CampaignConfig cfg;
  cfg.seed = 66;
  lab::Laboratory laboratory(lot.sample(1), cfg);

  // (C1): classical fit on VBE(T) sliced from the IC(VBE) family over the
  // paper's current range 1e-8..1e-5 A.
  const std::vector<double> temps_c = {-50.0, -25.0, 0.0, 25.0,
                                       50.0,  75.0,  100.0, 125.0};
  const auto family = laboratory.icvbe_family(temps_c, 0.10, 1.00, 61);
  const auto pts = laboratory.vbe_vs_temperature(1e-6, temps_c);
  std::vector<double> temps_sensor;
  for (const auto& p : pts) temps_sensor.push_back(p.t_sensor);

  extract::BestFitOptions opt;
  opt.t0 = to_kelvin(25.0);
  const auto grid = xti_grid();

  // One C1 line per decade of collector current; they coincide, which is
  // the "infinite number of EG and XTI couples" observation.
  Series c1_line("(C1) best fit");
  Table couples({"IC [A]", "unconstrained EG", "unconstrained XTI",
                 "EG at XTI=3 (on line)", "EG-XTI correlation"});
  for (double ic : {1e-8, 1e-7, 1e-6, 1e-5}) {
    const auto samples =
        extract::vbe_vs_t_at_constant_ic(family, temps_sensor, ic);
    const auto fit = extract::best_fit_eg_xti(samples, opt);
    const auto line = extract::characteristic_straight(samples, grid, opt);
    if (ic == 1e-6) c1_line = line.couples;
    couples.add_row({format_sci(ic, 0), format_fixed(fit.eg, 4),
                     format_fixed(fit.xti, 2),
                     format_fixed(line.intercept + line.slope * 3.0, 4),
                     format_fixed(fit.correlation, 4)});
  }
  bench::emit(couples, "fig6_c1_couples_per_current.csv");

  // (C2)/(C3): cell campaign at the paper's three temperatures.
  const auto sweep = laboratory.test_cell_sweep({-25.0, 25.0, 75.0});
  const auto m = extract::meijer_from_cell(sweep, -25.0, 25.0, 75.0);

  Series c2_line = extract::meijer_line(m.p1.t_sensor, m.p1.vbe_qa,
                                        m.p2.t_sensor, m.p2.vbe_qa, grid);
  c2_line.set_name("(C2) measured T");
  Series c3_line = extract::meijer_line(m.t1_computed, m.p1.vbe_qa,
                                        m.p2.t_sensor, m.p2.vbe_qa, grid);
  c3_line.set_name("(C3) computed T");

  Table lines({"XTI", "(C1) EG", "(C2) EG", "(C3) EG"});
  for (std::size_t i = 0; i < grid.size(); i += 2) {
    lines.add_row({format_fixed(grid[i], 2), format_fixed(c1_line.y(i), 4),
                   format_fixed(c2_line.y(i), 4),
                   format_fixed(c3_line.y(i), 4)});
  }
  bench::emit(lines, "fig6_characteristic_straights.csv");

  AsciiPlotOptions popt;
  popt.title = "Fig. 6: extracted EG [eV] vs XTI";
  popt.x_label = "XTI";
  popt.y_label = "Extracted EG [eV]";
  popt.height = 18;
  AsciiPlot plot(popt);
  plot.add(c1_line, '1');
  plot.add(c2_line, '2');
  plot.add(c3_line, '3');
  plot.print(std::cout);

  bench::banner("Fig. 6 structure checks vs the paper");
  const double eg1_at3 = c1_line.y(c1_line.nearest_index(3.0));
  const double eg2_at3 = c2_line.y(c2_line.nearest_index(3.0));
  const double eg3_at3 = c3_line.y(c3_line.nearest_index(3.0));
  Table h({"check", "paper", "reproduced"});
  h.add_row({"C1-C2 gap at XTI=3 [mV]", "small (C1 ~ C2)",
             format_fixed(std::abs(eg1_at3 - eg2_at3) * 1e3, 1)});
  h.add_row({"C1-C3 gap at XTI=3 [mV]", "large (poor agreement)",
             format_fixed(std::abs(eg1_at3 - eg3_at3) * 1e3, 1)});
  h.add_row({"line slope dEG/dXTI [mV]",
             format_fixed(extract::characteristic_slope_theory(
                              to_kelvin(-25.0), to_kelvin(25.0)) * 1e3, 1) +
                 " (theory)",
             format_fixed((c3_line.y(c3_line.size() - 1) - c3_line.y(0)) /
                              (grid.back() - grid.front()) * 1e3, 1)});
  h.add_row({"C3 EG at the true XTI vs true EG [mV]", "close (method works)",
             format_fixed(std::abs(c3_line.y(c3_line.nearest_index(
                              lot.true_xti())) - lot.true_eg()) * 1e3, 1)});
  h.add_row({"2x2 intersection (C3 couple)",
             "EG/XTI in the plot window",
             "EG=" + format_fixed(m.with_computed_t.eg, 4) +
                 ", XTI=" + format_fixed(m.with_computed_t.xti, 2)});
  bench::emit(h, "fig6_structure_checks.csv");
}

}  // namespace

int main() {
  reproduce_fig6();
  return 0;
}
