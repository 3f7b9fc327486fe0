// Monte-Carlo lot study (extension of Fig. 6 / Table 1): run both
// extraction methods over 25 packaged samples and characterise the
// distributions. The paper measured 5 samples; the virtual lab lets us
// show the population-level structure -- every extracted couple falls on
// the characteristic straight, and only the computed-temperature method
// clusters around the silicon truth.

#include <cstddef>
#include <iostream>

#include "bench_util.hpp"
#include "icvbe/common/ascii_plot.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/lot_campaign.hpp"

namespace {

using namespace icvbe;

constexpr int kSamples = 25;

void run_lot_study() {
  bench::banner(
      "Monte-Carlo lot study: 25 samples, both methods (parallel "
      "LotCampaign)");
  lab::SiliconLot lot;

  lab::LotCampaignConfig cfg;
  cfg.samples = kSamples;
  cfg.seed_base = 9000;
  const lab::LotCampaign campaign(lot, cfg);
  const auto dies = campaign.run();
  const lab::LotSummary s = lab::LotCampaign::summarise(dies);

  Series c3_couples("(C3) couples");
  Series c2_couples("(C2) couples");
  for (const auto& d : dies) {
    if (!d.ok) continue;
    c3_couples.push_back(d.xti_meijer, d.eg_meijer);
    c2_couples.push_back(d.xti_measured_t, d.eg_measured_t);
  }

  Table t({"quantity", "q10", "median", "q90", "truth"});
  t.add_row({"classical EG [eV]", format_fixed(s.eg_classical.q10, 4),
             format_fixed(s.eg_classical.q50, 4),
             format_fixed(s.eg_classical.q90, 4),
             format_fixed(lot.true_eg(), 4)});
  t.add_row({"analytical EG [eV]", format_fixed(s.eg_meijer.q10, 4),
             format_fixed(s.eg_meijer.q50, 4),
             format_fixed(s.eg_meijer.q90, 4),
             format_fixed(lot.true_eg(), 4)});
  t.add_row({"analytical XTI", format_fixed(s.xti_meijer.q10, 2),
             format_fixed(s.xti_meijer.q50, 2),
             format_fixed(s.xti_meijer.q90, 2),
             format_fixed(lot.true_xti(), 2)});
  t.add_row({"dT1 [K]", format_fixed(s.delta_t1.q10, 2),
             format_fixed(s.delta_t1.q50, 2),
             format_fixed(s.delta_t1.q90, 2), "paper: -4.6..-1.8"});
  t.add_row({"dT3 [K]", format_fixed(s.delta_t3.q10, 2),
             format_fixed(s.delta_t3.q50, 2),
             format_fixed(s.delta_t3.q90, 2), "paper: +4.0..+7.3"});
  bench::emit(t, "lot_statistics.csv");

  // Couples cloud: every couple sits near the characteristic straight.
  Series truth("truth");
  truth.push_back(lot.true_xti(), lot.true_eg());
  AsciiPlotOptions popt;
  popt.title = "Extracted couples across the lot (cf. Fig. 6)";
  popt.x_label = "XTI";
  popt.y_label = "EG [eV]";
  popt.height = 16;
  AsciiPlot plot(popt);
  plot.add(c3_couples, '3');
  plot.add(c2_couples, '2');
  plot.add(truth, 'T');
  plot.print(std::cout);

  // Collinearity check: regression of EG on XTI over the C3 cloud should
  // match the characteristic-straight slope.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < c3_couples.size(); ++i) {
    sx += c3_couples.x(i);
    sy += c3_couples.y(i);
    sxx += c3_couples.x(i) * c3_couples.x(i);
    sxy += c3_couples.x(i) * c3_couples.y(i);
  }
  const double n = static_cast<double>(c3_couples.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::cout << "C3 cloud regression slope: " << format_fixed(slope * 1e3, 1)
            << " mV/XTI vs characteristic-straight theory "
            << format_fixed(extract::characteristic_slope_theory(
                                to_kelvin(-25.0), to_kelvin(25.0)) * 1e3, 1)
            << " mV/XTI\n";
}

}  // namespace

int main() {
  run_lot_study();
  return 0;
}
