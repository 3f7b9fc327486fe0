// Deck-driven analysis: the whole study -- circuit, sweep axes, probes --
// lives in SPICE-deck text; C++ only executes the resulting AnalysisPlan.
// The same deck runs unchanged through `icvbe run <deck.cir>`.

#include <iostream>

#include "icvbe/common/constants.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/plan.hpp"

int main() {
  using namespace icvbe;

  static const char* kDeck = R"(
* IC(VBE) family of a diode-connected PNP: VBE on the inner axis,
* temperature stepped on the outer -- the shape of the paper's Fig. 5.
.MODEL PNP8 PNP (IS=2e-16 BF=45 EG=1.17 XTI=3.5 TNOM=298.15)
VE e 0 0.6
Q1 0 0 e PNP8
.STEP TEMP LIST -50 25 125
.DC VE 0.45 0.75 0.05
.PROBE IC(Q1) V(e)
.END
)";

  auto parsed = spice::parse_netlist(kDeck);
  auto& circuit = *parsed.circuit;
  circuit.set_temperature(to_kelvin(parsed.temperature_celsius));

  spice::AnalysisPlan plan = parsed.plans.front();  // the .STEP/.DC plan
  std::cout << "deck plan: " << plan.axes.size() << " axes, "
            << plan.probes.size() << " probes ("
            << plan.probes.front().to_string() << ", "
            << plan.probes.back().to_string() << ")\n\n";

  spice::SimSession session(circuit);
  const spice::SweepResult family = session.run(plan);

  family.table().print(std::cout);
  std::cout << "\nCSV of the same result:\n";
  family.write_csv(std::cout);
  return 0;
}
