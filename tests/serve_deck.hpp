#pragma once
// The serve_mixed benchmark's deck for the engine tests: a 200-stage RC
// ladder driven by a pulse into a diode-connected PNP, carrying .DC, .TRAN
// and .AC, rendered as benchmark/src/serve.cpp renders it. A value PATCH
// of R100 or TEMP renders as the equivalent deck text.

#include <sstream>
#include <string>

namespace icvbe::spice::testdeck {

/// The deck text; a non-empty `r100` or `celsius` replaces R100's value
/// or the .TEMP value (both as written in a PATCH line).
inline std::string serve_deck(const std::string& r100 = {},
                              const std::string& celsius = {}) {
  std::ostringstream d;
  d << "* serve_mixed: RC ladder with a diode-connected PNP load\n"
    << "V1 n0 0 PULSE(1 0.5 0 10u 10u 200u 400u) AC 1\n";
  for (int k = 1; k <= 200; ++k) {
    d << "R" << k << " n" << k - 1 << " n" << k << " ";
    if (k == 100 && !r100.empty()) {
      d << r100;
    } else {
      d << 90 + (k * 37) % 21;
    }
    d << "\nC" << k << " n" << k << " 0 100p\n";
  }
  d << "Q1 0 0 n200 PMOD\n.MODEL PMOD PNP (IS=1e-16 BF=50)\n"
    << ".TEMP " << (celsius.empty() ? "27" : celsius) << "\n"
    << ".DC V1 0 1 0.125\n.TRAN 5u 500u\n.AC DEC 10 1k 100meg\n"
    << ".PROBE V(n200) V(n100) I(V1)\n.END\n";
  return d.str();
}

}  // namespace icvbe::spice::testdeck
