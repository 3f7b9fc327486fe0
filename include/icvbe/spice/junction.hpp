#pragma once
// Shared junction numerics: overflow-safe exponential and the classic
// SPICE3 pnjlim junction-voltage limiter that keeps Newton from exploding
// through the exponential.

#include <cstddef>

namespace icvbe::spice {

/// exp(x) linearised above `cap` so companion conductances stay finite
/// during wild Newton excursions. Computed with common::vexp (<= 4 ulp of
/// std::exp, see simd.hpp) so the scalar and batched stamping paths share
/// one exp implementation bit-for-bit.
[[nodiscard]] double safe_exp(double x, double cap = 200.0);

/// safe_exp over a contiguous array, SIMD packs across elements. Each
/// element's result is bit-identical to safe_exp(x[i], cap) -- the batched
/// device-evaluation path depends on that to match the per-die fallback.
void safe_exp_many(const double* x, double* out, std::size_t n,
                   double cap = 200.0);

/// SPICE3 pnjlim: limit the new junction voltage `vnew` given the previous
/// accepted `vold`, thermal voltage `vt` and critical voltage `vcrit`.
[[nodiscard]] double pnjlim(double vnew, double vold, double vt,
                            double vcrit);

/// pnjlim `v` against the limiting state `state` and store the result
/// there. Returns true if the limiter moved the voltage (the iteration's
/// stamp is then not taken at the iterate).
[[nodiscard]] inline bool limit_junction(double v, double& state, double vt,
                                         double vcrit) {
  state = pnjlim(v, state, vt, vcrit);
  return state != v;
}

/// Critical voltage for a junction with saturation current is_amps at
/// thermal voltage vt: vcrit = vt ln(vt / (sqrt(2) is)).
[[nodiscard]] double junction_vcrit(double vt, double is_amps);

}  // namespace icvbe::spice
