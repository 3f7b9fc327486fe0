#include "icvbe/extract/dataset.hpp"

#include <cmath>

#include "icvbe/common/error.hpp"

namespace icvbe::extract {

double vbe_at_current(const Series& icvbe_curve, double ic) {
  ICVBE_REQUIRE(ic > 0.0, "vbe_at_current: target current must be > 0");
  ICVBE_REQUIRE(icvbe_curve.size() >= 2,
                "vbe_at_current: need >= 2 points on the curve");
  // Build ln(IC) -> VBE and interpolate: linear in ln(IC) is exact for the
  // ideal diode law and an excellent local model otherwise. Samples at the
  // instrument noise floor repeat the same reading, so keep only strictly
  // increasing currents.
  Series inv("vbe(lnIc)");
  inv.reserve(icvbe_curve.size());
  const Series by_vbe = icvbe_curve.sorted_by_x();
  double last = 0.0;
  for (std::size_t i = 0; i < by_vbe.size(); ++i) {
    const double cur = by_vbe.y(i);
    ICVBE_REQUIRE(cur > 0.0, "vbe_at_current: non-positive current sample");
    if (cur <= last * (1.0 + 1e-12)) continue;
    inv.push_back(std::log(cur), by_vbe.x(i));
    last = cur;
  }
  ICVBE_REQUIRE(inv.size() >= 2,
                "vbe_at_current: too few usable samples above the floor");
  const Series sorted = inv;
  const double target = std::log(ic);
  ICVBE_REQUIRE(target >= sorted.min_x() && target <= sorted.max_x(),
                "vbe_at_current: current outside the measured range");
  return sorted.interpolate(target);
}

std::vector<VbeSample> vbe_vs_t_at_constant_ic(
    const std::vector<Series>& family, const std::vector<double>& t_kelvin,
    double ic) {
  ICVBE_REQUIRE(family.size() == t_kelvin.size(),
                "vbe_vs_t_at_constant_ic: family/temperature size mismatch");
  std::vector<VbeSample> out;
  out.reserve(family.size());
  for (std::size_t i = 0; i < family.size(); ++i) {
    VbeSample s;
    s.t_kelvin = t_kelvin[i];
    s.vbe = vbe_at_current(family[i], ic);
    out.push_back(s);
  }
  return out;
}

std::vector<VbeSample> samples_from_lab(
    const std::vector<lab::VbePoint>& points) {
  std::vector<VbeSample> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back({p.t_sensor, p.vbe});
  return out;
}

}  // namespace icvbe::extract
