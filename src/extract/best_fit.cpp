#include "icvbe/extract/best_fit.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/physics/vbe_model.hpp"

namespace icvbe::extract {

namespace {

/// Resolve VBE(T0): use the supplied value or interpolate from the data.
double resolve_vbe_t0(const std::vector<VbeSample>& data,
                      const BestFitOptions& opt) {
  if (opt.vbe_t0 != 0.0) return opt.vbe_t0;
  Series s("vbe");
  for (const auto& p : data) s.push_back(p.t_kelvin, p.vbe);
  return s.sorted_by_x().interpolate(opt.t0);
}

/// Basis functions of the linearised eq. (13).
double basis_eg(double t, double t0) { return 1.0 - t / t0; }
double basis_xti(double t, double t0) {
  return -kBoltzmannEv * t * std::log(t / t0);
}

void validate(const std::vector<VbeSample>& data) {
  ICVBE_REQUIRE(data.size() >= 3,
                "best_fit: need at least 3 VBE(T) samples");
  double tmin = data.front().t_kelvin, tmax = tmin;
  for (const auto& p : data) {
    ICVBE_REQUIRE(p.t_kelvin > 0.0, "best_fit: non-positive temperature");
    tmin = std::min(tmin, p.t_kelvin);
    tmax = std::max(tmax, p.t_kelvin);
  }
  ICVBE_REQUIRE(tmax - tmin > 1.0,
                "best_fit: temperature span must exceed 1 K");
}

}  // namespace

EgXtiResult best_fit_eg_xti(const std::vector<VbeSample>& data,
                            const BestFitOptions& options) {
  validate(data);
  const double t0 = options.t0;
  const double vbe_t0 = resolve_vbe_t0(data, options);

  linalg::Matrix a(data.size(), 2);
  linalg::Vector y(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double t = data[i].t_kelvin;
    a(i, 0) = basis_eg(t, t0);
    a(i, 1) = basis_xti(t, t0);
    double ref_term = (t / t0) * vbe_t0;
    if (options.var_volts > 0.0 && std::isfinite(options.var_volts)) {
      // Printed eq. (13): the VBE(T0) transfer term carries the reverse
      // Early correction (VAR - VBE(T0)) / (VAR - VBE(T)).
      ref_term *= physics::early_correction(options.var_volts, vbe_t0,
                                            data[i].vbe);
    }
    y[i] = data[i].vbe - ref_term;
  }

  const fit::LinearFitResult lsq = fit::linear_least_squares(a, y);
  EgXtiResult out;
  out.eg = lsq.parameters[0];
  out.xti = lsq.parameters[1];
  out.rmse = lsq.rmse;
  out.correlation = lsq.param_correlation(0, 1);
  out.condition = lsq.condition_number;
  out.sigma_eg = lsq.param_sigma(0);
  out.sigma_xti = lsq.param_sigma(1);
  return out;
}

double best_fit_eg_given_xti(const std::vector<VbeSample>& data, double xti,
                             const BestFitOptions& options) {
  validate(data);
  const double t0 = options.t0;
  const double vbe_t0 = resolve_vbe_t0(data, options);
  // 1-D least squares: EG = sum f1 (y - xti f2) / sum f1^2.
  double num = 0.0, den = 0.0;
  for (const auto& p : data) {
    const double f1 = basis_eg(p.t_kelvin, t0);
    const double f2 = basis_xti(p.t_kelvin, t0);
    const double y = p.vbe - (p.t_kelvin / t0) * vbe_t0;
    num += f1 * (y - xti * f2);
    den += f1 * f1;
  }
  ICVBE_REQUIRE(den > 0.0, "best_fit_eg_given_xti: degenerate basis");
  return num / den;
}

CharacteristicStraight characteristic_straight(
    const std::vector<VbeSample>& data, const std::vector<double>& xti_grid,
    const BestFitOptions& options) {
  ICVBE_REQUIRE(xti_grid.size() >= 2,
                "characteristic_straight: need >= 2 XTI values");
  CharacteristicStraight out;
  out.couples = Series("EG(XTI)");
  std::vector<double> xs, ys;
  for (double xti : xti_grid) {
    const double eg = best_fit_eg_given_xti(data, xti, options);
    out.couples.push_back(xti, eg);
    xs.push_back(xti);
    ys.push_back(eg);
  }
  const fit::LineFit line = fit::fit_line(xs, ys);
  out.slope = line.slope;
  out.intercept = line.intercept;
  out.r_squared = line.r_squared;
  return out;
}

double characteristic_slope_theory(double t_low, double t_high) {
  ICVBE_REQUIRE(t_low > 0.0 && t_high > t_low,
                "characteristic_slope_theory: need 0 < t_low < t_high");
  // From eq. (14): EG (T_b - T_a) + XTI (k T_a T_b / q) ln(T_b/T_a) = const
  // along the locus, so dEG/dXTI = -(k T_a T_b / q) ln(T_b/T_a)/(T_b - T_a).
  return -kBoltzmannEv * t_low * t_high * std::log(t_high / t_low) /
         (t_high - t_low);
}

}  // namespace icvbe::extract
