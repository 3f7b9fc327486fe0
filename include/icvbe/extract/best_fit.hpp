#pragma once
// Classical "best fitting" extraction of (EG, XTI) from a measured VBE(T)
// characteristic at constant collector current (paper section 3, eq. 13).
//
// Working form (linear in the parameters, so no iteration -- exactly as the
// paper notes):
//     y(T) := VBE(T) - (T/T0) VBE(T0)
//           = EG (1 - T/T0) - XTI (kT/q) ln(T/T0)
// The two basis functions are nearly collinear over any practical
// temperature range, which is why the fit does not pin down a unique couple
// but a line in the (XTI, EG) plane -- the paper's "characteristic
// straight" (Fig. 6).

#include <vector>

#include "icvbe/common/series.hpp"
#include "icvbe/fit/least_squares.hpp"

namespace icvbe::extract {

/// One temperature observation of the DUT.
struct VbeSample {
  double t_kelvin = 0.0;  ///< temperature the extractor believes [K]
  double vbe = 0.0;       ///< measured VBE [V]
};

/// Result of a two-parameter extraction.
struct EgXtiResult {
  double eg = 0.0;            ///< extracted EG [eV]
  double xti = 0.0;           ///< extracted XTI
  double rmse = 0.0;          ///< fit residual RMSE [V]
  double correlation = 0.0;   ///< fitted EG-XTI correlation coefficient
  double condition = 0.0;     ///< normal-matrix condition estimate
  double sigma_eg = 0.0;      ///< 1-sigma uncertainty on EG [eV]
  double sigma_xti = 0.0;     ///< 1-sigma uncertainty on XTI
};

/// Options for the best-fit extractor.
struct BestFitOptions {
  double t0 = 298.15;      ///< reference temperature [K]
  double vbe_t0 = 0.0;     ///< VBE at t0; 0 = interpolate from the data
  double var_volts = 0.0;  ///< reverse Early voltage for the printed eq.-13
                           ///< correction; 0/inf = no correction
};

/// Full two-parameter least-squares fit (unconstrained couple).
/// Requires at least 3 samples spanning a nonzero temperature range.
[[nodiscard]] EgXtiResult best_fit_eg_xti(const std::vector<VbeSample>& data,
                                          const BestFitOptions& options = {});

/// Constrained fit: hold XTI fixed, solve the 1-D least squares for EG.
[[nodiscard]] double best_fit_eg_given_xti(const std::vector<VbeSample>& data,
                                           double xti,
                                           const BestFitOptions& options = {});

/// Trace the characteristic straight EG(XTI) over a grid of XTI values.
/// Returns a Series (x = XTI, y = EG) plus its straight-line summary.
struct CharacteristicStraight {
  Series couples;       ///< EG vs XTI
  double slope = 0.0;   ///< dEG/dXTI [eV per unit XTI]
  double intercept = 0.0;  ///< EG at XTI = 0 [eV]
  double r_squared = 0.0;  ///< linearity of the locus (should be ~1)
};
[[nodiscard]] CharacteristicStraight characteristic_straight(
    const std::vector<VbeSample>& data, const std::vector<double>& xti_grid,
    const BestFitOptions& options = {});

/// Theoretical slope of the characteristic straight: the paper's eqs.
/// (14)-(15) imply dEG/dXTI = -(k T_a T_b / q) ln(T_b/T_a) / (T_b - T_a)
/// for any pair; over a data set it is the regression of the XTI basis on
/// the EG basis. Exposed for tests and the Fig. 6 bench.
[[nodiscard]] double characteristic_slope_theory(double t_low, double t_high);

}  // namespace icvbe::extract
