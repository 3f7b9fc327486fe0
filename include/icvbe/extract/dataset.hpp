#pragma once
// Dataset manipulation between the raw lab output and the extractors:
// slicing the Fig.-5 IC(VBE) family into constant-current VBE(T)
// characteristics ("Several VBE(T) characteristics at a fixed collector
// current can be extracted from this set", paper section 5).

#include <vector>

#include "icvbe/common/series.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/lab/campaign.hpp"

namespace icvbe::extract {

/// Invert one IC(VBE) curve at a target collector current by interpolating
/// ln(IC) in VBE (exact for an ideal exponential). The curve's x is VBE [V]
/// and y is IC [A]; `ic` must lie inside the measured current range.
[[nodiscard]] double vbe_at_current(const Series& icvbe_curve, double ic);

/// Slice a family of IC(VBE) curves (one per temperature, same order as
/// `t_kelvin`) into a constant-current VBE(T) dataset.
[[nodiscard]] std::vector<VbeSample> vbe_vs_t_at_constant_ic(
    const std::vector<Series>& family, const std::vector<double>& t_kelvin,
    double ic);

/// Convert lab VbePoints into extractor samples using the *sensor*
/// temperatures (what the classical method actually has).
[[nodiscard]] std::vector<VbeSample> samples_from_lab(
    const std::vector<lab::VbePoint>& points);

}  // namespace icvbe::extract
