#pragma once
// LotCampaign: lot-level Monte-Carlo characterisation fanned across a
// thread pool.
//
// Every die's instrument streams are seeded deterministically from
// (campaign seed, die index), so each die's result is a pure function of
// the configuration. run() is one die loop: workers claim groups of
// linalg::kBatchLanes consecutive dies and carry each group through
// shared lane circuits (a short lot or the last group leaves the spare
// lanes inactive). A die that leaves their lockstep falls back to
// run_die, which gives the die its own Laboratory (own circuits,
// sessions, instrument streams). Each die writes its slot of a
// preallocated, index-ordered result vector, so the output is
// bit-identical to run_die for any thread count (test_lot_campaign,
// test_lot_batch).

#include <cstdint>
#include <string>
#include <vector>

#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/silicon.hpp"

namespace icvbe::lab {

/// Lot index of a campaign's first die; die k of a run is lot index
/// kFirstDieIndex + k.
inline constexpr int kFirstDieIndex = 1;

/// A lot campaign: every die runs the classical method and the analytical
/// (Meijer) method.
struct LotCampaignConfig {
  int samples = 25;          ///< number of dies characterised
  unsigned threads = 0;      ///< worker threads; 0 = hardware_concurrency

  /// Per-die instrument master seed is `seed_base + die index` (the same
  /// convention the serial lot studies used).
  std::uint64_t seed_base = 9000;

  /// Chamber settings for the classical method (VBE(T) of the single DUT).
  std::vector<double> classical_celsius{-50.0, -25.0, 0.0,  25.0,
                                        50.0,  75.0,  100.0, 125.0};
  double classical_ic = 1e-6;  ///< forced collector current [A]

  /// Chamber settings for the analytical (Meijer) method; exactly three.
  std::vector<double> cell_celsius{-25.0, 25.0, 75.0};

  CampaignConfig lab;  ///< base lab config (its seed is overridden per die)
};

/// Everything recorded for one die. `ok == false` carries the error text
/// instead of results (a die whose campaign failed does not poison the
/// lot; it is excluded from the summary).
struct DieCharacterisation {
  int index = 0;               ///< lot index of this die
  bool ok = false;
  std::string error;

  // Classical method: best-fit EG of the single DUT's VBE(T).
  double eg_classical = 0.0;

  // Analytical method, with computed (C3) and sensor-measured (C2)
  // temperatures.
  double eg_meijer = 0.0;      ///< C3
  double xti_meijer = 0.0;     ///< C3
  double eg_measured_t = 0.0;  ///< C2
  double xti_measured_t = 0.0; ///< C2
  double delta_t1 = 0.0;       ///< T_measured - T_computed at the cold point
  double delta_t3 = 0.0;       ///< ... at the hot point
  std::vector<CellPoint> cell; ///< raw test-cell observations
};

/// Order statistics of one extracted quantity across the lot.
struct LotStatistic {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (÷(N-1); 0 if N < 2)
  double min = 0.0;
  double max = 0.0;
  double q10 = 0.0;
  double q50 = 0.0;
  double q90 = 0.0;

  [[nodiscard]] static LotStatistic of(std::vector<double> values);
};

struct LotSummary {
  int dies_ok = 0;
  int dies_failed = 0;
  LotStatistic eg_classical;
  LotStatistic eg_meijer;
  LotStatistic xti_meijer;
  LotStatistic delta_t1;
  LotStatistic delta_t3;
};

class LotCampaign {
 public:
  explicit LotCampaign(SiliconLot lot, LotCampaignConfig config = {});

  /// Characterise every die, fanning groups of linalg::kBatchLanes dies
  /// across the configured thread pool (see the header comment). Results
  /// are ordered by die index, equal run_die's bit for bit and are
  /// independent of thread count.
  [[nodiscard]] std::vector<DieCharacterisation> run() const;

  /// Characterise a single die on its own rigs: the reference run()
  /// matches, and its fallback for a die that leaves the lockstep.
  /// Deterministic in (lot, config, die_offset).
  [[nodiscard]] DieCharacterisation run_die(int die_offset) const;

  /// Aggregate statistics over the ok dies.
  [[nodiscard]] static LotSummary summarise(
      const std::vector<DieCharacterisation>& dies);

  [[nodiscard]] const SiliconLot& lot() const noexcept { return lot_; }
  [[nodiscard]] const LotCampaignConfig& config() const noexcept {
    return config_;
  }

 private:
  SiliconLot lot_;
  LotCampaignConfig config_;
};

}  // namespace icvbe::lab
