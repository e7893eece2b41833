// Held-out hyperparameter selection, as the paper prescribes for η:
// "a smoothing hyper parameter in the softmax function, which is set
// empirically on a held-out dataset" (§III-A).

#ifndef RLL_CORE_TUNING_H_
#define RLL_CORE_TUNING_H_

#include <vector>

#include "core/pipeline.h"

namespace rll::core {

struct TuningResult {
  /// Chosen grid value.
  double best_value = 0.0;
  /// Held-out accuracy at each grid point, parallel to the grid.
  std::vector<double> held_out_accuracy;
};

struct TuningOptions {
  /// Fraction of the training data held out for selection.
  double held_out_fraction = 0.25;
  /// Pipeline configuration used for every candidate (its trainer's eta is
  /// overwritten by each grid value).
  RllPipelineOptions pipeline;
};

/// Evaluates each η in `grid` on a single held-out split of `train` (crowd
/// labels only; expert labels untouched) and returns the value with the
/// best held-out accuracy against majority-vote labels — tuning never sees
/// ground truth, matching how the authors could actually have tuned.
Result<TuningResult> TuneEta(const data::Dataset& train,
                             const TuningOptions& options, Rng* rng,
                             const std::vector<double>& grid);

}  // namespace rll::core

#endif  // RLL_CORE_TUNING_H_
