#include "core/tuning.h"

#include "classify/metrics.h"
#include "data/kfold.h"

namespace rll::core {

Result<TuningResult> TuneEta(const data::Dataset& train,
                             const TuningOptions& options, Rng* rng,
                             const std::vector<double>& grid) {
  if (grid.empty()) return Status::InvalidArgument("empty tuning grid");
  if (!train.FullyAnnotated()) {
    return Status::FailedPrecondition("tuning requires crowd annotations");
  }
  if (options.held_out_fraction <= 0.0 || options.held_out_fraction >= 1.0) {
    return Status::InvalidArgument("held_out_fraction must be in (0, 1)");
  }

  const data::Split split =
      data::TrainTestSplit(train.size(), options.held_out_fraction, rng);
  data::Dataset fit_part = train.Subset(split.train);
  data::Dataset held_out = train.Subset(split.test);
  // Selection target: majority-vote labels of the held-out part — tuning
  // must not touch expert labels.
  const std::vector<int> held_out_mv = held_out.MajorityVoteLabels();

  TuningResult result;
  result.held_out_accuracy.reserve(grid.size());
  double best_accuracy = -1.0;
  for (double value : grid) {
    RllPipelineOptions candidate = options.pipeline;
    candidate.trainer.eta = value;
    RLL_ASSIGN_OR_RETURN(
        std::vector<int> predicted,
        TrainRllAndPredict(fit_part, held_out.features(), candidate, rng));
    const double accuracy =
        classify::Evaluate(held_out_mv, predicted).accuracy;
    result.held_out_accuracy.push_back(accuracy);
    if (accuracy > best_accuracy) {
      best_accuracy = accuracy;
      result.best_value = value;
    }
  }
  return result;
}

}  // namespace rll::core
