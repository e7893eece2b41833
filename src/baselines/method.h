// Uniform interface for every row of Table I — group 1 (label inference +
// LR), group 2 (metric learners on majority-vote labels), group 3
// (two-stage combinations), and group 4 (RLL variants) — plus the shared
// cross-validation harness that evaluates them identically.

#ifndef RLL_BASELINES_METHOD_H_
#define RLL_BASELINES_METHOD_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "data/dataset.h"

namespace rll::baselines {

class Method {
 public:
  virtual ~Method() = default;

  /// Row label, e.g. "TripletNet+GLAD".
  virtual std::string name() const = 0;
  /// Paper grouping, e.g. "group 3".
  virtual std::string group() const = 0;

  /// Trains on the crowd-annotated `train` split (expert labels are present
  /// in the dataset but implementations must not read them) and predicts
  /// 0/1 labels for `test_features` (standardized like train.features()).
  virtual Result<std::vector<int>> TrainAndPredict(
      const data::Dataset& train, const Matrix& test_features,
      Rng* rng) const = 0;
};

/// core::CrossValidate with `method` as the learner, so every Table I row
/// is scored under the same protocol as RunRllCrossValidation.
Result<core::CvOutcome> CrossValidateMethod(const data::Dataset& dataset,
                                            const Method& method,
                                            size_t folds, Rng* rng);

}  // namespace rll::baselines

#endif  // RLL_BASELINES_METHOD_H_
