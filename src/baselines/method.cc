#include "baselines/method.h"

namespace rll::baselines {

Result<core::CvOutcome> CrossValidateMethod(const data::Dataset& dataset,
                                            const Method& method,
                                            size_t folds, Rng* rng) {
  return core::CrossValidate(
      dataset, folds, rng,
      [&method](const data::Dataset& train, const Matrix& test_features,
                Rng* fold_rng) {
        return method.TrainAndPredict(train, test_features, fold_rng);
      });
}

}  // namespace rll::baselines
