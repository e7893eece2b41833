// End-to-end RLL pipeline matching the paper's evaluation protocol (§IV-A):
// stratified 5-fold CV; per fold, infer labels and confidences from the
// crowd annotations of the training split only, learn embeddings with RLL,
// fit logistic regression on the training embeddings, and score against
// expert labels on the held-out split.

#ifndef RLL_CORE_PIPELINE_H_
#define RLL_CORE_PIPELINE_H_

#include <functional>
#include <vector>

#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "core/rll_trainer.h"
#include "data/dataset.h"

namespace rll::core {

struct RllPipelineOptions {
  RllTrainerOptions trainer;
  classify::LogisticRegressionOptions classifier;
  size_t folds = 5;
};

struct CvOutcome {
  classify::EvalMetrics mean;
  classify::EvalMetrics stddev;
  std::vector<classify::EvalMetrics> per_fold;
};

/// One learner under the protocol: trains on the crowd-annotated `train`
/// split and returns one 0/1 label per row of `test_features`.
using TrainAndPredictFn = std::function<Result<std::vector<int>>(
    const data::Dataset& train, const Matrix& test_features, Rng* rng)>;

/// The paper's protocol around any learner: stratified k-fold on expert
/// labels; per fold, standardize on the train split only, train on the
/// crowd labels (with a private SplitSeed-derived Rng), and score the
/// predictions against expert labels. Folds run as pool tasks, so the
/// outcome is the same at any --threads value; the first failing fold in
/// fold order is returned.
Result<CvOutcome> CrossValidate(const data::Dataset& dataset, size_t folds,
                                Rng* rng,
                                const TrainAndPredictFn& train_and_predict);

/// CrossValidate with the RLL pipeline (TrainRllAndPredict) as the learner.
/// The dataset must carry crowd annotations; expert labels are used only
/// for test-fold scoring.
Result<CvOutcome> RunRllCrossValidation(const data::Dataset& dataset,
                                        const RllPipelineOptions& options,
                                        Rng* rng);

/// Single train/test evaluation (one fold's worth): trains on `train`,
/// returns predicted labels for `test_features` (already standardized the
/// same way as train). Useful for building custom harnesses.
Result<std::vector<int>> TrainRllAndPredict(const data::Dataset& train,
                                            const Matrix& test_features,
                                            const RllPipelineOptions& options,
                                            Rng* rng);

}  // namespace rll::core

#endif  // RLL_CORE_PIPELINE_H_
