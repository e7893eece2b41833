#include "core/pipeline.h"

#include "common/strings.h"
#include "common/threading.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rll::core {

Result<std::vector<int>> TrainRllAndPredict(const data::Dataset& train,
                                            const Matrix& test_features,
                                            const RllPipelineOptions& options,
                                            Rng* rng) {
  if (!train.FullyAnnotated()) {
    return Status::FailedPrecondition(
        "RLL training requires crowd annotations on every example");
  }
  // Labels and confidences come from the crowd only.
  const std::vector<int> labels = train.MajorityVoteLabels();
  const std::vector<double> confidence = crowd::LabelConfidence(
      train, labels, options.trainer.confidence_mode,
      options.trainer.prior_strength);

  RllTrainer trainer(options.trainer, rng);
  {
    RLL_TRACE_SPAN("rll_train");
    RLL_RETURN_IF_ERROR(
        trainer.Train(train.features(), labels, confidence).status());
  }

  RLL_TRACE_SPAN("classify");
  const Matrix train_emb = trainer.model().Embed(train.features());
  const Matrix test_emb = trainer.model().Embed(test_features);

  classify::LogisticRegression lr(options.classifier);
  RLL_RETURN_IF_ERROR(lr.Fit(train_emb, labels));
  return lr.Predict(test_emb);
}

Result<CvOutcome> CrossValidate(const data::Dataset& dataset, size_t folds,
                                Rng* rng,
                                const TrainAndPredictFn& train_and_predict) {
  if (!dataset.FullyAnnotated()) {
    return Status::FailedPrecondition(
        "dataset must be crowd-annotated before evaluation");
  }
  // Stratify on expert labels (fold construction only, never training).
  const std::vector<data::Split> splits =
      data::StratifiedKFold(dataset.true_labels(), folds, rng);
  // Folds run as pool tasks. Each gets a private SplitSeed-derived Rng and
  // writes into its own slot, so metrics are identical at any --threads
  // value and in the same (fold) order as a serial loop.
  const uint64_t base_seed = rng->Next();

  RLL_TRACE_SPAN("cross_validation");
  obs::Counter* folds_done =
      obs::MetricRegistry::Global().GetCounter("rll_cv_folds_total");
  std::vector<Result<classify::EvalMetrics>> fold_results(
      splits.size(), Status::Internal("fold not run"));
  ParallelFor(0, splits.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t fold = lo; fold < hi; ++fold) {
      const data::Split& split = splits[fold];
      RLL_TRACE_SPAN_ID("fold", fold);
      const data::Dataset train = dataset.Subset(split.train);
      const data::Dataset test = dataset.Subset(split.test);

      data::Standardizer standardizer;
      Matrix train_features = standardizer.FitTransform(train.features());
      const Matrix test_features = standardizer.Transform(test.features());
      data::Dataset train_std(std::move(train_features), train.true_labels());
      for (size_t i = 0; i < train.size(); ++i) {
        for (const data::Annotation& a : train.annotations(i)) {
          train_std.AddAnnotation(i, a);
        }
      }

      Rng fold_rng(SplitSeed(base_seed, fold));
      Result<std::vector<int>> predicted =
          train_and_predict(train_std, test_features, &fold_rng);
      if (!predicted.ok()) {
        fold_results[fold] = predicted.status();
        continue;
      }
      if (predicted->size() != test.size()) {
        fold_results[fold] = Status::Internal(StrFormat(
            "fold %zu: %zu predicted labels for %zu test examples", fold,
            predicted->size(), test.size()));
        continue;
      }
      fold_results[fold] = classify::Evaluate(test.true_labels(), *predicted);
      folds_done->Increment();
    }
  });

  CvOutcome outcome;
  for (Result<classify::EvalMetrics>& result : fold_results) {
    // First failing fold (in fold order, not completion order) wins.
    RLL_RETURN_IF_ERROR(result.status());
    outcome.per_fold.push_back(std::move(*result));
  }
  outcome.mean = classify::MeanMetrics(outcome.per_fold);
  outcome.stddev = classify::StdDevMetrics(outcome.per_fold);
  return outcome;
}

Result<CvOutcome> RunRllCrossValidation(const data::Dataset& dataset,
                                        const RllPipelineOptions& options,
                                        Rng* rng) {
  return CrossValidate(
      dataset, options.folds, rng,
      [&options](const data::Dataset& train, const Matrix& test_features,
                 Rng* fold_rng) {
        return TrainRllAndPredict(train, test_features, options, fold_rng);
      });
}

}  // namespace rll::core
