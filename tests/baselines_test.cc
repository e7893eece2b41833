// Tests for the baseline roster: every Table I method trains and predicts
// on a small annotated dataset, names/groups are correct, the registry
// builds all 15 rows, and the CV harness enforces its contracts.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/aggregated_lr.h"
#include "baselines/label_source.h"
#include "baselines/method.h"
#include "baselines/raykar.h"
#include "core/tuning.h"
#include "baselines/registry.h"
#include "baselines/relation.h"
#include "baselines/rll_method.h"
#include "baselines/siamese.h"
#include "baselines/softprob.h"
#include "baselines/triplet.h"
#include "classify/metrics.h"
#include "crowd/worker_pool.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "data/synthetic.h"

namespace rll::baselines {
namespace {

data::Dataset SmallAnnotatedDataset(Rng* rng, size_t n = 150) {
  data::SyntheticConfig config;
  config.num_examples = n;
  config.positive_fraction = 0.6;
  config.linear_dims = 4;
  config.xor_dims = 2;
  config.noise_dims = 4;
  config.clusters_per_class = 2;
  config.linear_sep = 1.6;
  config.xor_sep = 2.6;
  config.cluster_spread = 0.8;
  data::Dataset d = GenerateSynthetic(config, rng);
  crowd::WorkerPool pool({.num_workers = 12}, rng);
  pool.Annotate(&d, 5, rng);
  return d;
}

DeepBaselineOptions FastDeepOptions(LabelSource source) {
  DeepBaselineOptions options;
  options.hidden_dims = {16, 8};
  options.epochs = 5;
  options.samples_per_epoch = 256;
  options.label_source = source;
  return options;
}

core::RllPipelineOptions FastRllOptions(crowd::ConfidenceMode mode) {
  core::RllPipelineOptions options;
  options.trainer.model.hidden_dims = {16, 8};
  options.trainer.epochs = 5;
  options.trainer.groups_per_epoch = 256;
  options.trainer.confidence_mode = mode;
  return options;
}

// Evaluates the method on held-out folds across a few seeds (single-seed
// results of these small fast configs are noisy) and checks the mean
// accuracy clears the chance bar.
void ExpectMethodLearns(const Method& method, uint64_t seed,
                        double min_accuracy = 0.62) {
  double total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Rng rng(seed * 100 + static_cast<uint64_t>(t));
    data::Dataset d = SmallAnnotatedDataset(&rng);
    const data::Split split = data::TrainTestSplit(d.size(), 0.3, &rng);
    data::Dataset train = d.Subset(split.train);
    data::Dataset test = d.Subset(split.test);

    data::Standardizer standardizer;
    data::Dataset train_std(standardizer.FitTransform(train.features()),
                            train.true_labels());
    for (size_t i = 0; i < train.size(); ++i) {
      for (const data::Annotation& a : train.annotations(i)) {
        train_std.AddAnnotation(i, a);
      }
    }
    auto predicted = method.TrainAndPredict(
        train_std, standardizer.Transform(test.features()), &rng);
    ASSERT_TRUE(predicted.ok())
        << method.name() << ": " << predicted.status().ToString();
    ASSERT_EQ(predicted->size(), test.size());
    total += classify::Evaluate(test.true_labels(), *predicted).accuracy;
  }
  EXPECT_GT(total / trials, min_accuracy) << method.name();
}

// ----------------------------------------------------------- LabelSource

TEST(LabelSourceTest, NamesAreStable) {
  EXPECT_STREQ(LabelSourceName(LabelSource::kMajorityVote), "MV");
  EXPECT_STREQ(LabelSourceName(LabelSource::kDawidSkene), "EM");
  EXPECT_STREQ(LabelSourceName(LabelSource::kGlad), "GLAD");
}

TEST(LabelSourceTest, AllSourcesInferReasonableLabels) {
  Rng rng(1);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  for (LabelSource source : {LabelSource::kMajorityVote,
                             LabelSource::kDawidSkene, LabelSource::kGlad}) {
    auto labels = InferLabels(d, source);
    ASSERT_TRUE(labels.ok());
    size_t correct = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      correct += ((*labels)[i] == d.true_label(i));
    }
    EXPECT_GT(static_cast<double>(correct) / d.size(), 0.75)
        << LabelSourceName(source);
  }
}

// ----------------------------------------------------- Individual methods

TEST(SoftProbTest, LearnsAboveChance) {
  ExpectMethodLearns(SoftProbMethod(), 2);
}

TEST(SoftProbTest, NameAndGroup) {
  SoftProbMethod m;
  EXPECT_EQ(m.name(), "SoftProb");
  EXPECT_EQ(m.group(), "group 1");
}

TEST(AggregatedLrTest, EmLearnsAboveChance) {
  ExpectMethodLearns(AggregatedLrMethod(LabelSource::kDawidSkene), 3);
}

TEST(AggregatedLrTest, GladLearnsAboveChance) {
  ExpectMethodLearns(AggregatedLrMethod(LabelSource::kGlad), 4);
}

TEST(SiameseTest, LearnsAboveChance) {
  ExpectMethodLearns(
      SiameseMethod(FastDeepOptions(LabelSource::kMajorityVote)), 5);
}

TEST(SiameseTest, TwoStageNaming) {
  SiameseMethod mv(FastDeepOptions(LabelSource::kMajorityVote));
  EXPECT_EQ(mv.name(), "SiameseNet");
  EXPECT_EQ(mv.group(), "group 2");
  SiameseMethod em(FastDeepOptions(LabelSource::kDawidSkene));
  EXPECT_EQ(em.name(), "SiameseNet+EM");
  EXPECT_EQ(em.group(), "group 3");
}

TEST(TripletTest, LearnsAboveChance) {
  ExpectMethodLearns(
      TripletMethod(FastDeepOptions(LabelSource::kMajorityVote)), 6);
}

TEST(RelationTest, LearnsAboveChance) {
  ExpectMethodLearns(
      RelationMethod(FastDeepOptions(LabelSource::kMajorityVote)), 7);
}

TEST(RllMethodTest, AllVariantsLearnAboveChance) {
  ExpectMethodLearns(
      RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kNone)), 8);
  ExpectMethodLearns(
      RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kMle)), 9);
  ExpectMethodLearns(
      RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kBayesian)), 10);
}

TEST(RllMethodTest, VariantNames) {
  EXPECT_EQ(RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kNone))
                .name(),
            "RLL");
  EXPECT_EQ(
      RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kMle)).name(),
      "RLL+MLE");
  EXPECT_EQ(RllVariantMethod(FastRllOptions(crowd::ConfidenceMode::kBayesian))
                .name(),
            "RLL+Bayesian");
}

TEST(DeepBaselineTest, FailsWithSingleClassLabels) {
  Rng rng(11);
  data::SyntheticConfig config;
  config.num_examples = 30;
  config.positive_fraction = 0.5;
  data::Dataset d = GenerateSynthetic(config, &rng);
  // Force unanimous positive votes — inferred labels are single-class.
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t w = 0; w < 3; ++w) d.AddAnnotation(i, {w, 1});
  }
  SiameseMethod method(FastDeepOptions(LabelSource::kMajorityVote));
  auto result = method.TrainAndPredict(d, d.features(), &rng);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------ Tuning

TEST(TuningTest, PicksFromGridAndReportsAllPoints) {
  Rng rng(21);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  core::TuningOptions options;
  options.pipeline.trainer.model.hidden_dims = {16, 8};
  options.pipeline.trainer.epochs = 3;
  options.pipeline.trainer.groups_per_epoch = 128;
  const std::vector<double> grid = {2.0, 10.0};
  auto result = core::TuneEta(d, options, &rng, grid);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best_value == 2.0 || result->best_value == 10.0);
  ASSERT_EQ(result->held_out_accuracy.size(), 2u);
  // best_value must correspond to the max held-out accuracy.
  const size_t best_idx = result->best_value == 2.0 ? 0 : 1;
  for (double acc : result->held_out_accuracy) {
    EXPECT_LE(acc, result->held_out_accuracy[best_idx]);
  }
}

TEST(TuningTest, RejectsBadInputs) {
  Rng rng(23);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  core::TuningOptions options;
  EXPECT_FALSE(core::TuneEta(d, options, &rng, {}).ok());
  options.held_out_fraction = 1.5;
  EXPECT_FALSE(core::TuneEta(d, options, &rng, {2.0}).ok());
}

// ------------------------------------------------------------------ Raykar

TEST(RaykarTest, LearnsAboveChance) {
  // The jointly learned classifier generalizes to held-out examples.
  double total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Rng rng(1400 + static_cast<uint64_t>(t));
    data::Dataset d = SmallAnnotatedDataset(&rng);
    const data::Split split = data::TrainTestSplit(d.size(), 0.3, &rng);
    const data::Dataset test = d.Subset(split.test);
    auto model = FitRaykar(d.Subset(split.train));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    total += classify::Evaluate(test.true_labels(),
                                model->classifier.Predict(test.features()))
                 .accuracy;
  }
  EXPECT_GT(total / trials, 0.62);
}

TEST(RaykarTest, RecoversWorkerSensitivities) {
  Rng rng(15);
  data::SyntheticConfig config;
  config.num_examples = 500;
  data::Dataset d = GenerateSynthetic(config, &rng);
  std::vector<double> abilities = {0.95, 0.95, 0.6, 0.6, 0.8};
  crowd::WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 5, &rng);
  auto model = FitRaykar(d);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->sensitivity.size(), 5u);
  // Estimated ordering matches the planted one.
  EXPECT_GT(model->sensitivity[0], model->sensitivity[2]);
  EXPECT_GT(model->sensitivity[1], model->sensitivity[3]);
  EXPECT_GT(model->specificity[0], model->specificity[2]);
  // And the absolute estimates are in the right neighbourhood.
  EXPECT_NEAR(model->sensitivity[0], 0.95, 0.08);
  EXPECT_NEAR(model->sensitivity[2], 0.6, 0.12);
}

TEST(RaykarTest, PosteriorBeatsMajorityVoteWithSpammers) {
  Rng rng(16);
  data::SyntheticConfig config;
  config.num_examples = 400;
  config.positive_fraction = 0.5;
  data::Dataset d = GenerateSynthetic(config, &rng);
  std::vector<double> abilities = {0.95, 0.95, 0.95, 0.52, 0.52,
                                   0.52, 0.52, 0.52};
  crowd::WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 8, &rng);
  auto model = FitRaykar(d);
  ASSERT_TRUE(model.ok());
  size_t raykar_correct = 0, mv_correct = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    raykar_correct += ((model->posterior[i] >= 0.5) == (d.true_label(i) == 1));
    mv_correct += (d.MajorityVote(i) == d.true_label(i));
  }
  EXPECT_GT(raykar_correct, mv_correct);
}

TEST(RaykarTest, FailsWithoutAnnotations) {
  Rng rng(17);
  data::SyntheticConfig config;
  config.num_examples = 20;
  data::Dataset d = GenerateSynthetic(config, &rng);
  EXPECT_EQ(FitRaykar(d).status().code(), StatusCode::kFailedPrecondition);
}

TEST(RaykarTest, ClassifierIsFittedAndUsable) {
  Rng rng(18);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  auto model = FitRaykar(d);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->classifier.fitted());
  EXPECT_EQ(model->classifier.Predict(d.features()).size(), d.size());
  EXPECT_GT(model->iterations, 0);
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, BuildsAllFifteenTableOneRows) {
  const auto methods = BuildTableOneMethods();
  ASSERT_EQ(methods.size(), 15u);
  std::set<std::string> names;
  for (const auto& m : methods) names.insert(m->name());
  EXPECT_EQ(names.size(), 15u);  // All distinct.
  for (const char* expected :
       {"SoftProb", "EM", "GLAD", "SiameseNet", "TripletNet", "RelationNet",
        "SiameseNet+EM", "SiameseNet+GLAD", "TripletNet+EM",
        "TripletNet+GLAD", "RelationNet+EM", "RelationNet+GLAD", "RLL",
        "RLL+MLE", "RLL+Bayesian"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

TEST(RegistryTest, GroupCounts) {
  const auto methods = BuildTableOneMethods();
  std::map<std::string, int> counts;
  for (const auto& m : methods) counts[m->group()]++;
  EXPECT_EQ(counts["group 1"], 3);
  EXPECT_EQ(counts["group 2"], 3);
  EXPECT_EQ(counts["group 3"], 6);
  EXPECT_EQ(counts["group 4"], 3);
}

// -------------------------------------------------------------- CV harness

TEST(CrossValidateTest, ProducesRequestedFolds) {
  Rng rng(12);
  data::Dataset d = SmallAnnotatedDataset(&rng, 120);
  SoftProbMethod method;
  auto outcome = CrossValidateMethod(d, method, 4, &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->per_fold.size(), 4u);
  EXPECT_GT(outcome->mean.accuracy, 0.6);
}

TEST(CrossValidateTest, FailsOnUnannotatedData) {
  Rng rng(13);
  data::SyntheticConfig config;
  config.num_examples = 50;
  data::Dataset d = GenerateSynthetic(config, &rng);
  SoftProbMethod method;
  EXPECT_EQ(CrossValidateMethod(d, method, 3, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

// Answers one label short of the test split on every fold.
class OneLabelShortMethod : public Method {
 public:
  std::string name() const override { return "OneLabelShort"; }
  std::string group() const override { return "test"; }
  Result<std::vector<int>> TrainAndPredict(const data::Dataset& /*train*/,
                                           const Matrix& test_features,
                                           Rng* /*rng*/) const override {
    return std::vector<int>(test_features.rows() - 1, 0);
  }
};

TEST(CrossValidateTest, FailsWhenAMethodReturnsTooFewLabels) {
  Rng rng(14);
  data::Dataset d = SmallAnnotatedDataset(&rng, 60);
  OneLabelShortMethod method;
  EXPECT_EQ(CrossValidateMethod(d, method, 3, &rng).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace rll::baselines
