// Cross-module integration tests: the full paper pipeline on synthetic
// education data — RLL beating a plain majority-vote baseline on noisy
// labels, the confidence variants ranking correctly under heavy noise,
// determinism, and model checkpoint reuse across processes steps.

#include <gtest/gtest.h>

#include "baselines/aggregated_lr.h"
#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "baselines/softprob.h"
#include "classify/logistic_regression.h"
#include "common/threading.h"
#include "core/model_bundle.h"
#include "core/pipeline.h"
#include "crowd/agreement.h"
#include "crowd/worker_pool.h"
#include "data/csv.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "data/synthetic.h"

namespace rll {
namespace {

struct Scenario {
  data::Dataset dataset;
  Rng rng;
};

// Medium-difficulty dataset with noisy crowd labels. Mirrors the paper's
// regime: few examples, 5 inconsistent votes each.
Scenario MakeScenario(uint64_t seed, size_t n = 200, size_t votes = 5) {
  Rng rng(seed);
  data::SyntheticConfig config;
  config.num_examples = n;
  config.positive_fraction = 0.62;
  config.linear_dims = 5;
  config.xor_dims = 2;
  config.noise_dims = 9;
  config.clusters_per_class = 2;
  config.linear_sep = 1.2;
  config.xor_sep = 2.8;
  config.cluster_spread = 1.0;
  data::Dataset d = GenerateSynthetic(config, &rng);
  crowd::WorkerPool pool({.num_workers = 15}, &rng);
  pool.Annotate(&d, votes, &rng);
  return {std::move(d), std::move(rng)};
}

core::RllPipelineOptions MediumRllOptions(crowd::ConfidenceMode mode) {
  core::RllPipelineOptions options;
  options.trainer.model.hidden_dims = {32, 16};
  options.trainer.epochs = 8;
  options.trainer.groups_per_epoch = 512;
  options.trainer.confidence_mode = mode;
  options.folds = 3;
  return options;
}

TEST(IntegrationTest, RllPipelineBeatsChanceComfortably) {
  Scenario s = MakeScenario(1);
  auto outcome = core::RunRllCrossValidation(
      s.dataset, MediumRllOptions(crowd::ConfidenceMode::kBayesian), &s.rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->mean.accuracy, 0.7);
  EXPECT_GT(outcome->mean.f1, 0.7);
}

TEST(IntegrationTest, CrowdNoiseIsActuallyPresent) {
  // The scenario must be a genuine crowdsourcing problem: imperfect
  // majority votes and non-trivial disagreement, like the paper's data.
  Scenario s = MakeScenario(2);
  auto stats = crowd::ComputeAgreement(s.dataset);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->majority_vote_accuracy, 0.995);
  EXPECT_GT(stats->majority_vote_accuracy, 0.6);
  EXPECT_LT(stats->unanimous_fraction, 0.9);
}

TEST(IntegrationTest, EmbeddingsTransferToHeldOutClassifier) {
  // Train RLL on one half, fit LR on the *other* half's embeddings —
  // representations must carry class structure beyond the training split.
  // Averaged over seeds: the inner test folds are small.
  double total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Scenario s = MakeScenario(3 + static_cast<uint64_t>(t), 240);
    const data::Split split =
        data::TrainTestSplit(s.dataset.size(), 0.5, &s.rng);
    data::Dataset half_a = s.dataset.Subset(split.train);
    data::Dataset half_b = s.dataset.Subset(split.test);

    data::Standardizer standardizer;
    const Matrix features_a = standardizer.FitTransform(half_a.features());
    const Matrix features_b = standardizer.Transform(half_b.features());

    core::RllTrainerOptions options =
        MediumRllOptions(crowd::ConfidenceMode::kBayesian).trainer;
    core::RllTrainer trainer(options, &s.rng);
    const std::vector<int> labels_a = half_a.MajorityVoteLabels();
    ASSERT_TRUE(
        trainer
            .Train(features_a, labels_a,
                   crowd::LabelConfidence(half_a, labels_a,
                                          crowd::ConfidenceMode::kBayesian))
            .ok());

    const Matrix emb_b = trainer.model().Embed(features_b);
    const data::Split inner = data::TrainTestSplit(half_b.size(), 0.3, &s.rng);
    classify::LogisticRegression lr;
    ASSERT_TRUE(lr.Fit(emb_b.GatherRows(inner.train),
                       half_b.Subset(inner.train).MajorityVoteLabels())
                    .ok());
    const std::vector<int> pred = lr.Predict(emb_b.GatherRows(inner.test));
    total += classify::Evaluate(half_b.Subset(inner.test).true_labels(), pred)
                 .accuracy;
  }
  EXPECT_GT(total / trials, 0.65);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto run = [](uint64_t seed) {
    Scenario s = MakeScenario(seed);
    auto outcome = core::RunRllCrossValidation(
        s.dataset, MediumRllOptions(crowd::ConfidenceMode::kMle), &s.rng);
    EXPECT_TRUE(outcome.ok());
    return outcome->mean;
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.f1, b.f1);
}

TEST(IntegrationTest, CheckpointedModelReproducesPredictions) {
  Scenario s = MakeScenario(8, 160);
  data::Standardizer standardizer;
  const Matrix features = standardizer.FitTransform(s.dataset.features());
  const std::vector<int> labels = s.dataset.MajorityVoteLabels();

  core::RllTrainerOptions options =
      MediumRllOptions(crowd::ConfidenceMode::kNone).trainer;
  options.epochs = 3;
  core::RllTrainer trainer(options, &s.rng);
  ASSERT_TRUE(trainer
                  .Train(features, labels,
                         std::vector<double>(s.dataset.size(), 1.0))
                  .ok());

  auto bundle =
      core::ModelBundle::Create(standardizer, trainer.model(), &s.rng);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = ::testing::TempDir() + "/integration_model.ckpt";
  ASSERT_TRUE(bundle->Save(path).ok());

  auto restored = core::ModelBundle::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto embedded = restored->Embed(s.dataset.features());
  ASSERT_TRUE(embedded.ok());
  EXPECT_TRUE(embedded->AllClose(trainer.model().Embed(features)));
}

TEST(IntegrationTest, BayesianConfidenceHelpsUnderHeavyNoiseFewVotes) {
  // The paper's core claim, in its favourable regime: few votes (d = 3),
  // weak workers → confidence weighting should not hurt, Bayesian ≥ plain
  // on average. Averaged over seeds to damp training variance.
  double bayes_total = 0.0, plain_total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    data::SyntheticConfig config;
    config.num_examples = 220;
    config.positive_fraction = 0.62;
    config.linear_dims = 5;
    config.xor_dims = 2;
    config.noise_dims = 9;
    config.clusters_per_class = 2;
    config.linear_sep = 1.2;
    config.xor_sep = 2.8;
    config.cluster_spread = 1.0;
    data::Dataset d = GenerateSynthetic(config, &rng);
    crowd::WorkerPool pool({.num_workers = 15,
                            .sensitivity_alpha = 5.0,
                            .sensitivity_beta = 2.0,
                            .specificity_alpha = 5.0,
                            .specificity_beta = 2.0},
                           &rng);
    pool.Annotate(&d, 3, &rng);

    Rng eval_rng(200 + t);
    auto bayes = core::RunRllCrossValidation(
        d, MediumRllOptions(crowd::ConfidenceMode::kBayesian), &eval_rng);
    Rng eval_rng2(200 + t);
    auto plain = core::RunRllCrossValidation(
        d, MediumRllOptions(crowd::ConfidenceMode::kNone), &eval_rng2);
    ASSERT_TRUE(bayes.ok());
    ASSERT_TRUE(plain.ok());
    bayes_total += bayes->mean.accuracy;
    plain_total += plain->mean.accuracy;
  }
  EXPECT_GE(bayes_total, plain_total - 0.03);
}

void ExpectSameMetrics(const classify::EvalMetrics& a,
                       const classify::EvalMetrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.accuracy, b.accuracy) << where;
  EXPECT_EQ(a.f1, b.f1) << where;
  EXPECT_EQ(a.precision, b.precision) << where;
  EXPECT_EQ(a.recall, b.recall) << where;
}

TEST(IntegrationTest, MethodInterfaceAndPipelineAgree) {
  // RllVariantMethod through the generic harness must equal the dedicated
  // pipeline given identical seeds, fold by fold and at any thread count.
  Scenario s = MakeScenario(11, 150);
  const auto options = MediumRllOptions(crowd::ConfidenceMode::kMle);
  baselines::RllVariantMethod method(options);

  for (size_t threads : {1u, 4u}) {
    SetGlobalThreads(threads);
    const std::string at = " threads=" + std::to_string(threads);
    Rng rng_a(42);
    auto direct = core::RunRllCrossValidation(s.dataset, options, &rng_a);
    Rng rng_b(42);
    auto via_harness = baselines::CrossValidateMethod(s.dataset, method,
                                                      options.folds, &rng_b);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_harness.ok());
    ASSERT_EQ(direct->per_fold.size(), options.folds);
    ASSERT_EQ(via_harness->per_fold.size(), options.folds);
    for (size_t f = 0; f < options.folds; ++f) {
      ExpectSameMetrics(direct->per_fold[f], via_harness->per_fold[f],
                        "fold " + std::to_string(f) + at);
    }
    ExpectSameMetrics(direct->mean, via_harness->mean, "mean" + at);
    ExpectSameMetrics(direct->stddev, via_harness->stddev, "stddev" + at);
  }
  SetGlobalThreads(0);  // Restore the RLL_THREADS / serial default.
}

TEST(IntegrationTest, CsvExportedDatasetTrainsIdentically) {
  Scenario s = MakeScenario(13, 120);
  const std::string fpath = ::testing::TempDir() + "/integ_features.csv";
  const std::string apath = ::testing::TempDir() + "/integ_annotations.csv";
  ASSERT_TRUE(data::SaveFeaturesCsv(fpath, s.dataset).ok());
  ASSERT_TRUE(data::SaveAnnotationsCsv(apath, s.dataset).ok());
  auto loaded = data::LoadFeaturesCsv(fpath);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(data::LoadAnnotationsCsv(apath, &loaded.value()).ok());

  const auto options = MediumRllOptions(crowd::ConfidenceMode::kBayesian);
  Rng rng_a(5), rng_b(5);
  auto original = core::RunRllCrossValidation(s.dataset, options, &rng_a);
  auto roundtrip = core::RunRllCrossValidation(*loaded, options, &rng_b);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_DOUBLE_EQ(original->mean.accuracy, roundtrip->mean.accuracy);
}

TEST(IntegrationTest, CrossValidationBitwiseIdenticalAcrossThreadCounts) {
  // The determinism contract of the parallel execution core, end to end:
  // the full CV pipeline (parallel folds over parallel kernels, seed-split
  // RNG streams) must produce bitwise-identical metrics at any --threads.
  Scenario s = MakeScenario(21, 140);
  const auto options = MediumRllOptions(crowd::ConfidenceMode::kBayesian);

  SetGlobalThreads(1);
  Rng rng_serial(9);
  auto serial = core::RunRllCrossValidation(s.dataset, options, &rng_serial);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {2u, 4u}) {
    SetGlobalThreads(threads);
    Rng rng(9);
    auto parallel = core::RunRllCrossValidation(s.dataset, options, &rng);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->mean.accuracy, serial->mean.accuracy)
        << "threads=" << threads;
    EXPECT_EQ(parallel->mean.f1, serial->mean.f1) << "threads=" << threads;
    ASSERT_EQ(parallel->per_fold.size(), serial->per_fold.size());
    for (size_t f = 0; f < serial->per_fold.size(); ++f) {
      EXPECT_EQ(parallel->per_fold[f].accuracy, serial->per_fold[f].accuracy)
          << "fold " << f << " threads=" << threads;
      EXPECT_EQ(parallel->per_fold[f].precision,
                serial->per_fold[f].precision)
          << "fold " << f << " threads=" << threads;
      EXPECT_EQ(parallel->per_fold[f].recall, serial->per_fold[f].recall)
          << "fold " << f << " threads=" << threads;
    }
  }
  SetGlobalThreads(0);  // Restore the RLL_THREADS / serial default.
}

}  // namespace
}  // namespace rll
