// Parameterized property tests over the library's core invariants:
// confidence monotonicity and bounds, aggregation vs. single workers,
// group-loss identities, and RNG-shape sweeps of autograd ops.

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/group_sampler.h"
#include "core/rll_model.h"
#include "crowd/adaptive_annotation.h"
#include "crowd/confidence.h"
#include "crowd/iwmv.h"
#include "crowd/majority_vote.h"
#include "crowd/multiclass.h"
#include "crowd/worker_pool.h"
#include "text/transcript.h"
#include "text/vocabulary.h"
#include "data/synthetic.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll {
namespace {

// ------------------------------------ Confidence estimator properties

class ConfidencePropertyTest : public ::testing::TestWithParam<int> {};

// Eq. (2) output always lies strictly inside (0, 1) and is monotone in the
// number of positive votes.
TEST_P(ConfidencePropertyTest, BayesianBoundedAndMonotone) {
  const int d = 1 + GetParam() % 7;  // Votes per example: 1..7.
  Rng rng(static_cast<uint64_t>(GetParam()));
  // One example per possible positive-vote count 0..d.
  data::Dataset dataset(Matrix(static_cast<size_t>(d) + 1, 1),
                        std::vector<int>(static_cast<size_t>(d) + 1, 1));
  for (int votes = 0; votes <= d; ++votes) {
    for (int w = 0; w < d; ++w) {
      dataset.AddAnnotation(static_cast<size_t>(votes),
                            {static_cast<size_t>(w), w < votes ? 1 : 0});
    }
  }
  const double strength = 0.5 + rng.Uniform() * 5.0;
  const auto p = crowd::LabelPositiveness(
      dataset, crowd::ConfidenceMode::kBayesian, strength);
  for (int votes = 0; votes <= d; ++votes) {
    EXPECT_GT(p[votes], 0.0);
    EXPECT_LT(p[votes], 1.0);
    if (votes > 0) {
      EXPECT_GT(p[votes], p[votes - 1]);
    }
  }
}

// As d grows with a fixed vote fraction, the Bayesian estimate approaches
// the MLE (prior washes out).
TEST_P(ConfidencePropertyTest, BayesianApproachesMleWithMoreVotes) {
  const double strength = 2.0;
  auto estimate_gap = [&](int d) {
    data::Dataset dataset(Matrix(2, 1), std::vector<int>{1, 0});
    // Example 0: all-positive votes; example 1: all-negative (fixes the
    // majority-vote class prior at 0.5 → α = β).
    for (int w = 0; w < d; ++w) {
      dataset.AddAnnotation(0, {static_cast<size_t>(w), 1});
      dataset.AddAnnotation(1, {static_cast<size_t>(w), 0});
    }
    const auto mle =
        crowd::LabelPositiveness(dataset, crowd::ConfidenceMode::kMle);
    const auto bayes = crowd::LabelPositiveness(
        dataset, crowd::ConfidenceMode::kBayesian, strength);
    return std::fabs(mle[0] - bayes[0]);
  };
  const int d_small = 2 + GetParam() % 3;
  const int d_large = d_small * 8;
  EXPECT_GT(estimate_gap(d_small), estimate_gap(d_large));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConfidencePropertyTest,
                         ::testing::Range(0, 8));

// ------------------------------------------ Aggregation vs single worker

class AggregationPropertyTest : public ::testing::TestWithParam<int> {};

// Majority vote over 5 homogeneous workers beats one worker's expected
// accuracy (Condorcet) for abilities above 0.5.
TEST_P(AggregationPropertyTest, MajorityBeatsSingleWorker) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  const double ability = 0.62 + 0.05 * (GetParam() % 6);
  const size_t n = 600;
  data::Dataset d(Matrix(n, 1), [&] {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(0.5);
    return labels;
  }());
  crowd::WorkerPool pool(std::vector<double>(5, ability),
                         std::vector<double>(5, ability));
  pool.Annotate(&d, 5, &rng);
  crowd::MajorityVote mv;
  auto result = mv.Run(d);
  ASSERT_TRUE(result.ok());
  size_t mv_correct = 0, single_correct = 0;
  for (size_t i = 0; i < n; ++i) {
    mv_correct += (result->labels[i] == d.true_label(i));
    single_correct += (d.annotations(i)[0].label == d.true_label(i));
  }
  EXPECT_GT(mv_correct, single_correct);
}

INSTANTIATE_TEST_SUITE_P(AbilitySweep, AggregationPropertyTest,
                         ::testing::Range(0, 6));

// ------------------------------------------------- Group-loss identities

class GroupLossPropertyTest : public ::testing::TestWithParam<int> {};

// Scaling η monotonically sharpens a winning configuration: if the positive
// has the highest weighted score, higher η lowers the loss.
TEST_P(GroupLossPropertyTest, EtaSharpensWinningGroups) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 40);
  const size_t batch = 4, dim = 6;
  Matrix anchor = RandomNormal(batch, dim, &rng);
  Matrix pos = anchor;  // Positive perfectly aligned → always wins.
  Matrix neg = RandomNormal(batch, dim, &rng);
  MatrixList conf = {Matrix(batch, 1, 1.0), Matrix(batch, 1, 0.7)};
  auto loss_at = [&](double eta) {
    return core::GroupNllLoss(ag::Constant(anchor),
                              {ag::Constant(pos), ag::Constant(neg)}, conf,
                              eta)
        ->value(0, 0);
  };
  EXPECT_LT(loss_at(10.0), loss_at(2.0));
  EXPECT_LT(loss_at(2.0), loss_at(0.5));
}

// Permuting the negatives leaves the loss unchanged (softmax symmetry).
TEST_P(GroupLossPropertyTest, NegativeOrderInvariance) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 80);
  const size_t batch = 3, dim = 5;
  Matrix anchor = RandomNormal(batch, dim, &rng);
  Matrix pos = RandomNormal(batch, dim, &rng);
  Matrix n1 = RandomNormal(batch, dim, &rng);
  Matrix n2 = RandomNormal(batch, dim, &rng);
  Matrix c_pos(batch, 1, 0.9), c1(batch, 1, 0.6), c2(batch, 1, 0.8);
  const double a = core::GroupNllLoss(
                       ag::Constant(anchor),
                       ag::VarList{ag::Constant(pos),
                                   ag::Constant(n1), ag::Constant(n2)},
                       MatrixList{c_pos, c1, c2}, 5.0)
                       ->value(0, 0);
  const double b = core::GroupNllLoss(
                       ag::Constant(anchor),
                       ag::VarList{ag::Constant(pos),
                                   ag::Constant(n2), ag::Constant(n1)},
                       MatrixList{c_pos, c2, c1}, 5.0)
                       ->value(0, 0);
  EXPECT_NEAR(a, b, 1e-12);
}

// Loss is always positive and bounded by log(k+1) plus the weighted score
// range (coarse sanity envelope).
TEST_P(GroupLossPropertyTest, LossWithinEnvelope) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 160);
  const size_t batch = 5, dim = 4, k = 3;
  const double eta = 1.0 + rng.Uniform() * 10.0;
  Matrix anchor = RandomNormal(batch, dim, &rng);
  ag::VarList candidates;
  MatrixList conf;
  for (size_t s = 0; s <= k; ++s) {
    candidates.push_back(ag::Constant(RandomNormal(batch, dim, &rng)));
    Matrix c(batch, 1);
    for (size_t b = 0; b < batch; ++b) c(b, 0) = 0.5 + 0.5 * rng.Uniform();
    conf.push_back(c);
  }
  const double loss =
      core::GroupNllLoss(ag::Constant(anchor), candidates, conf, eta)
          ->value(0, 0);
  EXPECT_GT(loss, 0.0);
  // Cosines lie in [-1,1] and δ in [0,1]: scores span at most 2η, so
  // NLL ≤ log(k+1) + 2η.
  EXPECT_LT(loss, std::log(static_cast<double>(k + 1)) + 2.0 * eta + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGeometry, GroupLossPropertyTest,
                         ::testing::Range(0, 8));

// ------------------------------------------------- Group sampler coverage

class GroupSamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GroupSamplerPropertyTest, InvariantsHoldAcrossShapes) {
  const int k = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed));
  const size_t n = 30 + rng.UniformInt(40u);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(0.6);
  core::GroupSampler sampler(
      labels, {.negatives_per_group = static_cast<size_t>(k)});
  auto groups = sampler.Sample(64, &rng);
  if (sampler.num_positives() < 2 ||
      sampler.num_negatives() < static_cast<size_t>(k)) {
    EXPECT_FALSE(groups.ok());
    return;
  }
  ASSERT_TRUE(groups.ok());
  for (const core::Group& g : *groups) {
    EXPECT_NE(g.anchor, g.positive);
    EXPECT_EQ(labels[g.anchor], 1);
    EXPECT_EQ(labels[g.positive], 1);
    EXPECT_EQ(g.negatives.size(), static_cast<size_t>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KTimesSeeds, GroupSamplerPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Range(0, 4)));

// -------------------------------------------- Autograd random-shape sweep

class AutogradShapePropertyTest : public ::testing::TestWithParam<int> {};

// A randomly assembled expression of supported ops must pass gradcheck.
TEST_P(AutogradShapePropertyTest, RandomCompositeGradCheck) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const size_t r = 2 + rng.UniformInt(4u);
  const size_t c = 2 + rng.UniformInt(4u);
  ag::Var a = ag::Parameter(RandomNormal(r, c, &rng));
  ag::Var b = ag::Parameter(RandomNormal(r, c, &rng));
  ag::Var w = ag::Parameter(RandomNormal(c, c, &rng, 0.0, 0.5));
  ag::Var bias = ag::Parameter(RandomNormal(1, c, &rng, 0.0, 0.5));
  auto forward = [&] {
    ag::Var h = ag::Dense(ag::Add(a, ag::Scale(b, 0.5)), w, bias,
                          Activation::kTanh);
    h = ag::Mul(h, ag::Dense(b, w, bias, Activation::kSigmoid));
    ag::Var cos = ag::RowCosine(h, a);
    return ag::Mean(ag::Square(cos));
  };
  auto result = ag::CheckGradients({a, b, w, bias}, forward);
  EXPECT_LT(result.max_relative_error, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AutogradShapePropertyTest,
                         ::testing::Range(0, 10));

// ------------------------------------------- Aggregator safety properties

class IwmvPropertyTest : public ::testing::TestWithParam<int> {};

// IWMV must never be substantially worse than plain majority vote across
// pool compositions (its fixed point at uniform weights IS majority vote).
TEST_P(IwmvPropertyTest, NeverMuchWorseThanMajorityVote) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 3);
  const size_t n = 300;
  data::Dataset d(Matrix(n, 1), [&] {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(0.5);
    return labels;
  }());
  // Pool quality varies per instantiation.
  const double base = 0.55 + 0.08 * (GetParam() % 5);
  std::vector<double> abilities(9);
  for (auto& a : abilities) a = base + rng.Uniform(0.0, 0.25);
  crowd::WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 5, &rng);

  crowd::MajorityVote mv;
  crowd::Iwmv iwmv;
  auto mv_result = mv.Run(d);
  auto iwmv_result = iwmv.Run(d);
  ASSERT_TRUE(mv_result.ok());
  ASSERT_TRUE(iwmv_result.ok());
  auto accuracy = [&d](const std::vector<int>& labels) {
    size_t correct = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      correct += (labels[i] == d.true_label(i));
    }
    return static_cast<double>(correct) / static_cast<double>(d.size());
  };
  EXPECT_GE(accuracy(iwmv_result->labels), accuracy(mv_result->labels) - 0.03);
}

INSTANTIATE_TEST_SUITE_P(PoolSweep, IwmvPropertyTest,
                         ::testing::Range(0, 6));

// -------------------------------------------- Adaptive-annotation budget

class AdaptiveBudgetPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdaptiveBudgetPropertyTest, SpendsWithinBudgetForAllShapes) {
  const int base = std::get<0>(GetParam());
  const int factor = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(base * 10 + factor));
  const size_t n = 80;
  data::Dataset d(Matrix(n, 1), [&] {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(0.6);
    return labels;
  }());
  crowd::WorkerPool pool({.num_workers = 12}, &rng);
  crowd::AdaptiveAnnotationOptions options;
  options.base_votes = static_cast<size_t>(base);
  options.total_budget = static_cast<size_t>(factor) * n;
  options.votes_per_round = 2;
  auto report = crowd::AnnotateAdaptively(&d, pool, options, &rng);
  if (options.total_budget < options.base_votes * n) {
    EXPECT_FALSE(report.ok());
    return;
  }
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->votes_spent, options.total_budget);
  // Histogram totals must equal the votes spent.
  size_t from_histogram = 0;
  for (size_t votes = 0; votes < report->votes_histogram.size(); ++votes) {
    from_histogram += votes * report->votes_histogram[votes];
  }
  EXPECT_EQ(from_histogram, report->votes_spent);
}

INSTANTIATE_TEST_SUITE_P(
    BudgetShapes, AdaptiveBudgetPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 3, 5)));

// ----------------------------------------------- Transcript rate contract

class TranscriptRatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TranscriptRatePropertyTest, EmissionRatesTrackProfile) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  text::SpeakerProfile profile;
  profile.filler_rate = 0.02 + 0.03 * (GetParam() % 5);
  profile.pause_rate = 0.05;
  profile.repetition_rate = 0.0;
  const text::Vocabulary& v = text::Vocabulary::Default();
  const text::Transcript t =
      text::GenerateTranscript(profile, v, 8000, &rng);
  size_t fillers = 0, pauses = 0;
  for (size_t tok : t.tokens) {
    fillers += (v.token_class(tok) == text::TokenClass::kFiller);
    pauses += (v.token_class(tok) == text::TokenClass::kPause);
  }
  const double n = static_cast<double>(t.size());
  EXPECT_NEAR(fillers / n, profile.filler_rate, 0.015);
  EXPECT_NEAR(pauses / n, profile.pause_rate, 0.015);
}

INSTANTIATE_TEST_SUITE_P(RateSweep, TranscriptRatePropertyTest,
                         ::testing::Range(0, 5));

// ---------------------------------------------- Multiclass DS invariants

class MulticlassPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MulticlassPropertyTest, PosteriorsNormalizedAndRecoveryBeatsChance) {
  const int k = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed) * 17 + 1);
  const size_t n = 200;
  std::vector<size_t> classes(n);
  for (size_t i = 0; i < n; ++i) {
    classes[i] = static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(k)));
  }
  // Diagonal-dominant confusions of varied strength.
  std::vector<Matrix> confusions;
  for (int w = 0; w < 7; ++w) {
    const double acc = 0.6 + 0.3 * rng.Uniform();
    Matrix m(static_cast<size_t>(k), static_cast<size_t>(k),
             (1.0 - acc) / static_cast<double>(k - 1));
    for (int c = 0; c < k; ++c) {
      m(static_cast<size_t>(c), static_cast<size_t>(c)) = acc;
    }
    confusions.push_back(m);
  }
  const auto annotations = crowd::SimulateMulticlassVotes(
      classes, static_cast<size_t>(k), confusions, 5, &rng);
  auto result = crowd::MulticlassDawidSkene(annotations);
  ASSERT_TRUE(result.ok());
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (int c = 0; c < k; ++c) {
      const double p = result->posterior(i, static_cast<size_t>(c));
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    correct += (result->labels[i] == classes[i]);
  }
  // Far above the 1/k chance rate.
  EXPECT_GT(static_cast<double>(correct) / n, 1.5 / static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    ClassCounts, MulticlassPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Range(0, 3)));

// ------------------------------------------------ Synthetic data contract

class SyntheticPropertyTest : public ::testing::TestWithParam<int> {};

// The generator honours arbitrary sizes/ratios, not just the presets.
TEST_P(SyntheticPropertyTest, SizeAndRatioHonoured) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3);
  data::SyntheticConfig config;
  config.num_examples = 100 + 50 * static_cast<size_t>(GetParam());
  config.positive_fraction = 0.3 + 0.08 * (GetParam() % 5);
  data::Dataset d = GenerateSynthetic(config, &rng);
  EXPECT_EQ(d.size(), config.num_examples);
  EXPECT_NEAR(d.PositiveFraction(), config.positive_fraction,
              1.0 / static_cast<double>(config.num_examples) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyntheticPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace rll
