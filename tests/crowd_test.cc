// Tests for the crowdsourcing substrate: worker simulation, aggregators
// (majority vote / Dawid–Skene / GLAD) including planted-parameter
// recovery, confidence estimators (paper eqs. 1–2), and agreement stats.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "crowd/adaptive_annotation.h"
#include "crowd/agreement.h"
#include "crowd/collusion.h"
#include "crowd/confidence.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/iwmv.h"
#include "crowd/majority_vote.h"
#include "crowd/worker_pool.h"
#include "data/synthetic.h"

namespace rll::crowd {
namespace {

data::Dataset MakeLabeledData(size_t n, double pos_fraction, Rng* rng) {
  Matrix features(n, 2);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = rng->Bernoulli(pos_fraction);
  return data::Dataset(std::move(features), std::move(labels));
}

double LabelAccuracy(const std::vector<int>& inferred,
                     const data::Dataset& dataset) {
  size_t correct = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    correct += (inferred[i] == dataset.true_label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

// ------------------------------------------------------------- WorkerPool

TEST(WorkerPoolTest, DrawsRequestedWorkers) {
  Rng rng(1);
  WorkerPool pool({.num_workers = 12}, &rng);
  EXPECT_EQ(pool.num_workers(), 12u);
  for (size_t w = 0; w < 12; ++w) {
    EXPECT_GT(pool.sensitivity()[w], 0.0);
    EXPECT_LT(pool.sensitivity()[w], 1.0);
  }
}

TEST(WorkerPoolTest, AnnotateGivesRequestedVotes) {
  Rng rng(2);
  data::Dataset d = MakeLabeledData(50, 0.6, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  pool.Annotate(&d, 5, &rng);
  EXPECT_TRUE(d.FullyAnnotated());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.annotations(i).size(), 5u);
    // Distinct workers per example.
    std::set<size_t> workers;
    for (const data::Annotation& a : d.annotations(i)) {
      workers.insert(a.worker_id);
      EXPECT_LT(a.worker_id, 10u);
    }
    EXPECT_EQ(workers.size(), 5u);
  }
  EXPECT_EQ(pool.last_difficulties().size(), d.size());
}

TEST(WorkerPoolTest, PerfectWorkerAlwaysCorrectAtZeroDifficulty) {
  WorkerPool pool({1.0}, {1.0});
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    EXPECT_EQ(pool.Vote(0, 1, 0.0, &rng), 1);
    EXPECT_EQ(pool.Vote(0, 0, 0.0, &rng), 0);
  }
}

TEST(WorkerPoolTest, MaxDifficultyIsCoinFlip) {
  WorkerPool pool({1.0}, {1.0});
  Rng rng(4);
  int ones = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) ones += pool.Vote(0, 1, 1.0, &rng);
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.02);
}

TEST(WorkerPoolTest, VoteAccuracyMatchesAbility) {
  WorkerPool pool({0.8}, {0.8});
  Rng rng(5);
  int correct = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) correct += (pool.Vote(0, 1, 0.0, &rng) == 1);
  EXPECT_NEAR(static_cast<double>(correct) / trials, 0.8, 0.02);
}

TEST(WorkerPoolTest, AnnotationAccuracyDegradesWithWorseWorkers) {
  Rng rng(6);
  data::Dataset good_data = MakeLabeledData(300, 0.6, &rng);
  data::Dataset bad_data = good_data;
  WorkerPool good({.num_workers = 15,
                   .sensitivity_alpha = 18.0,
                   .sensitivity_beta = 2.0,
                   .specificity_alpha = 18.0,
                   .specificity_beta = 2.0},
                  &rng);
  WorkerPool bad({.num_workers = 15,
                  .sensitivity_alpha = 3.0,
                  .sensitivity_beta = 2.0,
                  .specificity_alpha = 3.0,
                  .specificity_beta = 2.0},
                 &rng);
  good.Annotate(&good_data, 5, &rng);
  bad.Annotate(&bad_data, 5, &rng);
  const auto good_stats = ComputeAgreement(good_data);
  const auto bad_stats = ComputeAgreement(bad_data);
  ASSERT_TRUE(good_stats.ok());
  ASSERT_TRUE(bad_stats.ok());
  EXPECT_GT(good_stats->majority_vote_accuracy,
            bad_stats->majority_vote_accuracy);
}

// ----------------------------------------------------------- MajorityVote

TEST(MajorityVoteTest, FailsWithoutAnnotations) {
  Rng rng(7);
  data::Dataset d = MakeLabeledData(10, 0.5, &rng);
  MajorityVote mv;
  EXPECT_EQ(mv.Run(d).status().code(), StatusCode::kFailedPrecondition);
}

TEST(MajorityVoteTest, ProbabilityIsVoteFraction) {
  Rng rng(8);
  data::Dataset d = MakeLabeledData(3, 0.5, &rng);
  d.AddAnnotation(0, {0, 1});
  d.AddAnnotation(0, {1, 1});
  d.AddAnnotation(0, {2, 0});
  d.AddAnnotation(1, {0, 0});
  d.AddAnnotation(2, {1, 1});
  MajorityVote mv;
  auto result = mv.Run(d);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->prob_positive[0], 2.0 / 3.0, 1e-12);
  EXPECT_EQ(result->labels[0], 1);
  EXPECT_EQ(result->labels[1], 0);
  EXPECT_EQ(result->labels[2], 1);
}

// ------------------------------------------------------------ Dawid–Skene

TEST(DawidSkeneTest, RecoversLabelsBetterThanMajorityVoteWithSpammers) {
  // 3 good workers + 5 near-random workers: MV suffers, DS should learn to
  // discount the spammers.
  Rng rng(9);
  data::Dataset d = MakeLabeledData(400, 0.5, &rng);
  std::vector<double> sens = {0.95, 0.95, 0.95, 0.52, 0.52, 0.52, 0.52, 0.52};
  WorkerPool pool(sens, sens);
  // Everyone votes on everything: d = 8.
  pool.Annotate(&d, 8, &rng);

  MajorityVote mv;
  DawidSkene ds;
  auto mv_result = mv.Run(d);
  auto ds_result = ds.Run(d);
  ASSERT_TRUE(mv_result.ok());
  ASSERT_TRUE(ds_result.ok());
  const double mv_acc = LabelAccuracy(mv_result->labels, d);
  const double ds_acc = LabelAccuracy(ds_result->labels, d);
  EXPECT_GT(ds_acc, mv_acc + 0.02);
  EXPECT_GT(ds_acc, 0.9);
}

TEST(DawidSkeneTest, WorkerQualityIdentifiesGoodWorkers) {
  Rng rng(10);
  data::Dataset d = MakeLabeledData(500, 0.5, &rng);
  std::vector<double> sens = {0.95, 0.6, 0.95, 0.6};
  WorkerPool pool(sens, sens);
  pool.Annotate(&d, 4, &rng);
  DawidSkene ds;
  auto result = ds.Run(d);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->worker_quality.size(), 4u);
  EXPECT_GT(result->worker_quality[0], result->worker_quality[1]);
  EXPECT_GT(result->worker_quality[2], result->worker_quality[3]);
}

TEST(DawidSkeneTest, ConvergesOnCleanData) {
  Rng rng(11);
  data::Dataset d = MakeLabeledData(100, 0.6, &rng);
  WorkerPool pool({0.97, 0.97, 0.97}, {0.97, 0.97, 0.97});
  pool.Annotate(&d, 3, &rng);
  DawidSkene ds;
  auto result = ds.Run(d);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GT(LabelAccuracy(result->labels, d), 0.95);
}

// ------------------------------------------------------------------ GLAD

TEST(GladTest, BeatsCoinFlipAndTracksMajorityOnEasyData) {
  Rng rng(12);
  data::Dataset d = MakeLabeledData(300, 0.6, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  pool.Annotate(&d, 5, &rng);
  Glad glad;
  auto result = glad.Run(d);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(LabelAccuracy(result->labels, d), 0.75);
  EXPECT_EQ(result->item_difficulty.size(), d.size());
}

TEST(GladTest, AbilityOrderingMatchesPlantedWorkers) {
  Rng rng(13);
  data::Dataset d = MakeLabeledData(600, 0.5, &rng);
  std::vector<double> sens = {0.95, 0.95, 0.55, 0.55, 0.75};
  WorkerPool pool(sens, sens);
  pool.Annotate(&d, 5, &rng);
  Glad glad;
  auto result = glad.Run(d);
  ASSERT_TRUE(result.ok());
  // Strong workers get higher α than weak ones.
  const auto& q = result->worker_quality;
  ASSERT_EQ(q.size(), 5u);
  EXPECT_GT(q[0], q[2]);
  EXPECT_GT(q[1], q[3]);
  EXPECT_GT((q[0] + q[1]) / 2.0, q[4]);
}

TEST(GladTest, ResistsSpammersBetterThanMajorityVote) {
  Rng rng(14);
  data::Dataset d = MakeLabeledData(400, 0.5, &rng);
  std::vector<double> sens = {0.95, 0.95, 0.95, 0.5, 0.5, 0.5, 0.5, 0.5};
  WorkerPool pool(sens, sens);
  pool.Annotate(&d, 8, &rng);
  MajorityVote mv;
  Glad glad;
  auto mv_result = mv.Run(d);
  auto glad_result = glad.Run(d);
  ASSERT_TRUE(mv_result.ok());
  ASSERT_TRUE(glad_result.ok());
  EXPECT_GE(LabelAccuracy(glad_result->labels, d),
            LabelAccuracy(mv_result->labels, d));
}

// ------------------------------------------------------------- Confidence

TEST(ConfidenceTest, MleMatchesEquationOne) {
  Rng rng(15);
  data::Dataset d = MakeLabeledData(1, 0.5, &rng);
  d.AddAnnotation(0, {0, 1});
  d.AddAnnotation(0, {1, 1});
  d.AddAnnotation(0, {2, 1});
  d.AddAnnotation(0, {3, 0});
  d.AddAnnotation(0, {4, 0});
  const auto p = LabelPositiveness(d, ConfidenceMode::kMle);
  EXPECT_NEAR(p[0], 3.0 / 5.0, 1e-12);  // eq. (1): Σy/d.
}

TEST(ConfidenceTest, BayesianMatchesEquationTwo) {
  Rng rng(16);
  data::Dataset d = MakeLabeledData(2, 0.5, &rng);
  // Example 0: 3/3 positive (majority 1); example 1: 0/3 (majority 0)
  // → class prior from majority votes = 0.5, so α = β = strength/2.
  for (size_t w = 0; w < 3; ++w) {
    d.AddAnnotation(0, {w, 1});
    d.AddAnnotation(1, {w, 0});
  }
  const double strength = 2.0;
  const auto [alpha, beta] = BetaPriorFromClassPrior(d, strength);
  EXPECT_NEAR(alpha, 1.0, 1e-12);
  EXPECT_NEAR(beta, 1.0, 1e-12);
  const auto p = LabelPositiveness(d, ConfidenceMode::kBayesian, strength);
  EXPECT_NEAR(p[0], (1.0 + 3.0) / (2.0 + 3.0), 1e-12);  // eq. (2).
  EXPECT_NEAR(p[1], (1.0 + 0.0) / (2.0 + 3.0), 1e-12);
}

TEST(ConfidenceTest, BayesianShrinksTowardPrior) {
  Rng rng(17);
  data::Dataset d = MakeLabeledData(2, 0.5, &rng);
  for (size_t w = 0; w < 3; ++w) {
    d.AddAnnotation(0, {w, 1});
    d.AddAnnotation(1, {w, 0});
  }
  const auto mle = LabelPositiveness(d, ConfidenceMode::kMle);
  const auto bayes = LabelPositiveness(d, ConfidenceMode::kBayesian, 2.0);
  // Unanimous 3-0 votes: MLE says 1.0 / 0.0; Bayesian pulls toward 0.5.
  EXPECT_LT(bayes[0], mle[0]);
  EXPECT_GT(bayes[1], mle[1]);
}

TEST(ConfidenceTest, NoneModeGivesUnitConfidence) {
  Rng rng(18);
  data::Dataset d = MakeLabeledData(3, 0.5, &rng);
  for (size_t i = 0; i < 3; ++i) d.AddAnnotation(i, {0, 1});
  const auto conf =
      LabelConfidence(d, {1, 1, 1}, ConfidenceMode::kNone);
  for (double c : conf) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(ConfidenceTest, ConfidenceReflectsAssignedLabel) {
  Rng rng(19);
  data::Dataset d = MakeLabeledData(1, 0.5, &rng);
  for (size_t w = 0; w < 4; ++w) d.AddAnnotation(0, {w, 1});
  d.AddAnnotation(0, {4, 0});  // 4-of-5 positive.
  const auto conf_pos = LabelConfidence(d, {1}, ConfidenceMode::kMle);
  const auto conf_neg = LabelConfidence(d, {0}, ConfidenceMode::kMle);
  EXPECT_NEAR(conf_pos[0], 0.8, 1e-12);
  EXPECT_NEAR(conf_neg[0], 0.2, 1e-12);
}

// ------------------------------------------------------------------- IWMV

TEST(IwmvTest, MatchesMajorityVoteOnHomogeneousWorkers) {
  Rng rng(24);
  data::Dataset d = MakeLabeledData(300, 0.6, &rng);
  crowd::WorkerPool pool(std::vector<double>(7, 0.8),
                         std::vector<double>(7, 0.8));
  pool.Annotate(&d, 5, &rng);
  Iwmv iwmv;
  MajorityVote mv;
  auto iw = iwmv.Run(d);
  auto mj = mv.Run(d);
  ASSERT_TRUE(iw.ok());
  ASSERT_TRUE(mj.ok());
  // With equally-able workers, reweighting shouldn't change much.
  size_t disagreements = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    disagreements += (iw->labels[i] != mj->labels[i]);
  }
  EXPECT_LT(disagreements, d.size() / 10);
}

TEST(IwmvTest, OutperformsMajorityVoteWithSpammers) {
  Rng rng(25);
  data::Dataset d = MakeLabeledData(400, 0.5, &rng);
  std::vector<double> abilities = {0.95, 0.95, 0.95, 0.52, 0.52,
                                   0.52, 0.52, 0.52};
  WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 8, &rng);
  Iwmv iwmv;
  MajorityVote mv;
  auto iw = iwmv.Run(d);
  auto mj = mv.Run(d);
  ASSERT_TRUE(iw.ok());
  ASSERT_TRUE(mj.ok());
  EXPECT_GT(LabelAccuracy(iw->labels, d), LabelAccuracy(mj->labels, d));
}

TEST(IwmvTest, WeightsRankWorkersByAbility) {
  Rng rng(26);
  data::Dataset d = MakeLabeledData(500, 0.5, &rng);
  std::vector<double> abilities = {0.95, 0.6, 0.95, 0.6};
  WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 4, &rng);
  Iwmv iwmv;
  auto result = iwmv.Run(d);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->worker_quality[0], result->worker_quality[1]);
  EXPECT_GT(result->worker_quality[2], result->worker_quality[3]);
}

TEST(IwmvTest, ConvergesAndReportsIterations) {
  Rng rng(27);
  data::Dataset d = MakeLabeledData(100, 0.5, &rng);
  WorkerPool pool({.num_workers = 8}, &rng);
  pool.Annotate(&d, 5, &rng);
  Iwmv iwmv;
  auto result = iwmv.Run(d);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GE(result->iterations, 1);
}

// ----------------------------------------------------- Worker-aware delta

TEST(ConfidenceTest, WorkerAwareUsesReliability) {
  // Two items with the SAME vote pattern (one yes from a reliable worker +
  // one no from a spammer vs the reverse) get different worker-aware
  // positiveness but identical MLE positiveness.
  Rng rng(28);
  data::Dataset d = MakeLabeledData(200, 0.5, &rng);
  std::vector<double> abilities = {0.95, 0.95, 0.95, 0.52, 0.52, 0.52};
  WorkerPool pool(abilities, abilities);
  pool.Annotate(&d, 6, &rng);
  const auto mle = LabelPositiveness(d, ConfidenceMode::kMle);
  const auto aware = LabelPositiveness(d, ConfidenceMode::kWorkerAware);
  ASSERT_EQ(aware.size(), d.size());
  // Worker-aware posteriors should track ground truth better than raw
  // vote fractions.
  size_t mle_correct = 0, aware_correct = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    mle_correct += ((mle[i] >= 0.5) == (d.true_label(i) == 1));
    aware_correct += ((aware[i] >= 0.5) == (d.true_label(i) == 1));
  }
  EXPECT_GE(aware_correct, mle_correct);
}

TEST(ConfidenceTest, WorkerAwareModeHasName) {
  EXPECT_STREQ(ConfidenceModeName(ConfidenceMode::kWorkerAware),
               "WorkerAware");
}

// ---------------------------------------------------- Adaptive annotation

TEST(AdaptiveAnnotationTest, RespectsBudgetAndBaseRound) {
  Rng rng(29);
  data::Dataset d = MakeLabeledData(100, 0.6, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  AdaptiveAnnotationOptions options;
  options.base_votes = 1;
  options.total_budget = 250;
  options.votes_per_round = 2;
  auto report = AnnotateAdaptively(&d, pool, options, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->votes_spent, options.total_budget);
  EXPECT_GE(report->votes_spent, d.size());  // Base round covered.
  size_t total_annotations = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d.annotations(i).size(), 1u);
    total_annotations += d.annotations(i).size();
  }
  EXPECT_EQ(total_annotations, report->votes_spent);
}

TEST(AdaptiveAnnotationTest, ExtraVotesGoToUncertainItems) {
  Rng rng(30);
  data::Dataset d = MakeLabeledData(200, 0.5, &rng);
  WorkerPool pool({.num_workers = 15}, &rng);
  AdaptiveAnnotationOptions options;
  options.base_votes = 3;
  options.total_budget = 4 * d.size();
  auto report = AnnotateAdaptively(&d, pool, options, &rng);
  ASSERT_TRUE(report.ok());
  // Items that stayed at the base allocation should be the unanimous
  // ones; items that got extra votes should include split votes.
  size_t boosted = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (d.annotations(i).size() > options.base_votes) ++boosted;
  }
  EXPECT_GT(boosted, 0u);
  EXPECT_LT(boosted, d.size());  // Allocation is selective, not uniform.
}

TEST(AdaptiveAnnotationTest, BeatsUniformAtSameBudgetOnRecovery) {
  // Averaged over seeds; the advantage is the whole point of the module.
  double adaptive_total = 0.0, uniform_total = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(31 + seed);
    data::Dataset uniform_d = MakeLabeledData(300, 0.6, &rng);
    data::Dataset adaptive_d = uniform_d;
    WorkerPool pool({.num_workers = 15}, &rng);

    pool.Annotate(&uniform_d, 3, &rng);
    AdaptiveAnnotationOptions options;
    options.base_votes = 1;
    options.total_budget = 3 * adaptive_d.size();
    ASSERT_TRUE(AnnotateAdaptively(&adaptive_d, pool, options, &rng).ok());

    auto recovery = [](const data::Dataset& d) {
      size_t correct = 0;
      for (size_t i = 0; i < d.size(); ++i) {
        correct += (d.MajorityVote(i) == d.true_label(i));
      }
      return static_cast<double>(correct) / static_cast<double>(d.size());
    };
    uniform_total += recovery(uniform_d);
    adaptive_total += recovery(adaptive_d);
  }
  EXPECT_GT(adaptive_total, uniform_total - 0.01);
}

TEST(AdaptiveAnnotationTest, RejectsInsufficientBudget) {
  Rng rng(32);
  data::Dataset d = MakeLabeledData(50, 0.5, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  AdaptiveAnnotationOptions options;
  options.base_votes = 2;
  options.total_budget = 50;  // Needs 100 for the base round.
  EXPECT_EQ(AnnotateAdaptively(&d, pool, options, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdaptiveAnnotationTest, CapsAtWorkerPoolSize) {
  Rng rng(33);
  data::Dataset d = MakeLabeledData(5, 0.5, &rng);
  WorkerPool pool({.num_workers = 4}, &rng);
  AdaptiveAnnotationOptions options;
  options.base_votes = 1;
  options.total_budget = 1000;  // Far more than 5 items × 4 workers.
  auto report = AnnotateAdaptively(&d, pool, options, &rng);
  ASSERT_TRUE(report.ok());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_LE(d.annotations(i).size(), 4u);
  }
  EXPECT_LE(report->votes_spent, 20u);
}

// -------------------------------------------------------------- Collusion

TEST(CollusionTest, VoteCountsAndWorkerIdRanges) {
  Rng rng(34);
  data::Dataset d = MakeLabeledData(100, 0.5, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  crowd::CollusionOptions options;
  options.num_colluders = 4;
  ASSERT_TRUE(
      AnnotateWithCollusion(&d, pool, 3, options, 2, &rng).ok());
  for (size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(d.annotations(i).size(), 5u);
    size_t honest = 0, ring = 0;
    for (const data::Annotation& a : d.annotations(i)) {
      if (a.worker_id < 10) {
        ++honest;
      } else {
        EXPECT_LT(a.worker_id, 14u);
        ++ring;
      }
    }
    EXPECT_EQ(honest, 3u);
    EXPECT_EQ(ring, 2u);
  }
}

TEST(CollusionTest, PureHonestMatchesWorkerPoolBehaviour) {
  Rng rng(35);
  data::Dataset d = MakeLabeledData(200, 0.6, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  ASSERT_TRUE(AnnotateWithCollusion(&d, pool, 5, {}, 0, &rng).ok());
  // All ids honest, reasonable majority-vote accuracy.
  auto stats = ComputeAgreement(d);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->majority_vote_accuracy, 0.6);
  EXPECT_EQ(d.NumWorkers(), 10u);
}

TEST(CollusionTest, ColludersVoteInLockstep) {
  Rng rng(36);
  data::Dataset d = MakeLabeledData(400, 0.5, &rng);
  WorkerPool pool({.num_workers = 10}, &rng);
  crowd::CollusionOptions options;
  options.num_colluders = 3;
  options.follow_probability = 1.0;  // Perfect lockstep.
  ASSERT_TRUE(
      AnnotateWithCollusion(&d, pool, 2, options, 3, &rng).ok());
  // On every item, the three ring votes must be identical.
  for (size_t i = 0; i < d.size(); ++i) {
    int ring_vote = -1;
    for (const data::Annotation& a : d.annotations(i)) {
      if (a.worker_id >= 10) {
        if (ring_vote == -1) {
          ring_vote = a.label;
        } else {
          ASSERT_EQ(a.label, ring_vote) << "item " << i;
        }
      }
    }
  }
}

TEST(CollusionTest, RingDegradesMajorityVote) {
  Rng rng(37);
  data::Dataset clean = MakeLabeledData(400, 0.5, &rng);
  data::Dataset rigged = clean;
  WorkerPool pool({.num_workers = 15}, &rng);
  ASSERT_TRUE(AnnotateWithCollusion(&clean, pool, 5, {}, 0, &rng).ok());
  crowd::CollusionOptions options;
  options.num_colluders = 3;
  options.leader_accuracy = 0.5;
  ASSERT_TRUE(
      AnnotateWithCollusion(&rigged, pool, 2, options, 3, &rng).ok());
  auto clean_stats = ComputeAgreement(clean);
  auto rigged_stats = ComputeAgreement(rigged);
  ASSERT_TRUE(clean_stats.ok());
  ASSERT_TRUE(rigged_stats.ok());
  EXPECT_GT(clean_stats->majority_vote_accuracy,
            rigged_stats->majority_vote_accuracy + 0.05);
}

TEST(CollusionTest, RejectsBadArguments) {
  Rng rng(38);
  data::Dataset d = MakeLabeledData(10, 0.5, &rng);
  WorkerPool pool({.num_workers = 4}, &rng);
  EXPECT_FALSE(AnnotateWithCollusion(&d, pool, 5, {}, 0, &rng).ok());
  crowd::CollusionOptions options;
  options.num_colluders = 2;
  EXPECT_FALSE(AnnotateWithCollusion(&d, pool, 2, options, 3, &rng).ok());
  EXPECT_FALSE(AnnotateWithCollusion(&d, pool, 0, options, 0, &rng).ok());
}

// -------------------------------------------------------------- Agreement

TEST(AgreementTest, PerfectAgreement) {
  Rng rng(20);
  data::Dataset d = MakeLabeledData(20, 0.5, &rng);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t w = 0; w < 5; ++w) {
      d.AddAnnotation(i, {w, d.true_label(i)});
    }
  }
  auto stats = ComputeAgreement(d);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->observed_agreement, 1.0);
  EXPECT_DOUBLE_EQ(stats->majority_vote_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(stats->unanimous_fraction, 1.0);
  EXPECT_GT(stats->fleiss_kappa, 0.99);
}

TEST(AgreementTest, RandomVotesHaveLowKappa) {
  Rng rng(21);
  data::Dataset d = MakeLabeledData(400, 0.5, &rng);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t w = 0; w < 5; ++w) {
      d.AddAnnotation(i, {w, rng.Bernoulli(0.5) ? 1 : 0});
    }
  }
  auto stats = ComputeAgreement(d);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->fleiss_kappa, 0.0, 0.05);
}

TEST(AgreementTest, HistogramCountsVoteSplits) {
  Rng rng(22);
  data::Dataset d = MakeLabeledData(2, 0.5, &rng);
  for (size_t w = 0; w < 3; ++w) d.AddAnnotation(0, {w, 1});
  d.AddAnnotation(1, {0, 1});
  d.AddAnnotation(1, {1, 0});
  d.AddAnnotation(1, {2, 0});
  auto stats = ComputeAgreement(d);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->vote_histogram.size(), 4u);
  EXPECT_EQ(stats->vote_histogram[3], 1u);  // Example 0: 3 positives.
  EXPECT_EQ(stats->vote_histogram[1], 1u);  // Example 1: 1 positive.
}

TEST(AgreementTest, RequiresFixedVoteCount) {
  Rng rng(23);
  data::Dataset d = MakeLabeledData(2, 0.5, &rng);
  d.AddAnnotation(0, {0, 1});
  d.AddAnnotation(0, {1, 1});
  d.AddAnnotation(1, {0, 1});  // Only one vote.
  EXPECT_FALSE(ComputeAgreement(d).ok());
}

}  // namespace
}  // namespace rll::crowd
