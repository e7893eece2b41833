// Tests for the classic-ML layer: metrics against hand-computed values and
// logistic regression behaviour (convergence, soft targets, weights,
// input validation).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "classify/pca.h"
#include "classify/ranking_metrics.h"
#include "common/rng.h"
#include "kernel_isa_expect.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll::classify {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, ConfusionHandValues) {
  //            truth:  1  1  0  0  1  0
  //            pred:   1  0  1  0  1  0
  const std::vector<int> truth = {1, 1, 0, 0, 1, 0};
  const std::vector<int> pred = {1, 0, 1, 0, 1, 0};
  const ConfusionMatrix cm = Confusion(truth, pred);
  EXPECT_EQ(cm.tp, 2u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_DOUBLE_EQ(Accuracy(cm), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(Precision(cm), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Recall(cm), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(F1(cm), 2.0 / 3.0);
}

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<int> y = {1, 0, 1, 1, 0};
  const EvalMetrics m = Evaluate(y, y);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(MetricsTest, DegenerateCasesReturnZeroNotNan) {
  // No positive predictions → precision undefined → 0.
  const ConfusionMatrix cm = Confusion({1, 1}, {0, 0});
  EXPECT_DOUBLE_EQ(Precision(cm), 0.0);
  EXPECT_DOUBLE_EQ(F1(cm), 0.0);
  // No positives in truth → recall undefined → 0.
  const ConfusionMatrix cm2 = Confusion({0, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(Recall(cm2), 0.0);
  EXPECT_FALSE(std::isnan(F1(cm2)));
}

TEST(MetricsTest, F1IsHarmonicMean) {
  // tp=1, fp=1 → p=0.5; tp=1, fn=3 → r=0.25; F1 = 2pr/(p+r) = 1/3.
  ConfusionMatrix cm;
  cm.tp = 1;
  cm.fp = 1;
  cm.fn = 3;
  EXPECT_NEAR(F1(cm), 1.0 / 3.0, 1e-12);
}

TEST(MetricsTest, MeanAndStdAcrossFolds) {
  std::vector<EvalMetrics> folds(2);
  folds[0].accuracy = 0.8;
  folds[1].accuracy = 0.9;
  folds[0].f1 = 0.7;
  folds[1].f1 = 0.7;
  const EvalMetrics mean = MeanMetrics(folds);
  EXPECT_NEAR(mean.accuracy, 0.85, 1e-12);
  EXPECT_NEAR(mean.f1, 0.7, 1e-12);
  const EvalMetrics sd = StdDevMetrics(folds);
  EXPECT_NEAR(sd.accuracy, std::sqrt(0.005 / 1.0 * 1.0), 1e-9);
  EXPECT_NEAR(sd.f1, 0.0, 1e-12);
}

TEST(MetricsTest, ToStringFormatsAllFields) {
  EvalMetrics m;
  m.accuracy = 0.888;
  m.f1 = 0.915;
  const std::string s = ToString(m);
  EXPECT_NE(s.find("0.888"), std::string::npos);
  EXPECT_NE(s.find("0.915"), std::string::npos);
}

// ---------------------------------------------------- LogisticRegression

Matrix SeparableData(std::vector<int>* labels, Rng* rng, size_t n = 200) {
  Matrix x(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int y = rng->Bernoulli(0.5) ? 1 : 0;
    (*labels)[i] = y;
    x(i, 0) = rng->Normal(y == 1 ? 2.0 : -2.0, 0.5);
    x(i, 1) = rng->Normal(0.0, 1.0);
  }
  return x;
}

TEST(LogisticRegressionTest, SeparatesLinearlySeparableData) {
  Rng rng(1);
  std::vector<int> labels;
  Matrix x = SeparableData(&labels, &rng);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, labels).ok());
  const std::vector<int> pred = lr.Predict(x);
  EXPECT_GT(Evaluate(labels, pred).accuracy, 0.97);
}

TEST(LogisticRegressionTest, ProbabilitiesAreCalibratedDirectionally) {
  Rng rng(2);
  std::vector<int> labels;
  Matrix x = SeparableData(&labels, &rng);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, labels).ok());
  Matrix probe = {{3.0, 0.0}, {-3.0, 0.0}};
  const std::vector<double> p = lr.PredictProba(probe);
  EXPECT_GT(p[0], 0.9);
  EXPECT_LT(p[1], 0.1);
}

TEST(LogisticRegressionTest, SoftTargetsShiftDecision) {
  // Same feature, target 0.9 vs 0.1 → predicted prob near the target.
  Matrix x(100, 1, 1.0);
  std::vector<double> targets(100, 0.9);
  LogisticRegression lr({.learning_rate = 0.5, .max_epochs = 2000, .l2 = 0.0});
  ASSERT_TRUE(lr.Fit(x, targets).ok());
  EXPECT_NEAR(lr.PredictProba(x)[0], 0.9, 0.02);
}

TEST(LogisticRegressionTest, SampleWeightsTiltTheFit) {
  // Conflicting labels on the same point; weights decide the majority.
  Matrix x(4, 1, 1.0);
  const std::vector<int> labels = {1, 1, 0, 0};
  const std::vector<double> weights = {5.0, 5.0, 1.0, 1.0};
  LogisticRegression lr({.learning_rate = 0.5, .max_epochs = 2000, .l2 = 0.0});
  ASSERT_TRUE(lr.Fit(x, labels, weights).ok());
  EXPECT_GT(lr.PredictProba(x)[0], 0.5);
}

TEST(LogisticRegressionTest, RejectsBadInputs) {
  LogisticRegression lr;
  Matrix x(3, 2);
  EXPECT_FALSE(lr.Fit(Matrix(), std::vector<int>{}).ok());
  EXPECT_FALSE(lr.Fit(x, std::vector<int>{1, 0}).ok());        // Size mismatch.
  EXPECT_FALSE(lr.Fit(x, std::vector<int>{1, 0, 2}).ok());     // Bad label.
  EXPECT_FALSE(
      lr.Fit(x, std::vector<double>{0.5, 1.5, 0.0}).ok());     // Target > 1.
  EXPECT_FALSE(lr.Fit(x, std::vector<int>{1, 0, 1},
                      std::vector<double>{1.0, -1.0, 1.0})
                   .ok());                                     // Negative w.
  EXPECT_FALSE(lr.Fit(x, std::vector<int>{1, 0, 1},
                      std::vector<double>{0.0, 0.0, 0.0})
                   .ok());                                     // All-zero w.
}

TEST(LogisticRegressionTest, PredictBeforeFitDies) {
  LogisticRegression lr;
  Matrix x(1, 1, 0.0);
  EXPECT_DEATH(lr.Predict(x), "before Fit");
}

TEST(LogisticRegressionTest, L2ShrinksWeights) {
  Rng rng(3);
  std::vector<int> labels;
  Matrix x = SeparableData(&labels, &rng);
  LogisticRegression weak({.l2 = 1e-4});
  LogisticRegression strong({.l2 = 1.0});
  ASSERT_TRUE(weak.Fit(x, labels).ok());
  ASSERT_TRUE(strong.Fit(x, labels).ok());
  EXPECT_LT(std::fabs(strong.weights()(0, 0)),
            std::fabs(weak.weights()(0, 0)));
}

TEST(LogisticRegressionTest, HandlesClassImbalanceGracefully) {
  Rng rng(4);
  const size_t n = 300;
  Matrix x(n, 1);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const int y = i < 270 ? 1 : 0;  // 90% positive.
    labels[i] = y;
    x(i, 0) = rng.Normal(y == 1 ? 1.0 : -1.0, 0.6);
  }
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, labels).ok());
  EXPECT_GT(Evaluate(labels, lr.Predict(x)).accuracy, 0.9);
}

TEST(LogisticRegressionTest, RejectsNonFiniteDesignMatrix) {
  // A non-finite feature would run every epoch into NaN weights; Fit
  // refuses it before the first one and stays unfitted.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix x(8, 2, 0.5);
    x(5, 1) = bad;
    const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
    LogisticRegression lr;
    const Status status = lr.Fit(x, labels);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(lr.fitted()) << bad;
  }
}

// The masked reruns in tests/CMakeLists.txt hold the logistic kernels to
// a narrower level; each run must be at the level its mask allows.
TEST(LogisticRegressionTest, RunsTheWidestKernelLevelAllowed) {
  EXPECT_EQ(std::string(KernelIsa()), ExpectedKernelIsa());
}

// The head's contract, one row and one term at a time, with no vectors:
// the bitwise reference for the logistic kernels (tensor/kernels.inc) at
// every level. A row scores z = b + (((P0+P1)+(P2+P3)) + ((P4+P5)+(P6+P7)))
// with P_l the sum of x_j·w_j over j ≡ l (mod 8) ascending from +0, and
// σ(z) comes from the Cody–Waite/Padé e^−|z| below; each gradient element
// and the error sum run over rows ascending from +0. Finite inputs only.
class OneRowLoopFit {
 public:
  explicit OneRowLoopFit(LogisticRegressionOptions options)
      : options_(options) {}

  // Returns the number of epochs run.
  int Fit(const Matrix& x, const std::vector<double>& targets,
          const std::vector<double>& w) {
    const size_t n = x.rows();
    const size_t dim = x.cols();
    double wsum = 0.0;
    for (double v : w) wsum += v;
    weights_ = Matrix(dim, 1);
    bias_ = 0.0;
    Matrix vel_w(dim, 1);
    double vel_b = 0.0;

    int epochs_run = 0;
    for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
      epochs_run = epoch + 1;
      // Gradient of the weighted mean cross-entropy + L2.
      Matrix grad_w(dim, 1);
      double grad_b = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double* row = x.row_data(i);
        const double err =
            (Sigmoid(Score(row, dim)) - targets[i]) * w[i] / wsum;
        for (size_t j = 0; j < dim; ++j) grad_w(j, 0) += err * row[j];
        grad_b += err;
      }
      double max_grad = std::fabs(grad_b);
      for (size_t j = 0; j < dim; ++j) {
        grad_w(j, 0) += options_.l2 * weights_(j, 0);
        max_grad = std::max(max_grad, std::fabs(grad_w(j, 0)));
      }
      for (size_t j = 0; j < dim; ++j) {
        vel_w(j, 0) = options_.momentum * vel_w(j, 0) - options_.learning_rate * grad_w(j, 0);
        weights_(j, 0) += vel_w(j, 0);
      }
      vel_b = options_.momentum * vel_b - options_.learning_rate * grad_b;
      bias_ += vel_b;
      if (max_grad < options_.tolerance) break;
    }
    return epochs_run;
  }

  std::vector<double> PredictProba(const Matrix& x) const {
    std::vector<double> p(x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      p[i] = Sigmoid(Score(x.row_data(i), x.cols()));
    }
    return p;
  }

  const Matrix& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  double Score(const double* row, size_t dim) const {
    double part[8] = {};
    for (size_t j = 0; j < dim; ++j) part[j % 8] += row[j] * weights_(j, 0);
    return bias_ + (((part[0] + part[1]) + (part[2] + part[3])) +
                    ((part[4] + part[5]) + (part[6] + part[7])));
  }

  // σ(z) from e = e^−|z| = 2^n·(q + p)/(q − p): n = round(x·log2 e)
  // through the 1.5·2^52 shift, g = x − n·ln2 in two parts, p = g·P(g²),
  // q = Q(g²), 2^n applied as 2^⌊n/2⌋ then 2^(n−⌊n/2⌋), and e's division
  // folded into σ's: (q − p) or (q + p)·2^n over (q − p) + (q + p)·2^n.
  static double Sigmoid(double z) {
    const double x = std::max(-std::fabs(z), -746.0);
    const double shift = 0x1.8p52;
    const double t = x * 1.4426950408889634073599 + shift;
    const double n = t - shift;
    const double g =
        (x - n * 6.93145751953125e-1) - n * 1.42860682030941723212e-6;
    const double gg = g * g;
    double p = gg * 1.26177193074810590878e-4 + 3.02994407707441961300e-2;
    p = g * (p * gg + 9.99999999999999999910e-1);
    double q = gg * 3.00198505138664455042e-6 + 2.52448340349684104192e-3;
    q = q * gg + 2.27265548208155028766e-1;
    q = q * gg + 2.00000000000000000009e0;
    const int64_t k = static_cast<int64_t>(n);
    const int64_t k_low = k >> 1;
    const double e = (q + p) * std::bit_cast<double>((k_low + 1023) << 52) *
                     std::bit_cast<double>((k - k_low + 1023) << 52);
    const double den = q - p;
    return (z >= 0.0 ? den : e) / (den + e);
  }

  LogisticRegressionOptions options_;
  Matrix weights_;
  double bias_ = 0.0;
};

TEST(LogisticRegressionTest, FitMatchesOneRowLoopBitwise) {
  // Every tail length of the 8-, 4- and 2-row blocks, at the paper's
  // 32-dim embeddings and at an odd width that leaves a partial group of
  // eight columns; hard and soft targets, with and without sample weights;
  // and a loose tolerance that stops the fit early. PredictProba must give
  // the loop's bits too.
  Rng rng(9);
  const auto check = [&](size_t n, size_t dim, bool soft, bool weighted,
                         const LogisticRegressionOptions& options) -> int {
    const Matrix x = RandomNormal(n, dim, &rng);
    std::vector<double> targets(n);
    std::vector<double> w(n, 1.0);
    for (size_t i = 0; i < n; ++i) {
      const double p = 1.0 / (1.0 + std::exp(-2.0 * x(i, 0)));
      targets[i] = soft ? p : static_cast<double>(rng.Bernoulli(p));
      if (weighted) w[i] = rng.Uniform(0.1, 2.0);
    }
    OneRowLoopFit reference(options);
    const int epochs = reference.Fit(x, targets, w);
    LogisticRegression lr(options);
    EXPECT_TRUE(lr.Fit(x, targets, weighted ? w : std::vector<double>{}).ok());
    if (!lr.weights().SameShape(reference.weights())) {
      ADD_FAILURE() << "n=" << n << " dim=" << dim << ": weight shape";
      return epochs;
    }
    EXPECT_EQ(std::memcmp(lr.weights().data(), reference.weights().data(),
                          dim * sizeof(double)),
              0)
        << "n=" << n << " dim=" << dim << " soft=" << soft
        << " weighted=" << weighted;
    const double bias = lr.bias();
    const double reference_bias = reference.bias();
    EXPECT_EQ(std::memcmp(&bias, &reference_bias, sizeof(double)), 0)
        << "n=" << n << " dim=" << dim;
    const std::vector<double> proba = lr.PredictProba(x);
    const std::vector<double> reference_proba = reference.PredictProba(x);
    EXPECT_EQ(std::memcmp(proba.data(), reference_proba.data(),
                          n * sizeof(double)),
              0)
        << "n=" << n << " dim=" << dim << ": PredictProba";
    return epochs;
  };
  const LogisticRegressionOptions defaults;
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 704u, 705u}) {
    for (const size_t dim : {3u, 32u}) {
      check(n, dim, /*soft=*/false, /*weighted=*/false, defaults);
      check(n, dim, /*soft=*/true, /*weighted=*/true, defaults);
    }
  }
  LogisticRegressionOptions loose;
  loose.tolerance = 1e-2;
  for (const size_t n : {703u, 705u}) {
    EXPECT_LT(check(n, 32, /*soft=*/false, /*weighted=*/true, loose),
              loose.max_epochs);
  }
}

// -------------------------------------------------------------------- PCA

TEST(PcaTest, RecoversDominantDirection) {
  // Data varies along (1,1)/√2 with tiny orthogonal noise.
  Rng rng(5);
  Matrix x(300, 2);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double t = rng.Normal(0.0, 3.0);
    const double noise = rng.Normal(0.0, 0.05);
    x(i, 0) = t + noise;
    x(i, 1) = t - noise;
  }
  Pca pca({.num_components = 1});
  ASSERT_TRUE(pca.Fit(x).ok());
  const double c0 = pca.components()(0, 0);
  const double c1 = pca.components()(0, 1);
  EXPECT_NEAR(std::fabs(c0), std::sqrt(0.5), 0.02);
  EXPECT_NEAR(std::fabs(c1), std::sqrt(0.5), 0.02);
  EXPECT_GT(c0 * c1, 0.0);  // Same sign: the (1,1) direction.
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Rng rng(6);
  Matrix x = RandomNormal(100, 6, &rng);
  Pca pca({.num_components = 4});
  ASSERT_TRUE(pca.Fit(x).ok());
  const Matrix& c = pca.components();
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = a; b < 4; ++b) {
      double dot = 0.0;
      for (size_t j = 0; j < 6; ++j) dot += c(a, j) * c(b, j);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-6) << a << "," << b;
    }
  }
}

TEST(PcaTest, ExplainedVarianceDescendsAndMatchesData) {
  Rng rng(7);
  // Independent coordinates with variances 9, 4, 1.
  Matrix x(2000, 3);
  for (size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.Normal(0.0, 3.0);
    x(i, 1) = rng.Normal(0.0, 2.0);
    x(i, 2) = rng.Normal(0.0, 1.0);
  }
  Pca pca({.num_components = 3});
  ASSERT_TRUE(pca.Fit(x).ok());
  const auto& ev = pca.explained_variance();
  EXPECT_NEAR(ev[0], 9.0, 0.8);
  EXPECT_NEAR(ev[1], 4.0, 0.5);
  EXPECT_NEAR(ev[2], 1.0, 0.2);
  EXPECT_GE(ev[0], ev[1]);
  EXPECT_GE(ev[1], ev[2]);
}

TEST(PcaTest, TransformCentersAndProjects) {
  Matrix x = {{1, 10}, {3, 10}};  // Mean (2, 10); variance only in dim 0.
  Pca pca({.num_components = 1});
  ASSERT_TRUE(pca.Fit(x).ok());
  Matrix proj = pca.Transform(x);
  EXPECT_EQ(proj.rows(), 2u);
  EXPECT_EQ(proj.cols(), 1u);
  EXPECT_NEAR(proj(0, 0) + proj(1, 0), 0.0, 1e-9);  // Centered.
  EXPECT_NEAR(std::fabs(proj(0, 0)), 1.0, 1e-6);
}

TEST(PcaTest, RejectsBadConfig) {
  Matrix x(10, 3);
  EXPECT_FALSE(Pca({.num_components = 0}).Fit(x).ok());
  EXPECT_FALSE(Pca({.num_components = 4}).Fit(x).ok());
  EXPECT_FALSE(Pca({.num_components = 1}).Fit(Matrix(1, 3)).ok());
}

// ------------------------------------------------------- Ranking metrics

TEST(RankingMetricsTest, PerfectRankingGivesAucOne) {
  const std::vector<int> truth = {0, 0, 1, 1};
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(RocAuc(truth, scores), 1.0);
}

TEST(RankingMetricsTest, ReversedRankingGivesAucZero) {
  const std::vector<int> truth = {1, 1, 0, 0};
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(RocAuc(truth, scores), 0.0);
}

TEST(RankingMetricsTest, ConstantScoresGiveHalf) {
  const std::vector<int> truth = {1, 0, 1, 0};
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(RocAuc(truth, scores), 0.5);
}

TEST(RankingMetricsTest, SingleClassGivesHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({1, 1}, {0.2, 0.9}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0, 0}, {0.2, 0.9}), 0.5);
}

TEST(RankingMetricsTest, HandComputedAucWithTie) {
  // truth 1,0,1 scores 0.9, 0.5, 0.5 → pairs: (1:0.9 vs 0:0.5)=1,
  // (1:0.5 vs 0:0.5)=0.5 → AUC = 1.5/2.
  EXPECT_DOUBLE_EQ(RocAuc({1, 0, 1}, {0.9, 0.5, 0.5}), 0.75);
}

TEST(RankingMetricsTest, AucInvariantToMonotoneTransform) {
  Rng rng(10);
  std::vector<int> truth(50);
  std::vector<double> scores(50), squashed(50);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.Bernoulli(0.5);
    scores[i] = rng.Normal();
    squashed[i] = std::tanh(scores[i]);  // Strictly monotone.
  }
  EXPECT_NEAR(RocAuc(truth, scores), RocAuc(truth, squashed), 1e-12);
}

}  // namespace
}  // namespace rll::classify
