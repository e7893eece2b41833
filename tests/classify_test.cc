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
#include <vector>

#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "classify/pca.h"
#include "classify/ranking_metrics.h"
#include "common/rng.h"
#include "common/threading.h"
#include "kernel_isa_expect.h"
#include "obs/metrics.h"
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
  LogisticRegression lr({.l2 = 0.0});
  ASSERT_TRUE(lr.Fit(x, targets).ok());
  EXPECT_NEAR(lr.PredictProba(x)[0], 0.9, 0.02);
}

TEST(LogisticRegressionTest, SampleWeightsTiltTheFit) {
  // Conflicting labels on the same point; weights decide the majority.
  Matrix x(4, 1, 1.0);
  const std::vector<int> labels = {1, 1, 0, 0};
  const std::vector<double> weights = {5.0, 5.0, 1.0, 1.0};
  LogisticRegression lr({.l2 = 0.0});
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
// the bitwise reference for LogisticRegression::Fit and the logistic
// kernels (tensor/kernels.inc) at every level. A row scores
// z = b + (((P0+P1)+(P2+P3)) + ((P4+P5)+(P6+P7))) with P_l the sum of
// x_j·w_j over j ≡ l (mod 8) ascending from +0, and σ(z) comes from the
// Cody–Waite/Padé e^−|z| below; each gradient element and the error sum run
// over rows ascending from +0. The fit is Newton's method as
// logistic_regression.h states it: the Hessian summed over 256-row chunks
// in Gemm's order, its Cholesky factor with the shift rule, and the
// Armijo search on ½‖∇f‖². Finite inputs only.
class OneRowLoopFit {
 public:
  explicit OneRowLoopFit(LogisticRegressionOptions options)
      : options_(options) {}

  // ∇f at (w, b): the weights' entries, then the bias's.
  static std::vector<double> Gradient(const Matrix& x,
                                      const std::vector<double>& targets,
                                      const std::vector<double>& s,
                                      double l2, const Matrix& w, double b) {
    const size_t dim = x.cols();
    double wsum = 0.0;
    for (const double v : s) wsum += v;
    std::vector<double> g(dim + 1, 0.0);
    for (size_t i = 0; i < x.rows(); ++i) {
      const double* row = x.row_data(i);
      const double err =
          (Sigmoid(Score(row, dim, w, b)) - targets[i]) * s[i] / wsum;
      for (size_t j = 0; j < dim; ++j) g[j] += err * row[j];
      g[dim] += err;
    }
    for (size_t j = 0; j < dim; ++j) g[j] += l2 * w(j, 0);
    return g;
  }

  static double MaxAbs(const std::vector<double>& g) {
    double max = 0.0;
    for (const double v : g) max = std::max(max, std::fabs(v));
    return max;
  }

  // Why a fit stopped: below the tolerance, at the step cap, with no
  // shift that factors H, or with no α that passes the search.
  enum class Stop { kTolerance, kCap, kNoFactor, kNoStep };

  // Returns the number of Newton steps taken.
  int Fit(const Matrix& x, const std::vector<double>& targets,
          const std::vector<double>& s) {
    const size_t n = x.rows();
    const size_t dim = x.cols();
    const size_t m = dim + 1;
    double wsum = 0.0;
    for (const double v : s) wsum += v;
    weights_ = Matrix(dim, 1);
    bias_ = 0.0;
    std::vector<double> g = Gradient(x, targets, s, options_.l2, weights_, 0.0);
    int steps = 0;
    stop_ = Stop::kCap;
    while (!(MaxAbs(g) < options_.tolerance) &&
           steps < LogisticRegression::kMaxIterations) {
      // The rows of X̃ = [X 1] scaled by √D, D = p(1 − p)·s / Σs.
      Matrix scaled(n, m);
      for (size_t i = 0; i < n; ++i) {
        const double p = Sigmoid(Score(x.row_data(i), dim, weights_, bias_));
        const double root = std::sqrt(p * (1.0 - p) * s[i] / wsum);
        for (size_t j = 0; j < dim; ++j) scaled(i, j) = x(i, j) * root;
        scaled(i, dim) = root;
      }
      // H: each element summed over a chunk's rows ascending from +0, the
      // chunks' sums added in order, then l2 on the weights' diagonal.
      Matrix h(m, m);
      for (size_t c = 0; c < n; c += 256) {
        for (size_t a = 0; a < m; ++a) {
          for (size_t b = 0; b < m; ++b) {
            double sum = 0.0;
            for (size_t i = c; i < std::min(n, c + 256); ++i) {
              sum += scaled(i, a) * scaled(i, b);
            }
            h(a, b) += sum;
          }
        }
      }
      for (size_t j = 0; j < dim; ++j) h(j, j) += options_.l2;
      std::vector<double> step;
      if (!Solve(h, g, &step, &restarts_)) {
        stop_ = Stop::kNoFactor;
        return steps;
      }
      // Halve α from 1 until ‖∇f‖² falls by the Armijo fraction.
      bool stepped = false;
      double alpha = 1.0;
      for (int halving = 0; halving <= 30 && !stepped; ++halving) {
        Matrix trial_w(dim, 1);
        for (size_t j = 0; j < dim; ++j) {
          trial_w(j, 0) = weights_(j, 0) + alpha * step[j];
        }
        const double trial_b = bias_ + alpha * step[dim];
        std::vector<double> trial_g =
            Gradient(x, targets, s, options_.l2, trial_w, trial_b);
        if (SquaredNorm(trial_g) <=
            (1.0 - 2.0 * 1e-4 * alpha) * SquaredNorm(g)) {
          weights_ = trial_w;
          bias_ = trial_b;
          g = trial_g;
          stepped = true;
        } else {
          ++halvings_;
        }
        alpha *= 0.5;
      }
      if (!stepped) {
        stop_ = Stop::kNoStep;
        return steps;
      }
      ++steps;
    }
    if (MaxAbs(g) < options_.tolerance) stop_ = Stop::kTolerance;
    return steps;
  }

  std::vector<double> PredictProba(const Matrix& x) const {
    std::vector<double> p(x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      p[i] = Sigmoid(Score(x.row_data(i), x.cols(), weights_, bias_));
    }
    return p;
  }

  const Matrix& weights() const { return weights_; }
  double bias() const { return bias_; }
  Stop stop() const { return stop_; }
  // Shifted restarts of the factor and halvings of α, over every fit.
  int restarts() const { return restarts_; }
  int halvings() const { return halvings_; }

 private:
  static double Score(const double* row, size_t dim, const Matrix& w,
                      double b) {
    double part[8] = {};
    for (size_t j = 0; j < dim; ++j) part[j % 8] += row[j] * w(j, 0);
    return b + (((part[0] + part[1]) + (part[2] + part[3])) +
                ((part[4] + part[5]) + (part[6] + part[7])));
  }

  static double SquaredNorm(const std::vector<double>& g) {
    double sum = 0.0;
    for (const double v : g) sum += v * v;
    return sum;
  }

  // step = −(H + μI)⁻¹·g by Cholesky–Banachiewicz, row by row: μ = 0, and
  // after a pivot at or below 1e-10 of its diagonal entry, 1e-8·max Hjj,
  // then 100× more per restart, at most 8 restarts.
  static bool Solve(const Matrix& h, const std::vector<double>& g,
                    std::vector<double>* step, int* restarts) {
    const size_t m = h.rows();
    double scale = 0.0;
    for (size_t j = 0; j < m; ++j) scale = std::max(scale, h(j, j));
    double shift = 0.0;
    for (int restart = 0; restart <= 8; ++restart) {
      if (restart == 1) shift = 1e-8 * scale;
      if (restart > 1) shift *= 100.0;
      Matrix l(m, m);
      bool factored = true;
      for (size_t i = 0; i < m && factored; ++i) {
        for (size_t j = 0; j < i; ++j) {
          double v = h(i, j);
          for (size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
          l(i, j) = v / l(j, j);
        }
        const double diagonal = h(i, i) + shift;
        double pivot = diagonal;
        for (size_t k = 0; k < i; ++k) pivot -= l(i, k) * l(i, k);
        factored = pivot > 1e-10 * diagonal;
        l(i, i) = std::sqrt(pivot);
      }
      if (!factored) {
        ++*restarts;
        continue;
      }
      std::vector<double> y(m);
      for (size_t i = 0; i < m; ++i) {
        double v = -g[i];
        for (size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
        y[i] = v / l(i, i);
      }
      step->assign(m, 0.0);
      for (size_t i = m; i-- > 0;) {
        double v = y[i];
        for (size_t k = i + 1; k < m; ++k) v -= l(k, i) * (*step)[k];
        (*step)[i] = v / l(i, i);
      }
      return true;
    }
    return false;
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
  Stop stop_ = Stop::kTolerance;
  int restarts_ = 0;
  int halvings_ = 0;
};

// One fit's inputs. `weights` holds every sample weight (all 1 when
// unweighted); an unweighted fit passes the head no weights at all.
struct FitCase {
  Matrix x;
  std::vector<double> targets;
  std::vector<double> weights;
  bool weighted = false;
};

// Fits `lr` and the reference on `c` and expects OK, the same number of
// steps and the same bits in the weights, the bias and PredictProba.
// Returns the reference, for why it stopped and its fallbacks.
OneRowLoopFit ExpectSameFit(const FitCase& c,
                            const LogisticRegressionOptions& options,
                            LogisticRegression& lr) {
  const size_t n = c.x.rows();
  const size_t dim = c.x.cols();
  OneRowLoopFit reference(options);
  const int steps = reference.Fit(c.x, c.targets, c.weights);
  EXPECT_TRUE(lr.Fit(c.x, c.targets,
                     c.weighted ? c.weights : std::vector<double>{})
                  .ok());
  EXPECT_EQ(lr.iterations(), steps);
  if (!lr.weights().SameShape(reference.weights())) {
    ADD_FAILURE() << "weight shape";
    return reference;
  }
  EXPECT_EQ(std::memcmp(lr.weights().data(), reference.weights().data(),
                        dim * sizeof(double)),
            0)
      << "weights";
  const double bias = lr.bias();
  const double reference_bias = reference.bias();
  EXPECT_EQ(std::memcmp(&bias, &reference_bias, sizeof(double)), 0)
      << "bias";
  const std::vector<double> proba = lr.PredictProba(c.x);
  const std::vector<double> reference_proba = reference.PredictProba(c.x);
  EXPECT_EQ(std::memcmp(proba.data(), reference_proba.data(),
                        n * sizeof(double)),
            0)
      << "PredictProba";
  return reference;
}

TEST(LogisticRegressionTest, FitMatchesOneRowLoopBitwise) {
  // Every tail length of the 8-, 4- and 2-row blocks, at the paper's
  // 32-dim embeddings and at an odd width that leaves a partial group of
  // eight columns; hard and soft targets, with and without sample weights;
  // a loose tolerance that stops the fit early; l2 = 0 with a constant
  // column, whose singular Hessian takes the shift rule; and Cauchy
  // features under labels that ignore them, where some full Newton steps
  // raise ‖∇f‖ and the search halves α. The 704- and 705-row fits end on a
  // partial Hessian chunk. PredictProba must give the loop's bits too.
  // Every fit stops on its tolerance, below the cap: the gradient at the
  // returned head, recomputed one row at a time, is below it.
  enum class Design { kNormal, kConstantColumn, kCauchyNoise };
  Rng rng(9);
  const auto make = [&](size_t n, size_t dim, bool soft, bool weighted,
                        Design design = Design::kNormal) {
    FitCase c{RandomNormal(n, dim, &rng), std::vector<double>(n),
              std::vector<double>(n, 1.0), weighted};
    if (design == Design::kConstantColumn) {
      for (size_t i = 0; i < n; ++i) c.x(i, dim - 1) = 1.0;
    }
    if (design == Design::kCauchyNoise) {
      for (size_t i = 0; i < c.x.size(); ++i) c.x[i] /= rng.Normal();
    }
    for (size_t i = 0; i < n; ++i) {
      const double p = design == Design::kCauchyNoise
                           ? 0.5
                           : 1.0 / (1.0 + std::exp(-2.0 * c.x(i, 0)));
      c.targets[i] = soft ? p : static_cast<double>(rng.Bernoulli(p));
      if (weighted) c.weights[i] = rng.Uniform(0.1, 2.0);
    }
    return c;
  };
  int restarts = 0;
  int halvings = 0;
  const auto check = [&](const FitCase& c,
                         const LogisticRegressionOptions& options) -> int {
    SCOPED_TRACE(testing::Message()
                 << "n=" << c.x.rows() << " dim=" << c.x.cols()
                 << " weighted=" << c.weighted
                 << " tolerance=" << options.tolerance);
    LogisticRegression lr(options);
    const OneRowLoopFit reference = ExpectSameFit(c, options, lr);
    restarts += reference.restarts();
    halvings += reference.halvings();
    EXPECT_EQ(reference.stop(), OneRowLoopFit::Stop::kTolerance);
    EXPECT_LT(lr.iterations(), LogisticRegression::kMaxIterations);
    EXPECT_LT(OneRowLoopFit::MaxAbs(OneRowLoopFit::Gradient(
                  c.x, c.targets, c.weights, options.l2, lr.weights(),
                  lr.bias())),
              options.tolerance);
    return lr.iterations();
  };
  const LogisticRegressionOptions defaults;
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 704u, 705u}) {
    for (const size_t dim : {3u, 32u}) {
      check(make(n, dim, /*soft=*/false, /*weighted=*/false), defaults);
      check(make(n, dim, /*soft=*/true, /*weighted=*/true), defaults);
    }
  }
  // The same problem stops sooner at a looser tolerance.
  const LogisticRegressionOptions loose{.tolerance = 1e-2};
  for (const size_t n : {703u, 705u}) {
    const FitCase c = make(n, 32, /*soft=*/false, /*weighted=*/true);
    EXPECT_LT(check(c, loose), check(c, defaults)) << "n=" << n;
  }
  const LogisticRegressionOptions unpenalized{.l2 = 0.0};
  for (const size_t n : {9u, 705u}) {
    check(make(n, 3, /*soft=*/true, /*weighted=*/true,
               Design::kConstantColumn),
          unpenalized);
  }
  for (int repeat = 0; repeat < 12; ++repeat) {
    check(make(17, 8, /*soft=*/false, /*weighted=*/false,
               Design::kCauchyNoise),
          defaults);
  }
  // The cases reach both fallbacks of the contract.
  EXPECT_GT(restarts, 0);
  EXPECT_GT(halvings, 0);
}

TEST(LogisticRegressionTest, StopsAboveTheToleranceAndCountsIt) {
  // Each of the fit's three stops above its tolerance returns OK with the
  // reference's bits, adds one to rll_logreg_unconverged_total and puts
  // its steps in rll_logreg_iterations:
  //  * the cap: features x·e^{4·N(0,1)} under random labels, so badly
  //    scaled that the search crawls at small α for all its steps;
  //  * no step: tolerance 0, which ‖∇f‖∞ can never go below; near the
  //    optimum no α lowers the rounded ‖∇f‖ enough;
  //  * no factor: tolerance 0 again, l2 = 0 and one class on a constant
  //    column, whose optimum is at infinity: once every score rounds to
  //    exactly 1, D and so H are 0, and so is every shift, a multiple of
  //    max Hⱼⱼ.
  // A fit that meets its tolerance counts nothing.
  Rng rng(21);
  FitCase normal{RandomNormal(40, 3, &rng), std::vector<double>(40),
                 std::vector<double>(40, 1.0)};
  for (size_t i = 0; i < 40; ++i) normal.targets[i] = rng.Bernoulli(0.5);
  const LogisticRegressionOptions defaults;
  // Registers the metrics, which the checks below read before each fit.
  ASSERT_TRUE(LogisticRegression(defaults)
                  .Fit(normal.x, normal.targets, normal.weights)
                  .ok());
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* fits = registry.GetCounter("rll_logreg_fits_total");
  obs::Counter* unconverged =
      registry.GetCounter("rll_logreg_unconverged_total");
  obs::Histogram* iterations = registry.GetHistogram("rll_logreg_iterations");
  const auto expect_stop = [&](const FitCase& c,
                               const LogisticRegressionOptions& options,
                               OneRowLoopFit::Stop stop) -> int {
    const uint64_t fits_before = fits->value();
    const uint64_t unconverged_before = unconverged->value();
    const uint64_t count_before = iterations->count();
    const double sum_before = iterations->sum();
    LogisticRegression lr(options);
    const OneRowLoopFit reference = ExpectSameFit(c, options, lr);
    EXPECT_EQ(reference.stop(), stop);
    EXPECT_EQ(fits->value() - fits_before, 1u);
    EXPECT_EQ(unconverged->value() - unconverged_before,
              stop == OneRowLoopFit::Stop::kTolerance ? 0u : 1u);
    EXPECT_EQ(iterations->count() - count_before, 1u);
    EXPECT_EQ(iterations->sum() - sum_before, lr.iterations());
    return lr.iterations();
  };

  const int converged =
      expect_stop(normal, defaults, OneRowLoopFit::Stop::kTolerance);
  EXPECT_LT(converged, LogisticRegression::kMaxIterations);

  Rng scaled_rng(9);
  FitCase scaled{RandomNormal(17, 8, &scaled_rng), std::vector<double>(17),
                 std::vector<double>(17, 1.0)};
  for (size_t i = 0; i < scaled.x.size(); ++i) {
    scaled.x[i] *= std::exp(4.0 * scaled_rng.Normal());
  }
  for (size_t i = 0; i < 17; ++i) {
    scaled.targets[i] = scaled_rng.Bernoulli(0.5);
  }
  EXPECT_EQ(expect_stop(scaled, defaults, OneRowLoopFit::Stop::kCap),
            LogisticRegression::kMaxIterations);

  const int no_step = expect_stop(normal, {.tolerance = 0.0},
                                  OneRowLoopFit::Stop::kNoStep);
  EXPECT_GT(no_step, converged);
  EXPECT_LT(no_step, LogisticRegression::kMaxIterations);

  const FitCase one_class{Matrix(6, 1, 1.0), std::vector<double>(6, 1.0),
                          std::vector<double>(6, 1.0)};
  const int no_factor = expect_stop(one_class, {.l2 = 0.0, .tolerance = 0.0},
                                    OneRowLoopFit::Stop::kNoFactor);
  EXPECT_GT(no_factor, 0);
  EXPECT_LT(no_factor, LogisticRegression::kMaxIterations);
}

TEST(LogisticRegressionTest, FitIsBitwiseIdenticalAtOneAndFourThreads) {
  // The serve corpus's shape: Gemm and LogisticProba split it across the
  // pool at 4 threads, and the head must keep its bits.
  Rng rng(21);
  const Matrix x = RandomNormal(20000, 32, &rng);
  std::vector<int> labels(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    labels[i] = x(i, 0) + rng.Normal() > 0.0 ? 1 : 0;
  }
  LogisticRegression serial;
  LogisticRegression parallel;
  SetGlobalThreads(1);
  ASSERT_TRUE(serial.Fit(x, labels).ok());
  SetGlobalThreads(4);
  ASSERT_TRUE(parallel.Fit(x, labels).ok());
  SetGlobalThreads(0);  // Restore the RLL_THREADS / serial default.
  EXPECT_LT(serial.iterations(), LogisticRegression::kMaxIterations);
  EXPECT_EQ(serial.iterations(), parallel.iterations());
  EXPECT_EQ(std::memcmp(serial.weights().data(), parallel.weights().data(),
                        32 * sizeof(double)),
            0);
  const double serial_bias = serial.bias();
  const double parallel_bias = parallel.bias();
  EXPECT_EQ(std::memcmp(&serial_bias, &parallel_bias, sizeof(double)), 0);
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
