// L2-regularized binary logistic regression — the paper's "basic classifier"
// applied on top of every representation (§IV-A). Trained full-batch by
// damped Newton's method to a gradient tolerance; supports soft targets and
// per-sample weights so the SoftProb baseline (Raykar et al.) can reuse it
// directly.

#ifndef RLL_CLASSIFY_LOGISTIC_REGRESSION_H_
#define RLL_CLASSIFY_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace rll::classify {

struct LogisticRegressionOptions {
  /// L2 penalty on weights (not the intercept).
  double l2 = 1e-3;
  /// Stop when the gradient's infinity norm drops below this.
  double tolerance = 1e-6;
};

class LogisticRegression {
 public:
  /// Newton steps a fit takes at most: a guard against a fit that cannot
  /// reach the tolerance, not a budget. Fits on the paper's data stop on
  /// the tolerance in a handful of steps.
  static constexpr int kMaxIterations = 100;

  explicit LogisticRegression(LogisticRegressionOptions options = {})
      : options_(options) {}

  /// Fits on x (n×dim) and targets in [0,1] (hard 0/1 labels or soft
  /// probabilities). Optional per-sample weights (empty → all 1).
  ///
  /// Minimizes f(w, b) = Σ sᵢ·CE(tᵢ, σ(xᵢ·w + b)) / Σ sᵢ + ½·l2·‖w‖² by
  /// damped Newton from w = 0, b = 0. It stops once ‖∇f‖∞ < tolerance,
  /// after kMaxIterations steps, when no shift lets H factor (H = 0, as
  /// when l2 = 0 and every score rounds to exactly 0 or 1, or an H that
  /// overflows), or when it finds no step that lowers ‖∇f‖ enough.
  /// The last three return OK with the head reached so far and count in
  /// rll_logreg_unconverged_total. Each step:
  ///  * ∇f is LogisticGradient's plus l2·w, and the scores pᵢ are
  ///    LogisticProba's (tensor/ops.h).
  ///  * H = X̃ᵀDX̃ plus l2 on the weights' diagonal, X̃ = [X 1] and
  ///    Dᵢ = pᵢ·(1 − pᵢ)·sᵢ / Σs. X̃ goes in chunks of 256 rows: each is
  ///    scaled row by row by √Dᵢ into one buffer, multiplied by itself
  ///    with Gemm, and added to H in chunk order. X is never copied whole.
  ///  * Δ solves H·Δ = −∇f by Cholesky. A pivot at or below 1e-10 of its
  ///    diagonal entry (a singular system, such as l2 = 0 with a constant
  ///    column) restarts the factor with 1e-8·max Hⱼⱼ added to the
  ///    diagonal, 100× more on each further restart (at most 8).
  ///  * The step is αΔ for the first α = 1, ½, ¼, … (at most 30 halvings)
  ///    with ‖∇f(θ + αΔ)‖² ≤ (1 − 2·10⁻⁴·α)·‖∇f(θ)‖²: Armijo on ½‖∇f‖²,
  ///    whose slope along the Newton direction is −‖∇f‖². That gradient is
  ///    the next step's.
  /// At most the work of kMaxIterations steps of one LogisticProba pass,
  /// one Hessian (n·(dim+1)² multiply-adds) and 31 LogisticGradient
  /// passes, plus one gradient pass. Badly scaled small inputs reach the
  /// cap; fits on the paper's data stop on the tolerance in 3–7 steps.
  /// Each operation is an IEEE +, −, ×, ÷ or √ (no libm) and each sum runs
  /// in a fixed order; the kernels give the same bits at any thread count
  /// and vector level, and so does the fitted head.
  Status Fit(const Matrix& x, const std::vector<double>& targets,
             const std::vector<double>& sample_weights = {});

  /// Convenience overload for hard integer labels.
  Status Fit(const Matrix& x, const std::vector<int>& labels,
             const std::vector<double>& sample_weights = {});

  /// P(y=1|x) per row. Requires a successful Fit.
  std::vector<double> PredictProba(const Matrix& x) const;

  /// Hard labels at threshold 0.5.
  std::vector<int> Predict(const Matrix& x) const;

  bool fitted() const { return fitted_; }
  const Matrix& weights() const { return weights_; }  // dim×1
  double bias() const { return bias_; }
  /// Newton steps the last successful Fit took.
  int iterations() const { return iterations_; }

 private:
  LogisticRegressionOptions options_;
  bool fitted_ = false;
  Matrix weights_;  // dim×1
  double bias_ = 0.0;
  int iterations_ = 0;
};

}  // namespace rll::classify

#endif  // RLL_CLASSIFY_LOGISTIC_REGRESSION_H_
