#include "classify/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/finite_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace rll::classify {

namespace {

// The constants of Fit's contract (logistic_regression.h).
constexpr size_t kHessianRows = 256;
constexpr double kPivotFloor = 1e-10;
constexpr double kShift = 1e-8;
constexpr double kShiftGrowth = 100.0;
constexpr int kMaxShifts = 8;
constexpr double kArmijo = 1e-4;
constexpr int kMaxHalvings = 30;

// The fixed inputs of one fit.
struct Objective {
  const Matrix& x;
  const std::vector<double>& targets;
  const std::vector<double>& weights;
  double weight_sum;
  double l2;

  // g = ∇f at (w, b), the weights' entries and then the bias's; returns
  // ‖g‖², summed in that order. `grad_w` is scratch.
  double Gradient(const Matrix& w, double b, Matrix& grad_w,
                  std::vector<double>& g) const {
    double grad_b = 0.0;
    LogisticGradient(x, w, b, targets, weights, weight_sum, grad_w, &grad_b);
    double norm2 = 0.0;
    for (size_t j = 0; j < w.rows(); ++j) {
      g[j] = grad_w[j] + l2 * w[j];
      norm2 += g[j] * g[j];
    }
    g[w.rows()] = grad_b;
    return norm2 + grad_b * grad_b;
  }
};

double MaxAbs(const std::vector<double>& g) {
  double max = 0.0;
  for (const double v : g) max = std::max(max, std::fabs(v));
  return max;
}

// h = X̃ᵀDX̃ plus l2 on the weights' diagonal, from the scores p, one
// chunk of X̃ at a time in `scaled`; `chunk` is scratch.
void BuildHessian(const Objective& f, const std::vector<double>& p,
                  Matrix& scaled, Matrix& chunk, Matrix& h) {
  const size_t n = f.x.rows();
  const size_t dim = f.x.cols();
  h.Reshape(dim + 1, dim + 1);
  h.Fill(0.0);
  for (size_t c = 0; c < n; c += kHessianRows) {
    const size_t rows = std::min(kHessianRows, n - c);
    scaled.Reshape(rows, dim + 1);
    for (size_t r = 0; r < rows; ++r) {
      const size_t i = c + r;
      const double root =
          std::sqrt(p[i] * (1.0 - p[i]) * f.weights[i] / f.weight_sum);
      const double* row = f.x.row_data(i);
      double* out = scaled.row_data(r);
      for (size_t j = 0; j < dim; ++j) out[j] = row[j] * root;
      out[dim] = root;
    }
    Gemm(scaled, true, scaled, false, chunk);
    h += chunk;
  }
  for (size_t j = 0; j < dim; ++j) h(j, j) += f.l2;
}

// The lower Cholesky factor of h + shift·I into l, column by column; false
// at a pivot not above kPivotFloor of its diagonal entry.
bool Cholesky(const Matrix& h, double shift, Matrix& l) {
  const size_t m = h.rows();
  l.Reshape(m, m);
  for (size_t j = 0; j < m; ++j) {
    const double diagonal = h(j, j) + shift;
    double pivot = diagonal;
    for (size_t k = 0; k < j; ++k) pivot -= l(j, k) * l(j, k);
    if (!(pivot > kPivotFloor * diagonal)) return false;
    l(j, j) = std::sqrt(pivot);
    for (size_t i = j + 1; i < m; ++i) {
      double v = h(i, j);
      for (size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }
  return true;
}

// step = −(h + μI)⁻¹·g for the first μ that factors: 0, then
// kShift·max hⱼⱼ, growing kShiftGrowth-fold. False when none of the
// kMaxShifts shifts does.
bool NewtonStep(const Matrix& h, const std::vector<double>& g, Matrix& l,
                std::vector<double>& step) {
  const size_t m = h.rows();
  double scale = 0.0;
  for (size_t j = 0; j < m; ++j) scale = std::max(scale, h(j, j));
  double shift = 0.0;
  for (int restart = 0; !Cholesky(h, shift, l); ++restart) {
    if (restart == kMaxShifts) return false;
    shift = restart == 0 ? kShift * scale : shift * kShiftGrowth;
  }
  for (size_t i = 0; i < m; ++i) {  // L·y = −g.
    double v = -g[i];
    for (size_t k = 0; k < i; ++k) v -= l(i, k) * step[k];
    step[i] = v / l(i, i);
  }
  for (size_t i = m; i-- > 0;) {  // Lᵀ·step = y.
    double v = step[i];
    for (size_t k = i + 1; k < m; ++k) v -= l(k, i) * step[k];
    step[i] = v / l(i, i);
  }
  return true;
}

}  // namespace

Status LogisticRegression::Fit(const Matrix& x,
                               const std::vector<double>& targets,
                               const std::vector<double>& sample_weights) {
  const size_t n = x.rows();
  const size_t dim = x.cols();
  if (n == 0 || dim == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (targets.size() != n) {
    return Status::InvalidArgument("targets size != rows");
  }
  for (double t : targets) {
    if (t < 0.0 || t > 1.0 || !std::isfinite(t)) {
      return Status::InvalidArgument("targets must lie in [0, 1]");
    }
  }
  std::vector<double> w = sample_weights;
  if (w.empty()) {
    w.assign(n, 1.0);
  } else if (w.size() != n) {
    return Status::InvalidArgument("sample_weights size != rows");
  }
  double wsum = 0.0;
  for (double v : w) {
    if (v < 0.0 || !std::isfinite(v)) {
      return Status::InvalidArgument("sample weights must be >= 0");
    }
    wsum += v;
  }
  if (wsum <= 0.0) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  // A NaN or infinity in x would make every step NaN.
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) {
      return Status::InvalidArgument("design matrix holds a non-finite value");
    }
  }

  RLL_TRACE_SPAN("logreg_fit");
  const Objective f{x, targets, w, wsum, options_.l2};
  weights_ = Matrix(dim, 1);
  bias_ = 0.0;
  Matrix grad_w;
  std::vector<double> g(dim + 1);
  double norm2 = f.Gradient(weights_, bias_, grad_w, g);
  std::vector<double> p(n);
  std::vector<double> step(dim + 1);
  std::vector<double> trial_g(dim + 1);
  Matrix trial_w(dim, 1);
  Matrix scaled;
  Matrix chunk;
  Matrix h;
  Matrix l;
  iterations_ = 0;
  while (!(MaxAbs(g) < options_.tolerance) && iterations_ < kMaxIterations) {
    LogisticProba(x, weights_, bias_, p.data());
    BuildHessian(f, p, scaled, chunk, h);
    if (!NewtonStep(h, g, l, step)) break;
    bool stepped = false;
    double alpha = 1.0;
    for (int halving = 0; halving <= kMaxHalvings; ++halving, alpha *= 0.5) {
      for (size_t j = 0; j < dim; ++j) {
        trial_w[j] = weights_[j] + alpha * step[j];
      }
      const double trial_b = bias_ + alpha * step[dim];
      const double trial_norm2 = f.Gradient(trial_w, trial_b, grad_w, trial_g);
      if (trial_norm2 <= (1.0 - 2.0 * kArmijo * alpha) * norm2) {
        std::swap(weights_, trial_w);
        bias_ = trial_b;
        g.swap(trial_g);
        norm2 = trial_norm2;
        stepped = true;
        break;
      }
    }
    if (!stepped) break;
    ++iterations_;
    RLL_DCHECK_FINITE(weights_);
    RLL_DCHECK_FINITE(bias_);
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("rll_logreg_fits_total")->Increment();
  // Fits that stopped above the tolerance: at the cap, or finding no step
  // that lowered ‖∇f‖ enough. Registered at 0, so a clean run shows 0.
  obs::Counter* unconverged =
      registry.GetCounter("rll_logreg_unconverged_total");
  if (!(MaxAbs(g) < options_.tolerance)) unconverged->Increment();
  // Convergence behaviour: iterations hugging p99 at kMaxIterations means
  // fits hit the cap instead of the gradient tolerance.
  obs::HistogramOptions iteration_buckets;
  iteration_buckets.start = 1.0;
  iteration_buckets.growth = 2.0;
  iteration_buckets.count = 8;
  registry.GetHistogram("rll_logreg_iterations", {}, iteration_buckets)
      ->Observe(static_cast<double>(iterations_));
  fitted_ = true;
  return Status::OK();
}

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& labels,
                               const std::vector<double>& sample_weights) {
  std::vector<double> targets(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != 0 && labels[i] != 1) {
      return Status::InvalidArgument("labels must be 0/1");
    }
    targets[i] = static_cast<double>(labels[i]);
  }
  return Fit(x, targets, sample_weights);
}

std::vector<double> LogisticRegression::PredictProba(const Matrix& x) const {
  RLL_CHECK_MSG(fitted_, "PredictProba before Fit");
  RLL_CHECK_EQ(x.cols(), weights_.rows());
  std::vector<double> out(x.rows());
  LogisticProba(x, weights_, bias_, out.data());
  for (const double p : out) RLL_DCHECK_PROB(p);
  return out;
}

std::vector<int> LogisticRegression::Predict(const Matrix& x) const {
  const std::vector<double> proba = PredictProba(x);
  std::vector<int> labels(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) labels[i] = proba[i] >= 0.5;
  return labels;
}

}  // namespace rll::classify
