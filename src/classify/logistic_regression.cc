#include "classify/logistic_regression.h"

#include <cmath>

#include "common/finite_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rll::classify {

namespace {

double StableSigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

// Adds the loss gradient of rows [i, i + R) to grad_w and grad_b. The R
// z sums are independent add chains, so R > 1 keeps the adder busy, and
// each gradient element still takes its rows' terms in row order: every R
// gives the bits of the one-row loop.
template <size_t R>
void AddRowGradients(const Matrix& x, size_t i, const Matrix& weights,
                     double bias, const std::vector<double>& targets,
                     const std::vector<double>& w, double wsum,
                     Matrix& grad_w, double& grad_b) {
  const double* row[R];
  double z[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    row[r] = x.row_data(i + r);
    z[r] = bias;
  }
  for (size_t j = 0; j < x.cols(); ++j) {
    const double wj = weights[j];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) z[r] += row[r][j] * wj;
  }
  double err[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    err[r] = (StableSigmoid(z[r]) - targets[i + r]) * w[i + r] / wsum;
  }
  for (size_t j = 0; j < x.cols(); ++j) {
    double g = grad_w[j];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) g += err[r] * row[r][j];
    grad_w[j] = g;
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) grad_b += err[r];
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

  RLL_TRACE_SPAN("logreg_fit");
  weights_ = Matrix(dim, 1);
  bias_ = 0.0;
  Matrix vel_w(dim, 1);
  double vel_b = 0.0;
  Matrix grad_w(dim, 1);

  int epochs_run = 0;
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    epochs_run = epoch + 1;
    // Gradient of the weighted mean cross-entropy + L2.
    grad_w.Fill(0.0);
    double grad_b = 0.0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      AddRowGradients<4>(x, i, weights_, bias_, targets, w, wsum, grad_w,
                         grad_b);
    }
    for (; i < n; ++i) {
      AddRowGradients<1>(x, i, weights_, bias_, targets, w, wsum, grad_w,
                         grad_b);
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
    // A diverging fit (lr too high, degenerate features) shows up as
    // NaN/Inf weights; trip at the epoch that produced them.
    RLL_DCHECK_FINITE(grad_w);
    RLL_DCHECK_FINITE(weights_);
    RLL_DCHECK_FINITE(bias_);
    if (max_grad < options_.tolerance) break;
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("rll_logreg_fits_total")->Increment();
  // Convergence behaviour: max_epochs hugging p99 means fits routinely hit
  // the epoch cap instead of the gradient tolerance.
  obs::HistogramOptions epoch_buckets;
  epoch_buckets.start = 1.0;
  epoch_buckets.growth = 2.0;
  epoch_buckets.count = 12;
  registry.GetHistogram("rll_logreg_epochs", {}, epoch_buckets)
      ->Observe(static_cast<double>(epochs_run));
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
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_data(i);
    double z = bias_;
    for (size_t j = 0; j < x.cols(); ++j) z += row[j] * weights_(j, 0);
    out[i] = StableSigmoid(z);
    RLL_DCHECK_PROB(out[i]);
  }
  return out;
}

std::vector<int> LogisticRegression::Predict(const Matrix& x) const {
  const std::vector<double> proba = PredictProba(x);
  std::vector<int> labels(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) labels[i] = proba[i] >= 0.5;
  return labels;
}

}  // namespace rll::classify
