#include "classify/logistic_regression.h"

#include <cmath>

#include "common/finite_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace rll::classify {

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
  // A NaN or infinity in x would run every epoch and return NaN weights.
  for (size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) {
      return Status::InvalidArgument("design matrix holds a non-finite value");
    }
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
    double grad_b = 0.0;
    LogisticGradient(x, weights_, bias_, targets, w, wsum, grad_w, &grad_b);
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
