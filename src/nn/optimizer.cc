#include "nn/optimizer.h"

#include <cmath>

#include "common/finite_check.h"

namespace rll::nn {

Adam::Adam(std::vector<ag::Var> params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ag::Var& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  steps_metric_ = registry.GetCounter("rll_adam_steps_total");
  lr_metric_ = registry.GetGauge("rll_adam_lr");
}

void Adam::Step() {
  ++t_;
  steps_metric_->Increment();
  lr_metric_->Set(options_.lr);
  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Var& p = params_[i];
    if (p->grad.empty()) continue;
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (size_t j = 0; j < p->value.size(); ++j) {
      const double g = p->grad[j] + options_.weight_decay * p->value[j];
      m[j] = options_.beta1 * m[j] + (1.0 - options_.beta1) * g;
      v[j] = options_.beta2 * v[j] + (1.0 - options_.beta2) * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      p->value[j] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
    }
    // Parameters leave each Adam step finite; a blown-up update points at
    // the gradient (or eps/lr config) that produced it.
    RLL_DCHECK_FINITE(p->value);
  }
}

void Adam::ZeroGrad() {
  for (const ag::Var& p : params_) p->ZeroGrad();
}

double ClipGradNorm(const std::vector<ag::Var>& params, double max_norm) {
  double total = 0.0;
  for (const ag::Var& p : params) {
    if (p->grad.empty()) continue;
    for (size_t j = 0; j < p->grad.size(); ++j) {
      total += p->grad[j] * p->grad[j];
    }
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (const ag::Var& p : params) {
      if (p->grad.empty()) continue;
      p->grad *= scale;
    }
  }
  return norm;
}

}  // namespace rll::nn
