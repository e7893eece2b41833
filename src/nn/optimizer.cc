#include "nn/optimizer.h"

#include <cmath>

#include "common/finite_check.h"
#include "tensor/ops.h"

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
  const AdamCoefficients c{
      options_.lr,
      options_.beta1,
      options_.beta2,
      options_.eps,
      options_.weight_decay,
      1.0 - std::pow(options_.beta1, static_cast<double>(t_)),
      1.0 - std::pow(options_.beta2, static_cast<double>(t_))};
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Var& p = params_[i];
    if (p->grad.empty()) continue;
    AdamUpdate(c, p->grad, p->value, m_[i], v_[i]);
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
