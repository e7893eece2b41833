// Adam over autograd parameters — the optimizer the paper trains RLL with.
//
// Usage pattern per step:
//   adam.ZeroGrad(); Var loss = ...; ag::Backward(loss); adam.Step();

#ifndef RLL_NN_OPTIMIZER_H_
#define RLL_NN_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"
#include "obs/metrics.h"

namespace rll::nn {

struct AdamOptions {
  double lr = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  /// L2 penalty added to gradients as wd·θ.
  double weight_decay = 0.0;
};

/// Adam bound to a fixed parameter set.
class Adam {
 public:
  Adam(std::vector<ag::Var> params, AdamOptions options);

  /// Applies one update using the gradients currently stored on params.
  /// Parameters with empty gradients are skipped.
  void Step();

  /// Clears gradients on all bound parameters.
  void ZeroGrad();

 private:
  std::vector<ag::Var> params_;
  AdamOptions options_;
  std::vector<Matrix> m_;  // First moment, parallel to params_.
  std::vector<Matrix> v_;  // Second moment.
  int64_t t_ = 0;
  // Resolved once at construction; Step() pays one relaxed increment and
  // one relaxed store, never a registry lookup.
  obs::Counter* steps_metric_;
  obs::Gauge* lr_metric_;
};

/// Scales all gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clipping norm. Call between Backward() and Step().
double ClipGradNorm(const std::vector<ag::Var>& params, double max_norm);

}  // namespace rll::nn

#endif  // RLL_NN_OPTIMIZER_H_
