// Fully-connected layer: the parameters of y = x·W + b, W (in×out)
// Xavier-initialized. Mlp applies it with ag::Dense.

#ifndef RLL_NN_LINEAR_H_
#define RLL_NN_LINEAR_H_

#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace rll::nn {

class Linear {
 public:
  /// Xavier-uniform weights, zero bias.
  Linear(size_t in_features, size_t out_features, Rng* rng);

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Trainable leaves: {weight, bias}.
  std::vector<ag::Var> Parameters() const { return {weight_, bias_}; }

  const ag::Var& weight() const { return weight_; }
  const ag::Var& bias() const { return bias_; }

 private:
  size_t in_features_;
  size_t out_features_;
  ag::Var weight_;  // in×out
  ag::Var bias_;    // 1×out
};

}  // namespace rll::nn

#endif  // RLL_NN_LINEAR_H_
