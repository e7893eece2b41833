// Multi-layer perceptron — the "multi-layer non-linear projection" encoder
// from Figure 1 of the paper, shared by RLL and the deep baselines.

#ifndef RLL_NN_MLP_H_
#define RLL_NN_MLP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace rll::nn {

/// A layer's nonlinearity (tensor/ops.h, where the dense pass applies it).
using Activation = rll::Activation;

/// Stable wire name ("none" | "tanh" | "relu" | "sigmoid") — recorded in
/// model-bundle headers, so renaming a value breaks saved bundles.
const char* ActivationName(Activation activation);

/// Inverse of ActivationName; fails on unknown names.
Result<Activation> ParseActivation(const std::string& name);

struct MlpConfig {
  /// Layer widths including input and output, e.g. {60, 128, 64, 32}.
  std::vector<size_t> dims;
  /// Nonlinearity between hidden layers. The paper's encoder uses tanh.
  Activation hidden_activation = Activation::kTanh;
  /// Applied after the final layer (kTanh for bounded embeddings).
  Activation output_activation = Activation::kTanh;
  /// Inverted-dropout rate on hidden activations; only applied by
  /// ForwardTrain. 0 disables dropout.
  double dropout = 0.0;
  /// Applies LayerNorm after each hidden activation.
  bool layer_norm = false;
};

class Mlp {
 public:
  /// Requires at least 2 dims (input and output widths).
  Mlp(const MlpConfig& config, Rng* rng);

  /// x: batch×dims.front() → batch×dims.back(). Inference path: dropout
  /// (if configured) is NOT applied.
  ag::Var Forward(const ag::Var& x) const;

  /// Training path: applies inverted dropout after each hidden activation
  /// when config.dropout > 0. Identical to Forward when dropout == 0.
  ag::Var ForwardTrain(const ag::Var& x, Rng* rng) const;

  /// Forward pass on raw features without building graph history
  /// (inference). Equivalent to Forward on a Constant input but documents
  /// intent at call sites.
  Matrix Embed(const Matrix& x) const;

  /// Allocation-free Embed: every intermediate (and the result) lives in
  /// keyed `ws` buffers, reused across calls — the steady-state serve
  /// path. Each layer is the Gemm and AddBiasActivate pass that ag::Dense
  /// runs, so the result is bitwise equal to Forward's. The
  /// returned reference aliases a `ws` buffer and is valid until the next
  /// EmbedInto against the same workspace.
  const Matrix& EmbedInto(const Matrix& x, Workspace& ws) const;

  /// All trainable leaves, layer by layer.
  std::vector<ag::Var> Parameters() const;

  size_t input_dim() const { return config_.dims.front(); }
  size_t output_dim() const { return config_.dims.back(); }
  const MlpConfig& config() const { return config_; }

 private:
  /// Shared tail of Forward / ForwardTrain.
  ag::Var Run(const ag::Var& x, bool training, Rng* rng) const;

  MlpConfig config_;
  std::vector<Linear> layers_;
  std::vector<LayerNorm> norms_;  // One per hidden layer when enabled.
};

}  // namespace rll::nn

#endif  // RLL_NN_MLP_H_
