// RLL model (Figure 1): the shared multi-layer non-linear projection that
// maps raw features to low-dimensional semantic embeddings, plus the
// confidence-weighted group relevance head used during training.

#ifndef RLL_CORE_RLL_MODEL_H_
#define RLL_CORE_RLL_MODEL_H_

#include <memory>
#include <vector>

#include "nn/mlp.h"

namespace rll::core {

struct RllModelConfig {
  size_t input_dim = 0;
  /// Hidden layer widths; the last entry is the embedding dimension.
  std::vector<size_t> hidden_dims = {64, 32};
  nn::Activation hidden_activation = nn::Activation::kTanh;
  /// tanh keeps embeddings bounded, which stabilizes cosine scores.
  nn::Activation output_activation = nn::Activation::kTanh;
  /// Dropout on hidden activations during training (0 disables).
  double dropout = 0.0;
  /// LayerNorm after each hidden activation.
  bool layer_norm = false;
};

class RllModel {
 public:
  RllModel(const RllModelConfig& config, Rng* rng);

  /// Differentiable forward pass without dropout (evaluation graphs).
  ag::Var Forward(const ag::Var& x) const { return encoder_->Forward(x); }

  /// Differentiable forward pass with dropout when configured (training).
  ag::Var ForwardTrain(const ag::Var& x, Rng* rng) const {
    return encoder_->ForwardTrain(x, rng);
  }

  /// Inference: raw features (n×input_dim) → embeddings (n×embedding_dim).
  Matrix Embed(const Matrix& x) const { return encoder_->Embed(x); }

  /// Allocation-free inference: intermediates and the result live in
  /// caller-provided Workspace buffers (bitwise identical to Embed). The
  /// returned reference is valid until the next EmbedInto on `ws`.
  const Matrix& EmbedInto(const Matrix& x, Workspace& ws) const {
    return encoder_->EmbedInto(x, ws);
  }

  std::vector<ag::Var> Parameters() const { return encoder_->Parameters(); }

  size_t input_dim() const { return config_.input_dim; }
  size_t embedding_dim() const { return config_.hidden_dims.back(); }
  const RllModelConfig& config() const { return config_; }

 private:
  RllModelConfig config_;
  std::unique_ptr<nn::Mlp> encoder_;
};

/// Confidence-weighted group loss, eq. (3):
///   L = −log p̂(x⁺ⱼ | x⁺ᵢ),
///   p̂ = exp(η·δⱼ·r(i,j)) / Σ_{x*∈g} exp(η·δ*·r(i,*)),
/// batched over `batch` groups. Inputs are the embedded anchor rows and one
/// embedded matrix per candidate slot (slot 0 = paired positive, slots
/// 1..k = negatives); `slot_confidence[s]` holds δ for slot s per group
/// (batch×1). Returns the mean loss over the batch as a 1×1 Var. The lists
/// are scratch-backed: inside an ArenaScope the operand lists, the graph,
/// and the loss all come from the arena.
ag::Var GroupNllLoss(const ag::Var& anchor_emb,
                     const ag::VarList& candidate_embs,
                     const MatrixList& slot_confidence, double eta);

}  // namespace rll::core

#endif  // RLL_CORE_RLL_MODEL_H_
