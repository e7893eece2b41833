// rll-analyze: hot-path — Embed/EmbedInto sit on the serve request path
// and Run() inside the trainer batch loop; per-call containers are banned.
#include "nn/mlp.h"

#include <utility>

#include "autograd/ops.h"
#include "tensor/ops.h"

namespace rll::nn {

const char* ActivationName(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return "none";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  RLL_CHECK_MSG(false, "unknown activation");
  return "";
}

Result<Activation> ParseActivation(const std::string& name) {
  if (name == "none") return Activation::kNone;
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  return Status::InvalidArgument("unknown activation: " + name);
}

Mlp::Mlp(const MlpConfig& config, Rng* rng) : config_(config) {
  RLL_CHECK_GE(config.dims.size(), 2u);
  layers_.reserve(config.dims.size() - 1);
  for (size_t i = 0; i + 1 < config.dims.size(); ++i) {
    layers_.emplace_back(config.dims[i], config.dims[i + 1], rng);
    // LayerNorm after every hidden activation (never on the output).
    if (config.layer_norm && i + 2 < config.dims.size()) {
      norms_.emplace_back(config.dims[i + 1]);
    }
  }
}

ag::Var Mlp::Run(const ag::Var& x, bool training, Rng* rng) const {
  const double keep = 1.0 - config_.dropout;
  ag::Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = (i + 1 == layers_.size());
    h = ag::Dense(h, layers_[i].weight(), layers_[i].bias(),
                  last ? config_.output_activation
                       : config_.hidden_activation);
    if (last) break;
    if (config_.layer_norm) h = norms_[i].Forward(h);
    if (training && config_.dropout > 0.0) {
      // Inverted dropout: zero with probability p, scale survivors by
      // 1/keep so inference needs no rescaling.
      Matrix mask(h->value.rows(), h->value.cols());
      for (size_t j = 0; j < mask.size(); ++j) {
        mask[j] = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
      }
      h = ag::Mul(h, ag::Constant(std::move(mask)));
    }
  }
  return h;
}

ag::Var Mlp::Forward(const ag::Var& x) const {
  return Run(x, /*training=*/false, nullptr);
}

ag::Var Mlp::ForwardTrain(const ag::Var& x, Rng* rng) const {
  if (config_.dropout > 0.0) {
    RLL_CHECK(rng != nullptr);
    RLL_CHECK_LT(config_.dropout, 1.0);
  }
  return Run(x, /*training=*/true, rng);
}

Matrix Mlp::Embed(const Matrix& x) const {
  // Thin wrapper: run the workspace path against buffers that die with
  // the call and hand back a copy the caller owns, so embedding a large
  // corpus leaves nothing behind. Call sites that embed again and again
  // (the serve batcher) pass their own workspace to EmbedInto.
  Workspace ws;
  return EmbedInto(x, ws);
}

const Matrix& Mlp::EmbedInto(const Matrix& x, Workspace& ws) const {
  // Workspace buffers outlive any ArenaScope, so suspend arena routing for
  // the whole pass — growth (first call, or a larger batch) must be
  // heap-backed. Steady state performs zero allocations either way.
  ArenaPause pause;
  if (config_.layer_norm) {
    // LayerNorm keeps its math in one place (the autograd op), so fall
    // back to the graph there; only the result lands in the workspace.
    const Matrix value = Forward(ag::Constant(x))->value;
    Matrix& out = ws.GetReshaped("mlp.embed.pong", value.rows(),
                                 value.cols());
    out = value;
    return out;
  }
  // Graph-free path: two ping-pong workspace buffers instead of one graph
  // node + value matrix per layer. This is the steady-state inference call
  // (every serve batch hits it), so the reuse pays every request.
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Matrix& weight = layers_[i].weight()->value;
    Matrix& next = ws.GetReshaped(
        i % 2 == 0 ? "mlp.embed.ping" : "mlp.embed.pong", x.rows(),
        weight.cols());
    Gemm(*cur, false, weight, false, next);
    const bool last = (i + 1 == layers_.size());
    AddBiasActivate(next, layers_[i].bias()->value,
                    last ? config_.output_activation
                         : config_.hidden_activation);
    cur = &next;
  }
  return *cur;
}

std::vector<ag::Var> Mlp::Parameters() const {
  std::vector<ag::Var> params;
  for (const Linear& layer : layers_) {
    for (const ag::Var& p : layer.Parameters()) params.push_back(p);
  }
  for (const LayerNorm& norm : norms_) {
    for (const ag::Var& p : norm.Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace rll::nn
