#include "core/rll_model.h"

#include "autograd/ops.h"

namespace rll::core {

RllModel::RllModel(const RllModelConfig& config, Rng* rng) : config_(config) {
  RLL_CHECK_GT(config.input_dim, 0u);
  RLL_CHECK(!config.hidden_dims.empty());
  nn::MlpConfig mlp_config;
  mlp_config.dims.push_back(config.input_dim);
  for (size_t d : config.hidden_dims) mlp_config.dims.push_back(d);
  mlp_config.hidden_activation = config.hidden_activation;
  mlp_config.output_activation = config.output_activation;
  mlp_config.dropout = config.dropout;
  mlp_config.layer_norm = config.layer_norm;
  encoder_ = std::make_unique<nn::Mlp>(mlp_config, rng);
}

// Everything built here — score list, targets, graph nodes — is
// scratch-backed, so inside an ArenaScope the whole loss construction is
// allocation-free.
ag::Var GroupNllLoss(const ag::Var& anchor_emb,
                     const ag::VarList& candidate_embs,
                     const MatrixList& slot_confidence, double eta) {
  RLL_CHECK_EQ(candidate_embs.size(), slot_confidence.size());
  const size_t slots = candidate_embs.size();
  RLL_CHECK(slots > 0);
  RLL_CHECK_GT(eta, 0.0);
  const size_t batch = anchor_emb->value.rows();

  ag::VarList scores;
  scores.reserve(slots);
  for (size_t s = 0; s < slots; ++s) {
    RLL_CHECK_EQ(candidate_embs[s]->value.rows(), batch);
    RLL_CHECK_EQ(slot_confidence[s].rows(), batch);
    RLL_CHECK_EQ(slot_confidence[s].cols(), 1u);
    // η·δ·r(anchor, candidate); δ is data, not a gradient target.
    ag::Var cos = ag::RowCosine(anchor_emb, candidate_embs[s]);
    ag::Var weighted = ag::Mul(cos, ag::Constant(slot_confidence[s]));
    scores.push_back(ag::Scale(weighted, eta));
  }
  ag::Var logits = ag::ConcatCols(scores);          // batch×(k+1)
  ag::Var logp = ag::LogSoftmaxRows(logits);        // slot 0 is the target
  ScratchVector<size_t> targets(batch, 0);
  return ag::NllRows(logp, targets.data(), batch);
}

}  // namespace rll::core
