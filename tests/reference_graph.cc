#include "reference_graph.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "common/check.h"
#include "tensor/ops.h"

namespace rll::reference {

namespace {

// ag::MakeOp's wiring: a node that needs a gradient when a parent does.
template <typename F>
ag::Var MakeNode(Matrix value, ag::VarList parents, F&& backward) {
  bool needs_grad = false;
  for (const ag::Var& p : parents) needs_grad = needs_grad || p->requires_grad;
  ag::Var out = std::allocate_shared<ag::Node>(
      ScratchAllocator<ag::Node>{}, std::move(value), needs_grad);
  out->parents = std::move(parents);
  if (needs_grad) out->backward_fn = ag::BackwardFn(std::forward<F>(backward));
  return out;
}

}  // namespace

ag::Var Tanh(const ag::Var& a) {
  Matrix value = a->value;
  TanhInPlace(value);
  return MakeNode(std::move(value), {a}, [](ag::Node* n) {
    Matrix g(n->grad.rows(), n->grad.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      const double y = n->value[i];
      g[i] = n->grad[i] * (1.0 - y * y);
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

ag::Var Sigmoid(const ag::Var& a) {
  Matrix value = Map(a->value, [](double x) {
    if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
    const double e = std::exp(x);
    return e / (1.0 + e);
  });
  return MakeNode(std::move(value), {a}, [](ag::Node* n) {
    Matrix g(n->grad.rows(), n->grad.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      const double y = n->value[i];
      g[i] = n->grad[i] * y * (1.0 - y);
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

ag::Var Activate(const ag::Var& x, nn::Activation activation) {
  switch (activation) {
    case nn::Activation::kNone:
      return x;
    case nn::Activation::kTanh:
      return Tanh(x);
    case nn::Activation::kRelu:
      return ag::Relu(x);
    case nn::Activation::kSigmoid:
      return Sigmoid(x);
  }
  RLL_CHECK_MSG(false, "unknown activation");
  return x;
}

ag::Var EncoderForward(const std::vector<ag::Var>& params,
                       nn::Activation hidden, nn::Activation output,
                       const ag::Var& x) {
  const size_t layers = params.size() / 2;
  ag::Var h = x;
  for (size_t i = 0; i < layers; ++i) {
    h = ag::AddRowBroadcast(ag::Matmul(h, params[2 * i]), params[2 * i + 1]);
    h = Activate(h, i + 1 == layers ? output : hidden);
  }
  return h;
}

ag::Var MlpForward(const nn::Mlp& mlp, const ag::Var& x) {
  RLL_CHECK(!mlp.config().layer_norm);
  return EncoderForward(mlp.Parameters(), mlp.config().hidden_activation,
                        mlp.config().output_activation, x);
}

ag::Var RowCosine(const ag::Var& a, const ag::Var& b, double eps) {
  return MakeNode(
      rll::RowCosine(a->value, b->value, eps), {a, b}, [eps](ag::Node* n) {
        const ag::Var& a = n->parents[0];
        const ag::Var& b = n->parents[1];
        const Matrix& av = a->value;
        const Matrix& bv = b->value;
        Matrix ga(av.rows(), av.cols());
        Matrix gb(bv.rows(), bv.cols());
        for (size_t r = 0; r < av.rows(); ++r) {
          const double* ar = av.row_data(r);
          const double* br = bv.row_data(r);
          double dot = 0.0, na2 = 0.0, nb2 = 0.0;
          for (size_t c = 0; c < av.cols(); ++c) {
            dot += ar[c] * br[c];
            na2 += ar[c] * ar[c];
            nb2 += br[c] * br[c];
          }
          const double na = std::max(std::sqrt(na2), eps);
          const double nb = std::max(std::sqrt(nb2), eps);
          const double cosv = dot / (na * nb);
          const double g = n->grad(r, 0);
          double* gar = ga.row_data(r);
          double* gbr = gb.row_data(r);
          for (size_t c = 0; c < av.cols(); ++c) {
            gar[c] = g * (br[c] / (na * nb) - cosv * ar[c] / (na * na));
            gbr[c] = g * (ar[c] / (na * nb) - cosv * br[c] / (nb * nb));
          }
        }
        if (a->requires_grad) a->AccumulateGrad(std::move(ga));
        if (b->requires_grad) b->AccumulateGrad(std::move(gb));
      });
}

ag::Var GroupNllLoss(const ag::Var& anchor_emb,
                     const std::vector<ag::Var>& candidate_embs,
                     const std::vector<Matrix>& slot_confidence, double eta) {
  const size_t batch = anchor_emb->value.rows();
  ag::VarList scores;
  for (size_t s = 0; s < candidate_embs.size(); ++s) {
    ag::Var cos = reference::RowCosine(anchor_emb, candidate_embs[s]);
    ag::Var weighted = ag::Mul(cos, ag::Constant(slot_confidence[s]));
    scores.push_back(ag::Scale(weighted, eta));
  }
  ag::Var logp = ag::LogSoftmaxRows(ag::ConcatCols(scores));
  const std::vector<size_t> targets(batch, 0);
  return ag::NllRows(logp, targets.data(), batch);
}

ScalarAdam::ScalarAdam(std::vector<ag::Var> params, nn::AdamOptions options)
    : params_(std::move(params)), options_(options) {
  for (const ag::Var& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void ScalarAdam::Step() {
  ++t_;
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
  }
}

void ScalarAdam::ZeroGrad() {
  for (const ag::Var& p : params_) p->ZeroGrad();
}

}  // namespace rll::reference
