// The RLL training step as the autograd graph built it before one dense
// node stood for each encoder layer, kept in test code as the reference
// the library's ag::Dense, kernel-backed RowCosine and Adam must match bit
// for bit. Each encoder layer is ag::Matmul, ag::AddRowBroadcast and an
// activation node with a scalar backward loop; RowCosine recomputes its
// dot products and norms in the backward pass; Adam updates one element
// at a time.

#ifndef RLL_TESTS_REFERENCE_GRAPH_H_
#define RLL_TESTS_REFERENCE_GRAPH_H_

#include <vector>

#include "autograd/variable.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/matrix.h"

namespace rll::reference {

/// tanh (TanhInPlace on a copy), backward dy·(1 − y·y).
ag::Var Tanh(const ag::Var& a);

/// 1/(1 + e^−x) for x ≥ 0, e^x/(1 + e^x) below (libm exp), backward
/// dy·y·(1 − y).
ag::Var Sigmoid(const ag::Var& a);

/// kNone passes x through; relu is ag::Relu.
ag::Var Activate(const ag::Var& x, nn::Activation activation);

/// An encoder without dropout or LayerNorm: per layer,
/// Activate(AddRowBroadcast(Matmul(h, W), b)), W and b taken in turn from
/// `params`, the last layer with `output` and the others with `hidden`.
ag::Var EncoderForward(const std::vector<ag::Var>& params,
                       nn::Activation hidden, nn::Activation output,
                       const ag::Var& x);

/// EncoderForward over mlp's parameters and activations.
ag::Var MlpForward(const nn::Mlp& mlp, const ag::Var& x);

/// Row cosine whose backward recomputes each row's dot product and
/// clamped norms.
ag::Var RowCosine(const ag::Var& a, const ag::Var& b, double eps = 1e-12);

/// core::GroupNllLoss (eq. 3) over the RowCosine above.
ag::Var GroupNllLoss(const ag::Var& anchor_emb,
                     const std::vector<ag::Var>& candidate_embs,
                     const std::vector<Matrix>& slot_confidence, double eta);

/// nn::Adam with the update written one element at a time.
class ScalarAdam {
 public:
  ScalarAdam(std::vector<ag::Var> params, nn::AdamOptions options);
  void Step();
  void ZeroGrad();

 private:
  std::vector<ag::Var> params_;
  nn::AdamOptions options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;
};

}  // namespace rll::reference

#endif  // RLL_TESTS_REFERENCE_GRAPH_H_
