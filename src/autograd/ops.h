// Differentiable operations over ag::Var. Each op computes the forward value
// eagerly and registers a closure that propagates gradients to its parents.
// Ops only allocate a backward closure when some input requires gradients.

#ifndef RLL_AUTOGRAD_OPS_H_
#define RLL_AUTOGRAD_OPS_H_

#include "autograd/variable.h"
#include "tensor/ops.h"

namespace rll::ag {

/// C = A·B.
Var Matmul(const Var& a, const Var& b);

/// One dense layer as one node: act(x·W + b) for x batch×in, W in×out and
/// b 1×out. The forward pass is a Gemm into the node's value and one
/// AddBiasActivate pass over it. Backward: dZ = ActivationGrad (dY itself
/// for kNone), b gets ColSum(dZ), W gets xᵀ·dZ and x, when it requires
/// grad, dZ·Wᵀ. The bits equal Matmul, AddRowBroadcast and the activation
/// applied in turn, gradients included.
Var Dense(const Var& x, const Var& w, const Var& b, Activation activation);

/// Elementwise sum/difference/product (same shapes).
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
/// Elementwise quotient a/b; |b| is clamped away from zero at eps
/// (sign-preserving) for numerical safety.
Var Div(const Var& a, const Var& b, double eps = 1e-12);

/// Scalar transforms.
Var Scale(const Var& a, double s);
Var AddScalar(const Var& a, double s);

/// Adds a 1×cols bias row to every row of a.
Var AddRowBroadcast(const Var& a, const Var& bias);

/// Multiplies every row of a elementwise by a 1×cols row (e.g. a learned
/// gain vector); gradients flow into both operands.
Var MulRowBroadcast(const Var& a, const Var& row);

/// Replicates an n×1 column across `cols` columns → n×cols.
Var BroadcastCol(const Var& col, size_t cols);

/// Elementwise max(a, 0) and a².
Var Relu(const Var& a);
Var Square(const Var& a);
/// sqrt(max(a, eps)).
Var Sqrt(const Var& a, double eps = 1e-12);

/// Full reductions → 1×1.
Var Sum(const Var& a);
Var Mean(const Var& a);

/// Row reduction → rows×1.
Var RowSum(const Var& a);

/// Row-wise cosine similarity → rows×1; norms clamped at eps. The
/// backward closure keeps the forward pass's clamped norms (scratch
/// storage) and reads cos from the node's value.
Var RowCosine(const Var& a, const Var& b, double eps = 1e-12);

/// Horizontal concatenation (equal row counts) → rows×Σcols. The operand
/// list is scratch-backed, so inside an ArenaScope it is allocation-free.
Var ConcatCols(const VarList& parts);

/// Numerically stable row-wise log-softmax.
Var LogSoftmaxRows(const Var& a);

/// Mean negative log likelihood over `count` rows:
/// -(1/count)·Σᵢ logp(i, targets[i]) → 1×1. `logp` is count×c
/// log-probabilities (e.g. from LogSoftmaxRows). The backward closure
/// copies the targets into scratch storage.
Var NllRows(const Var& logp, const size_t* targets, size_t count);

}  // namespace rll::ag

#endif  // RLL_AUTOGRAD_OPS_H_
