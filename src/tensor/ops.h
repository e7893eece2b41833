// Free-function kernels over Matrix: BLAS-like products, elementwise maps,
// reductions, and row-wise similarity/softmax primitives used throughout the
// autograd layer and the classic-ML baselines.
//
// Large kernels run on the global ThreadPool (common/threading.h) with
// fixed row/element partitions, so results are bitwise identical at any
// thread count; below the per-kernel serial thresholds they run inline,
// so paper-scale matrices never pay queue overhead. Reductions (Sum, Dot)
// switch to a deterministic chunked tree above a size threshold — the
// chunking depends only on the input size, never the thread count.

#ifndef RLL_TENSOR_OPS_H_
#define RLL_TENSOR_OPS_H_

#include <functional>

#include "tensor/matrix.h"

namespace rll {

/// out = op(A)·op(B), where op(X) is Xᵀ when its flag is set and X
/// otherwise. `out` is reshaped to the product's shape, keeping its
/// capacity, so a steady-state loop that reuses one buffer stops
/// allocating once it has seen its largest shape (Bᵀ is staged in a
/// grow-only per-thread buffer; A and Aᵀ are read in place).
/// `out` must be neither `a` nor `b` (checked). Every element is summed as
/// ((0 + a₀b₀) + a₁b₁) + … over k ascending, one multiply and one add per
/// term, so results are bitwise identical at any thread count.
void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          Matrix& out);

/// The vector level Gemm and TanhInPlace run at in this process, picked
/// once from the CPU: "avx512f" (8 lanes), "avx2" (4 lanes), or the
/// 2-lane baseline, "sse2" on x86-64 and "neon" on aarch64. The level
/// changes only speed: every level returns the same bits.
const char* KernelIsa();

/// C = A·B, value-returning wrapper over Gemm.
Matrix Matmul(const Matrix& a, const Matrix& b);

/// Adds a 1×cols row vector to every row of `m`, in place.
void AddRowBroadcastInPlace(Matrix& m, const Matrix& row);

Matrix Transpose(const Matrix& a);

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
/// Elementwise product.
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);
Matrix AddScalar(const Matrix& a, double s);

/// Adds a 1×cols row vector to every row of a.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);
/// Multiplies every row of a elementwise by a 1×cols row vector.
Matrix MulRowBroadcast(const Matrix& a, const Matrix& row);

/// Applies f to every element.
Matrix Map(const Matrix& a, const std::function<double(double)>& f);

/// m[i] = tanh(m[i]) for every element: the one tanh of the library, used
/// by the autograd op and the graph-free MLP embed alike. Measured within
/// 1.6 ulp of the exact tanh; odd (tanh(-x) == -tanh(x) bit for bit); ±0
/// and NaN pass through; |x| ≥ 22 gives ±1. Built from IEEE +, −, ×, ÷
/// and bit operations only (no libm), so each result depends on its
/// input's bits alone: never on its offset in `m`, the thread count or the
/// host's libm.
void TanhInPlace(Matrix& m);

double Sum(const Matrix& a);
double Mean(const Matrix& a);
double Max(const Matrix& a);
/// Sum over columns → rows×1.
Matrix RowSum(const Matrix& a);
/// Sum over rows → 1×cols.
Matrix ColSum(const Matrix& a);
/// Mean over rows → 1×cols.
Matrix ColMean(const Matrix& a);

/// Inner product of two same-shaped matrices viewed as flat vectors.
double Dot(const Matrix& a, const Matrix& b);
/// Frobenius / L2 norm.
double Norm(const Matrix& a);

/// cosine(a_r, b_r) per row → rows×1. Shapes must match.
Matrix RowCosine(const Matrix& a, const Matrix& b, double eps = 1e-12);

/// Numerically stable row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// log(sum(exp(row))) per row → rows×1, numerically stable.
Matrix LogSumExpRows(const Matrix& a);

/// Index of the max element in each row → vector of size rows.
std::vector<size_t> ArgmaxRows(const Matrix& a);

}  // namespace rll

#endif  // RLL_TENSOR_OPS_H_
