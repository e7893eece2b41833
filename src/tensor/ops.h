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

/// The vector level Gemm, the elementwise maps, the logistic pass and the
/// training-step kernels run at in this process, picked once from the CPU:
/// "avx512f" (8 lanes), "avx2" (4 lanes), or the 2-lane baseline, "sse2"
/// on x86-64 and "neon" on aarch64. The level changes only speed: every
/// level returns the same bits.
const char* KernelIsa();

/// C = A·B, value-returning wrapper over Gemm.
Matrix Matmul(const Matrix& a, const Matrix& b);

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

/// m[i] = e^{m[i]} for every element, built like TanhInPlace from IEEE
/// operations only, so each result depends on its input's bits alone.
/// Measured within 2 ulp of the exact value over [−745.2, 0] and random
/// bit patterns. Rounds to +0 below −745.134 and to +∞ above 709.783;
/// subnormal results are rounded once; NaN gives NaN.
void ExpInPlace(Matrix& m);

/// m[i] = σ(m[i]) = 1/(1 + e^{−m[i]}) for every element, from e^{−|x|}
/// built of ExpInPlace's pieces with its division folded into σ's, and
/// like it libm-free and independent of offset, thread count and level.
/// Measured within 3 ulp of the exact value. σ(±0) = 0.5; saturates to
/// exactly 0 and 1; NaN gives NaN.
void SigmoidInPlace(Matrix& m);

/// An encoder layer's nonlinearity. The names are ActivationName's
/// (nn/mlp.h), which model bundles record.
enum class Activation { kNone, kTanh, kRelu, kSigmoid };

/// m[r][c] = act(m[r][c] + bias[c]) in place, bias 1×cols: the bias and
/// the activation of a dense layer in one pass over m, tanh being
/// TanhInPlace's. relu is x > 0 ? x : 0, and the sigmoid 1/(1 + e^−x) for
/// x ≥ 0 and e^x/(1 + e^x) below, with libm's exp. Rows are independent,
/// so the result does not depend on the thread count.
void AddBiasActivate(Matrix& m, const Matrix& bias, Activation activation);

/// dz = dy·act′ from the activation's output y (AddBiasActivate's):
/// dy·(1 − y·y) for tanh, dy for y > 0 (else 0) for relu, dy·y·(1 − y)
/// for the sigmoid, and dy itself for kNone. `dz` is reshaped and must
/// alias neither input.
void ActivationGrad(const Matrix& y, const Matrix& dy, Activation activation,
                    Matrix& dz);

/// The scores of a logistic-regression head w (dim×1) and b on the rows
/// of x (n×dim): p[i] = σ(z_i), z_i = b + (((P₀+P₁)+(P₂+P₃)) +
/// ((P₄+P₅)+(P₆+P₇))), where P_l sums x_ij·w_j over j ≡ l (mod 8)
/// ascending from +0, and σ is SigmoidInPlace's. Reads x in place; a
/// row's result is independent of n, the thread count and the level.
void LogisticProba(const Matrix& x, const Matrix& w, double b, double* p);

/// One full-batch gradient of the weighted mean logistic loss, in one pass
/// over x with no copy: with err_i = (p_i − t_i)·s_i / weight_sum (p_i as
/// in LogisticProba), grad_w[j] = Σ_i err_i·x_ij and *grad_b = Σ_i err_i,
/// each summed over rows ascending from +0. `grad_w` is reshaped to
/// dim×1. Serial: a row split would change the sums.
void LogisticGradient(const Matrix& x, const Matrix& w, double b,
                      const std::vector<double>& targets,
                      const std::vector<double>& sample_weights,
                      double weight_sum, Matrix& grad_w, double* grad_b);

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

/// cosine(a_r, b_r) = (a_r·b_r) / (max(|a_r|, eps)·max(|b_r|, eps)) per
/// row → rows×1. Shapes must match. When `norms` is given, it receives
/// each row's two clamped norms, max(|a_r|, eps) at norms[2r] and
/// max(|b_r|, eps) at norms[2r + 1].
Matrix RowCosine(const Matrix& a, const Matrix& b, double eps = 1e-12,
                 double* norms = nullptr);

/// The gradients of RowCosine's output `cos` under the incoming gradient
/// `grad` (rows×1), from the forward pass's `norms`: with
/// n = |a_r|·|b_r|, row r of *ga is grad_r·(b_r/n − cos_r·a_r/|a_r|²) and
/// of *gb grad_r·(a_r/n − cos_r·b_r/|b_r|²), |a_r|² as |a_r|·|a_r|. Either
/// output may be null; the others are reshaped to a's shape.
void RowCosineGrad(const Matrix& a, const Matrix& b, const Matrix& cos,
                   const double* norms, const Matrix& grad, Matrix* ga,
                   Matrix* gb);

/// The constants of one Adam step t: bias_correction1 = 1 − β₁ᵗ and
/// bias_correction2 = 1 − β₂ᵗ.
struct AdamCoefficients {
  double lr;
  double beta1;
  double beta2;
  double eps;
  double weight_decay;
  double bias_correction1;
  double bias_correction2;
};

/// One Adam update in place, element by element: g = grad + wd·θ,
/// m = β₁·m + (1 − β₁)·g, v = β₂·v + (1 − β₂)·g·g, and
/// θ = θ − lr·(m/bc₁) / (√(v/bc₂) + ε). All four matrices share a shape.
void AdamUpdate(const AdamCoefficients& c, const Matrix& grad, Matrix& value,
                Matrix& m, Matrix& v);

/// Numerically stable row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// log(sum(exp(row))) per row → rows×1, numerically stable.
Matrix LogSumExpRows(const Matrix& a);

/// Index of the max element in each row → vector of size rows.
std::vector<size_t> ArgmaxRows(const Matrix& a);

}  // namespace rll

#endif  // RLL_TENSOR_OPS_H_
