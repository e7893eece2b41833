// Private to rll_tensor: the vector kernels (GEMM, tanh, exp, the sigmoid,
// the logistic-regression pass and the training step's elementwise loops),
// built once per vector width from the one source in kernels.inc. Each
// build exports one table of them, a Level.
//
//   baseline  2 lanes: SSE2 on x86-64, NEON on aarch64 (every build)
//   avx2      4 lanes: kernels_avx2.cc, -mavx2 (x86-64 builds only)
//   avx512f   8 lanes: kernels_avx512f.cc, -mavx512f (x86-64 builds only)
//
// ops.cc picks one level per process (KernelIsa() in ops.h names it).
// Every level returns the same bits: each C element is summed over k
// ascending from +0 with a separate multiply and add; each tanh, exp and
// sigmoid lane depends on its own input alone; each logistic score sums
// its row in one fixed tree (LogisticOperands), at any lane count; and
// each lane of the training-step kernels performs the scalar loop's
// operations in its order, every column sum one chain of adds.
//
// Rules for the per-level files, which the `tensor.kernel_symbols` ctest
// checks with nm: each one includes kernels.inc inside an anonymous
// namespace and defines its Table() below and nothing else with external
// linkage. It includes no header that defines an inline
// function or template that another file also compiles: the linker keeps
// one copy of such a function for the whole program, and if that were the
// -mavx512f copy, CPUs without AVX-512 would die of SIGILL wherever it is
// called.
// This header declares only plain types and functions.

#ifndef RLL_TENSOR_KERNELS_H_
#define RLL_TENSOR_KERNELS_H_

#include <cstddef>

namespace rll::kernels {

// The operands of C = op(A)·op(B), in place: op(A)(i, p) = a[i * a_row +
// p * a_k] (the strides swap with trans_a); op(B) is row-major k × n
// (ops.cc packs Bᵀ first); C is row-major m × n.
struct GemmOperands {
  const double* a;
  size_t a_row;
  size_t a_k;
  const double* b;
  double* c;
  size_t k;
  size_t n;
};

// The logistic-regression head over the n × dim row-major x, read in
// place: row i scores z_i = b + (((P₀+P₁)+(P₂+P₃)) + ((P₄+P₅)+(P₆+P₇))),
// P_l the sum of x_ij·w_j over j ≡ l (mod 8) ascending from +0, and
// p_i = σ(z_i). The gradient pass also reads targets t, sample weights s
// and their sum.
struct LogisticOperands {
  const double* x;
  size_t n;
  size_t dim;
  const double* w;
  double b;
  const double* targets;
  const double* sample_weights;
  double weight_sum;
};

// The gradients of cos_r = (a_r·b_r) / (|a_r|·|b_r|) over rows×cols a and
// b, from the forward pass's cos and clamped norms (|a_r| at norms[2r],
// |b_r| at norms[2r + 1]) and the incoming gradient `grad` (rows×1).
// ga or gb may be null to skip that side.
struct RowCosineOperands {
  const double* a;
  const double* b;
  const double* cos;
  const double* norms;
  const double* grad;
  double* ga;
  double* gb;
  size_t cols;
};

// One Adam update of n parameters in place (the formulas in AdamRange,
// kernels.inc); bias_correction1/2 are 1 − β₁ᵗ and 1 − β₂ᵗ.
struct AdamOperands {
  double* value;
  const double* grad;
  double* m;
  double* v;
  size_t n;
  double lr;
  double beta1;
  double beta2;
  double one_minus_beta1;
  double one_minus_beta2;
  double bias_correction1;
  double bias_correction2;
  double eps;
  double weight_decay;
};

// One vector level's kernels: ops.cc picks one per process, the widest the
// CPU has (KernelIsa() in ops.h names it), and Active() returns it to the
// rest of rll_tensor.
struct Level {
  // "avx512f", "avx2", "sse2" or "neon".
  const char* name;
  // Rows [row_begin, row_end) of C. k ≥ 1.
  void (*gemm_rows)(const GemmOperands& g, size_t row_begin, size_t row_end);
  // x[i] = tanh(x[i]) for i in [0, n).
  void (*tanh)(double* x, size_t n);
  // x[i] = e^x[i] for i in [0, n).
  void (*exp)(double* x, size_t n);
  // x[i] = σ(x[i]) = 1/(1 + e^−x[i]) for i in [0, n).
  void (*sigmoid)(double* x, size_t n);
  // p[i] = σ(z_i) for i in [row_begin, row_end).
  void (*logistic_proba)(const LogisticOperands& op, size_t row_begin,
                         size_t row_end, double* p);
  // With err_i = (σ(z_i) − t_i)·s_i / weight_sum over all n rows:
  // grad_w[j] = Σ err_i·x_ij and *grad_b = Σ err_i, each summed over i
  // ascending from +0.
  void (*logistic_gradient)(const LogisticOperands& op, double* grad_w,
                            double* grad_b);
  // y[i] += x[i] for i in [0, n).
  void (*add)(double* y, const double* x, size_t n);
  // y[r][c] += bias[c] over the rows × cols row-major y.
  void (*add_bias)(double* y, size_t rows, size_t cols, const double* bias);
  // y[r][c] = tanh(y[r][c] + bias[c]), with the tanh kernel's tanh.
  void (*add_bias_tanh)(double* y, size_t rows, size_t cols,
                        const double* bias);
  // dz[i] = dy[i]·(1 − y[i]·y[i]) for i in [0, n).
  void (*tanh_grad)(const double* y, const double* dy, double* dz, size_t n);
  // out[c] = Σ a[r][c] over r ascending from +0, for c in [0, cols).
  void (*col_sum)(const double* a, size_t rows, size_t cols, double* out);
  // Rows [row_begin, row_end) of the row-cosine gradients.
  void (*row_cosine_grad)(const RowCosineOperands& op, size_t row_begin,
                          size_t row_end);
  // One Adam update of op.n parameters in place.
  void (*adam_step)(const AdamOperands& op);
};

// Each level's table, defined by its kernels_<level>.cc; avx2 and avx512f
// exist on x86-64 builds only.
namespace baseline {
const Level& Table();
}
namespace avx2 {
const Level& Table();
}
namespace avx512f {
const Level& Table();
}

const Level& Active();

}  // namespace rll::kernels

#endif  // RLL_TENSOR_KERNELS_H_
