// Private to rll_tensor: the entry points of the vector kernels (GEMM,
// tanh, exp, the sigmoid and the logistic-regression pass), built once per
// vector width from the one source in kernels.inc.
//
//   baseline  2 lanes: SSE2 on x86-64, NEON on aarch64 (every build)
//   avx2      4 lanes: kernels_avx2.cc, -mavx2 (x86-64 builds only)
//   avx512f   8 lanes: kernels_avx512f.cc, -mavx512f (x86-64 builds only)
//
// ops.cc picks one level per process (KernelIsa() in ops.h names it).
// Every level returns the same bits: each C element is summed over k
// ascending from +0 with a separate multiply and add; each tanh, exp and
// sigmoid lane depends on its own input alone; and each logistic score
// sums its row in one fixed tree (LogisticOperands), at any lane count.
//
// Rules for the per-level files, which the `tensor.kernel_symbols` ctest
// checks with nm: each one includes kernels.inc inside an anonymous
// namespace and defines the six entry points below and nothing else with
// external linkage. It includes no header that defines an inline function
// or template that another file also compiles: the linker keeps one copy
// of such a function for the whole program, and if that were the -mavx512f
// copy, CPUs without AVX-512 would die of SIGILL wherever it is called.
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

namespace baseline {
// Rows [row_begin, row_end) of C. k ≥ 1.
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
// x[i] = tanh(x[i]) for i in [0, n).
void Tanh(double* x, size_t n);
// x[i] = e^x[i] for i in [0, n).
void Exp(double* x, size_t n);
// x[i] = σ(x[i]) = 1/(1 + e^−x[i]) for i in [0, n).
void Sigmoid(double* x, size_t n);
// p[i] = σ(z_i) for i in [row_begin, row_end).
void LogisticProba(const LogisticOperands* op, size_t row_begin,
                   size_t row_end, double* p);
// With err_i = (σ(z_i) − t_i)·s_i / weight_sum over all n rows:
// grad_w[j] = Σ err_i·x_ij and *grad_b = Σ err_i, each summed over i
// ascending from +0.
void LogisticGradient(const LogisticOperands* op, double* grad_w,
                      double* grad_b);
}  // namespace baseline

namespace avx2 {
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
void Tanh(double* x, size_t n);
void Exp(double* x, size_t n);
void Sigmoid(double* x, size_t n);
void LogisticProba(const LogisticOperands* op, size_t row_begin,
                   size_t row_end, double* p);
void LogisticGradient(const LogisticOperands* op, double* grad_w,
                      double* grad_b);
}  // namespace avx2

namespace avx512f {
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
void Tanh(double* x, size_t n);
void Exp(double* x, size_t n);
void Sigmoid(double* x, size_t n);
void LogisticProba(const LogisticOperands* op, size_t row_begin,
                   size_t row_end, double* p);
void LogisticGradient(const LogisticOperands* op, double* grad_w,
                      double* grad_b);
}  // namespace avx512f

}  // namespace rll::kernels

#endif  // RLL_TENSOR_KERNELS_H_
