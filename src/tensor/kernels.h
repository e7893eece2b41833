// Private to rll_tensor: the entry points of the GEMM and tanh kernels,
// built once per vector width from the one source in kernels.inc.
//
//   baseline  2 lanes: SSE2 on x86-64, NEON on aarch64 (every build)
//   avx2      4 lanes: kernels_avx2.cc, -mavx2 (x86-64 builds only)
//   avx512f   8 lanes: kernels_avx512f.cc, -mavx512f (x86-64 builds only)
//
// ops.cc picks one level per process (KernelIsa() in ops.h names it).
// Every level returns the same bits: each C element is summed over k
// ascending from +0 with a separate multiply and add, and each tanh lane
// depends on its own input alone, at any lane count.
//
// Rules for the per-level files, which the `tensor.kernel_symbols` ctest
// checks with nm: each one includes kernels.inc inside an anonymous
// namespace and defines the two entry points below and nothing else with
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

namespace baseline {
// Rows [row_begin, row_end) of C. k ≥ 1.
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
// x[i] = tanh(x[i]) for i in [0, n).
void Tanh(double* x, size_t n);
}  // namespace baseline

namespace avx2 {
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
void Tanh(double* x, size_t n);
}  // namespace avx2

namespace avx512f {
void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end);
void Tanh(double* x, size_t n);
}  // namespace avx512f

}  // namespace rll::kernels

#endif  // RLL_TENSOR_KERNELS_H_
