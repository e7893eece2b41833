// The tensor kernels at 2 lanes (SSE2 on x86-64, NEON on aarch64): the
// level every build has and any CPU runs. See kernels.h for the rules.
#include "tensor/kernels.h"

namespace rll::kernels::baseline {
namespace {
constexpr size_t kLanes = 2;
constexpr size_t kTileVectors = 4;
#include "tensor/kernels.inc"
}  // namespace

void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end) {
  GemmRowRange(*g, row_begin, row_end);
}

void Tanh(double* x, size_t n) { TanhRange(x, n); }

void Exp(double* x, size_t n) { ExpRange(x, n); }

void Sigmoid(double* x, size_t n) { SigmoidRange(x, n); }

void LogisticProba(const LogisticOperands* op, size_t row_begin,
                   size_t row_end, double* p) {
  LogisticProbaRange(*op, row_begin, row_end, p);
}

void LogisticGradient(const LogisticOperands* op, double* grad_w,
                      double* grad_b) {
  LogisticGradientRange(*op, grad_w, grad_b);
}

}  // namespace rll::kernels::baseline
