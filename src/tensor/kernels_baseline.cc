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

}  // namespace rll::kernels::baseline
