// The tensor kernels at 8 lanes, built with -mavx512f (never -mfma) on
// x86-64 only, and run only where glibc reports AVX512F and AVX2 active.
// See kernels.h for the rules.
#include "tensor/kernels.h"

namespace rll::kernels::avx512f {
namespace {
constexpr size_t kLanes = 8;
constexpr size_t kTileVectors = 4;
#include "tensor/kernels.inc"
}  // namespace

const Level& Table() {
  static constexpr Level kLevel = MakeLevel("avx512f");
  return kLevel;
}

}  // namespace rll::kernels::avx512f
