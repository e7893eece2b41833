// The tensor kernels at 4 lanes, built with -mavx2 (never -mfma) on
// x86-64 only, and run only where glibc reports AVX2 active. See
// kernels.h for the rules.
#include "tensor/kernels.h"

namespace rll::kernels::avx2 {
namespace {
constexpr size_t kLanes = 4;
constexpr size_t kTileVectors = 2;
#include "tensor/kernels.inc"
}  // namespace

const Level& Table() {
  static constexpr Level kLevel = MakeLevel("avx2");
  return kLevel;
}

}  // namespace rll::kernels::avx2
