// The tensor kernels at 2 lanes (SSE2 on x86-64, NEON on aarch64): the
// level every build has and any CPU runs. See kernels.h for the rules.
#include "tensor/kernels.h"

namespace rll::kernels::baseline {
namespace {
constexpr size_t kLanes = 2;
constexpr size_t kTileVectors = 4;
#include "tensor/kernels.inc"
}  // namespace

const Level& Table() {
#if defined(__aarch64__)
  static constexpr Level kLevel = MakeLevel("neon");
#else
  static constexpr Level kLevel = MakeLevel("sse2");
#endif
  return kLevel;
}

}  // namespace rll::kernels::baseline
