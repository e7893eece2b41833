// The kernel level (KernelIsa() in tensor/ops.h) a test process should
// run at, worked out without the library's dispatch: the widest level the
// compiler's own CPUID probe (__builtin_cpu_supports) finds, capped by any
// -AVX512F or -AVX2 in the glibc.cpu.hwcaps entry of GLIBC_TUNABLES. The
// masked reruns in tests/CMakeLists.txt compare the two, so a mask that
// stopped narrowing the dispatch fails there instead of testing the widest
// kernels twice, and the default run fails if the dispatch stopped picking
// the widest level.

#ifndef RLL_TESTS_KERNEL_ISA_EXPECT_H_
#define RLL_TESTS_KERNEL_ISA_EXPECT_H_

#include <cstdlib>
#include <string>

namespace rll {

/// True when GLIBC_TUNABLES (name=value pairs joined by ':') sets
/// glibc.cpu.hwcaps to a comma-separated list holding "-<feature>".
inline bool HwcapsMasks(const std::string& feature) {
  const char* env = std::getenv("GLIBC_TUNABLES");
  if (env == nullptr) return false;
  const std::string tunables = env;
  const std::string key = "glibc.cpu.hwcaps=";
  const size_t at = tunables.find(key);
  if (at == std::string::npos) return false;
  const size_t begin = at + key.size();
  // With no ':' after it, end - begin runs past the end: substr clamps.
  const size_t end = tunables.find(':', begin);
  const std::string list = "," + tunables.substr(begin, end - begin) + ",";
  return list.find(",-" + feature + ",") != std::string::npos;
}

inline std::string ExpectedKernelIsa() {
#if defined(__x86_64__) && __has_include(<sys/platform/x86.h>)
  const bool avx2 = __builtin_cpu_supports("avx2") && !HwcapsMasks("AVX2");
  const bool avx512f =
      __builtin_cpu_supports("avx512f") && !HwcapsMasks("AVX512F");
  if (avx512f && avx2) return "avx512f";
  if (avx2) return "avx2";
#endif
#if defined(__aarch64__)
  return "neon";
#else
  return "sse2";
#endif
}

}  // namespace rll

#endif  // RLL_TESTS_KERNEL_ISA_EXPECT_H_
