// libFuzzer harness for the serving protocol's wire code: the JSON
// tokenizer, ParseJson, ParseRequest and AppendResponse. They consume
// bytes straight off the network, so they get fuzzed, and for
// differences, not only for crashes: every input runs through the
// library and through the previous parser and serializer kept in
// tests/wire_reference.cc, and any difference aborts — accept or reject,
// error message, echoed id, a Request field, a value's bits, or the
// bytes of the response built from an accepted data-plane request.
//
// Built by the RLL_FUZZ CMake option. Under clang this links the real
// libFuzzer (-fsanitize=fuzzer,address); under other compilers
// RLL_FUZZ_STANDALONE provides a main() that replays files given on the
// command line (corpus regression mode), so the harness itself compiles
// everywhere.
//
//   ./json_fuzz tools/fuzz/corpus -max_total_time=30   # fuzzing (clang)
//   ./json_fuzz tools/fuzz/corpus/*.json               # replay (any)

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/check.h"
#include "wire_reference.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const std::string difference =
      rll::serve::reference::WireDifference(text);
  if (!difference.empty()) {
    std::fprintf(stderr, "json_fuzz: library and reference differ: %s\n",
                 difference.c_str());
  }
  RLL_CHECK_MSG(difference.empty(), "wire code differs from the reference");
  return 0;
}

#if defined(RLL_FUZZ_STANDALONE)
// Corpus replay driver for toolchains without libFuzzer: runs the target
// once over each file argument and exits 0 unless the target aborts.
#include <fstream>
#include <sstream>
#include <string>

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "json_fuzz: cannot read %s\n", argv[i]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("json_fuzz: replayed %d input(s), no differences\n",
              replayed);
  return 0;
}
#endif  // RLL_FUZZ_STANDALONE
