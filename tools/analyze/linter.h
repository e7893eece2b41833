// Style rules of the repo's own static checker (rll_analyze), enforcing
// invariants that clang-tidy cannot express because they are conventions of
// *this* codebase:
//
//   header-guard        .h guards must be RLL_<PATH>_H_ (src/ prefix dropped)
//   using-namespace-std no `using namespace std` anywhere
//   iostream-in-header  no <iostream> in headers (it drags in static ctors)
//   raw-rand            no rand()/srand() outside src/common/rng.* — all
//                       randomness flows through the seedable Rng
//   abort-exit          no abort()/exit() outside common/check.h and
//                       common/status.cc — fatal paths go through RLL_CHECK
//   naked-new-delete    no naked new/delete outside src/tensor/ — ownership
//                       lives in containers and smart pointers
//   own-header-first    every src/**/foo.cc includes its foo.h first, so
//                       headers stay self-contained
//
// A violation can be waived on its line with a trailing
// `// rll-lint: allow(<rule>)` comment; use sparingly and say why.
//
// The core is a library (linted content goes in as strings) so the test
// suite can feed known-bad snippets and assert each rule fires; the
// `rll_analyze` binary wraps it with directory walking.

#ifndef RLL_TOOLS_ANALYZE_LINTER_H_
#define RLL_TOOLS_ANALYZE_LINTER_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace rll::analyze {

struct Violation {
  std::string file;     // Repo-relative path, '/' separators.
  size_t line = 0;      // 1-based.
  std::string rule;     // Rule id, e.g. "header-guard".
  std::string message;  // Human-readable explanation.
};

struct LintOptions {
  // own-header-first only applies when a sibling header actually exists;
  // the file-level entry points detect this, LintContent callers say so.
  bool own_header_exists = false;
};

/// Lints file contents. `rel_path` is the repo-relative path (e.g.
/// "src/tensor/ops.cc"); rule applicability and the expected header guard
/// are derived from it.
std::vector<Violation> LintContent(std::string_view rel_path,
                                   std::string_view content,
                                   const LintOptions& options = {});

/// Reads and lints one file under `root`. `rel_path` is relative to root.
/// I/O errors surface as a synthetic "io-error" violation.
std::vector<Violation> LintFile(const std::filesystem::path& root,
                                const std::string& rel_path);

/// Walks the standard source directories (src, tests, bench, tools,
/// examples) under `root` and lints every *.h / *.cc file found.
std::vector<Violation> LintTree(const std::filesystem::path& root);

/// "path:line: [rule] message" — one line, matching compiler diagnostics so
/// editors can jump to it.
std::string FormatViolation(const Violation& v);

/// Expected guard symbol for a header path, e.g. "src/tensor/matrix.h" ->
/// "RLL_TENSOR_MATRIX_H_", "bench/bench_common.h" ->
/// "RLL_BENCH_BENCH_COMMON_H_". Exposed for tests.
std::string ExpectedHeaderGuard(std::string_view rel_path);

}  // namespace rll::analyze

#endif  // RLL_TOOLS_ANALYZE_LINTER_H_
