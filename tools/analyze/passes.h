// File-level analysis passes of rll_analyze, enforcing the repo's layering,
// determinism, and lock-discipline invariants. Complements the style rules
// in linter.h; the binary runs both as one CTest gate on every build.
//
//   layering            src/ modules may only include same- or lower-rank
//                       modules in the DAG
//                         common -> obs -> tensor -> autograd -> nn
//                           -> {classify, crowd, data, text}
//                           -> {baselines, core} -> serve
//                       (obs ranks where the build puts it: rll_obs links
//                       only rll_common). Exceptions live in an explicit
//                       allowlist file, one edge per line.
//   wall-clock          no time() / std::chrono::system_clock in src/ —
//                       results must not depend on wall time
//                       (steady_clock for durations is fine)
//   random-device       no std::random_device — all randomness flows
//                       through the seedable common/rng.h
//   unseeded-mt19937    no default-constructed std::mt19937 — an engine
//                       without an explicit seed is a hidden global seed
//   unordered-iteration no iteration over std::unordered_map/set —
//                       hash-order is nondeterministic across platforms;
//                       membership tests and indexed lookups are fine
//   lock-discipline     no raw std::mutex / lock_guard / unique_lock /
//                       condition_variable outside src/common/mutex.h —
//                       concurrency goes through the annotated wrapper so
//                       clang -Wthread-safety sees every lock
//   hot-path-alloc      files tagged `// rll-analyze: hot-path` sit on the
//                       trainer batch loop or the serve request path and
//                       must stay allocation-free at steady state: naked
//                       new and malloc/calloc/realloc are banned anywhere
//                       in the file, and constructing a std::vector inside
//                       a loop body is banned (hoist it and reuse the
//                       capacity, or use a Workspace / ScratchVector)
//
// All passes apply to src/** only (tests, bench, tools, and examples may
// see everything and are free to use ad-hoc primitives). A violation can
// be waived on its line with `// rll-analyze: allow(<rule>)`; use
// sparingly and say why.

#ifndef RLL_TOOLS_ANALYZE_PASSES_H_
#define RLL_TOOLS_ANALYZE_PASSES_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/linter.h"

namespace rll::analyze {

struct AnalyzeOptions {
  /// Permitted layering edges, each "src/<path>.cc -> <module>" (exact
  /// file, target module). Normally parsed from
  /// tools/analyze/layering_allowlist.txt.
  std::vector<std::string> layering_allowlist;
};

/// Rank of a src/ module in the include DAG; -1 for unknown names.
/// Includes may only point at equal or lower rank.
int LayerRank(std::string_view module);

/// Parses allowlist text: one "src/x/y.cc -> module" edge per line, '#'
/// comments and blank lines ignored. Whitespace around the arrow is
/// flexible; entries are returned in canonical "<file> -> <module>" form.
std::vector<std::string> ParseLayeringAllowlist(std::string_view content);

/// Runs every pass over file contents. `rel_path` is repo-relative (e.g.
/// "src/obs/trace.cc"); files outside src/ produce no violations.
std::vector<Violation> AnalyzeContent(std::string_view rel_path,
                                      std::string_view content,
                                      const AnalyzeOptions& options = {});

/// Reads and analyzes one file under `root`. I/O errors surface as a
/// synthetic "io-error" violation.
std::vector<Violation> AnalyzeFile(const std::filesystem::path& root,
                                   const std::string& rel_path,
                                   const AnalyzeOptions& options = {});

/// Walks src/ under `root` and analyzes every *.h / *.cc file.
std::vector<Violation> AnalyzeTree(const std::filesystem::path& root,
                                   const AnalyzeOptions& options = {});

}  // namespace rll::analyze

#endif  // RLL_TOOLS_ANALYZE_PASSES_H_
