#include "analyze/passes.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "analyze/text_util.h"

namespace rll::analyze {

namespace {

struct ModuleRank {
  std::string_view module;
  int rank;
};

// The include DAG. Same-rank includes are allowed (crowd may use classify);
// higher-rank includes are violations unless allowlisted.
constexpr std::array<ModuleRank, 12> kRanks = {{
    {"common", 0},
    {"obs", 1},
    {"tensor", 2},
    {"autograd", 3},
    {"nn", 4},
    {"classify", 5},
    {"crowd", 5},
    {"data", 5},
    {"text", 5},
    {"baselines", 6},
    {"core", 6},
    {"serve", 7},
}};

/// "src/obs/trace.cc" -> "obs"; empty outside src/ or for flat paths.
std::string_view ModuleOfPath(std::string_view rel_path) {
  if (!StartsWith(rel_path, "src/")) return {};
  std::string_view rest = rel_path.substr(4);
  const size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return rest.substr(0, slash);
}

/// "obs/trace.h" -> "obs" when the prefix is a known module; empty for
/// system headers and third-party includes.
std::string_view ModuleOfInclude(std::string_view target) {
  const size_t slash = target.find('/');
  if (slash == std::string_view::npos) return {};
  const std::string_view module = target.substr(0, slash);
  return LayerRank(module) >= 0 ? module : std::string_view{};
}

/// Raw concurrency primitives banned outside src/common/mutex.h.
constexpr std::array<std::string_view, 9> kRawLockTypes = {
    "mutex",          "recursive_mutex",
    "timed_mutex",    "shared_mutex",
    "lock_guard",     "unique_lock",
    "scoped_lock",    "condition_variable",
    "condition_variable_any",
};

bool IsRawLockType(std::string_view ident) {
  return std::find(kRawLockTypes.begin(), kRawLockTypes.end(), ident) !=
         kRawLockTypes.end();
}

class FileAnalyzer {
 public:
  FileAnalyzer(std::string_view rel_path, std::string_view content,
               const AnalyzeOptions& options)
      : rel_path_(rel_path),
        options_(options),
        code_(BlankCommentsAndLiterals(content)),
        raw_lines_(SplitLines(content)),
        code_lines_(SplitLines(code_)) {}

  std::vector<Violation> Run() {
    // All passes scope to src/: tests, bench, tools, and examples may
    // reach across layers and use ad-hoc primitives.
    if (!StartsWith(rel_path_, "src/")) return {};
    LayeringPass();
    DeterminismPass();
    HotPathPass();
    // The wrapper itself is the one place raw primitives may live.
    if (rel_path_ != "src/common/mutex.h") LockDisciplinePass();
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return a.line < b.line;
              });
    return std::move(violations_);
  }

 private:
  void Report(size_t line, std::string rule, std::string message) {
    const std::string_view original =
        line >= 1 && line <= raw_lines_.size() ? raw_lines_[line - 1]
                                               : std::string_view{};
    if (LineWaives(original, "rll-analyze", rule)) return;
    violations_.push_back(
        {std::string(rel_path_), line, std::move(rule), std::move(message)});
  }

  // ------------------------------------------------------------ layering

  void LayeringPass() {
    const std::string_view module = ModuleOfPath(rel_path_);
    const int rank = LayerRank(module);
    if (rank < 0) return;  // Unranked src/ file (none today).
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string_view target = IncludeTarget(code_lines_[i]);
      if (target.empty()) continue;
      const std::string_view inc_module = ModuleOfInclude(target);
      if (inc_module.empty()) continue;
      const int inc_rank = LayerRank(inc_module);
      if (inc_rank <= rank) continue;
      const std::string edge =
          std::string(rel_path_) + " -> " + std::string(inc_module);
      if (std::find(options_.layering_allowlist.begin(),
                    options_.layering_allowlist.end(),
                    edge) != options_.layering_allowlist.end()) {
        continue;
      }
      Report(i + 1, "layering",
             "module '" + std::string(module) + "' (rank " +
                 std::to_string(rank) + ") must not include '" +
                 std::string(target) + "' from higher-rank module '" +
                 std::string(inc_module) + "' (rank " +
                 std::to_string(inc_rank) +
                 ") — add the edge to tools/analyze/layering_allowlist.txt "
                 "only for cross-cutting instrumentation");
    }
  }

  // --------------------------------------------------------- determinism

  void DeterminismPass() {
    CollectUnorderedNames();
    WalkTokens();
    CheckUnorderedIteration();
  }

  /// Token walk with one-token lookbehind, mirroring linter.cc's
  /// CheckTokens: distinguishes free calls from members (`obj.time()`) and
  /// other-namespace qualifications (`io::time()`).
  void WalkTokens() {
    std::string prev, prev2;
    size_t line = 1;
    const std::string_view code = code_;
    for (size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '\n') {
        ++line;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (IsIdentChar(c)) {
        size_t j = i;
        while (j < code.size() && IsIdentChar(code[j])) ++j;
        const std::string ident(code.substr(i, j - i));
        size_t k = j;
        while (k < code.size() &&
               std::isspace(static_cast<unsigned char>(code[k])) &&
               code[k] != '\n')
          ++k;
        const bool called = k < code.size() && code[k] == '(';
        HandleIdentifier(ident, called, prev, prev2, line, j);
        prev2 = prev;
        prev = ident;
        i = j - 1;
        continue;
      }
      std::string tok(1, c);
      if ((c == '-' || c == ':') && i + 1 < code.size() &&
          ((c == '-' && code[i + 1] == '>') ||
           (c == ':' && code[i + 1] == ':'))) {
        tok += code[i + 1];
        ++i;
      }
      prev2 = prev;
      prev = tok;
    }
  }

  static bool IsFreeOrStd(const std::string& prev, const std::string& prev2) {
    if (prev == "." || prev == "->") return false;
    if (prev == "::") return prev2 == "std" || prev2 == "chrono";
    return true;
  }

  void HandleIdentifier(const std::string& ident, bool called,
                        const std::string& prev, const std::string& prev2,
                        size_t line, size_t after) {
    if (ident == "system_clock" && IsFreeOrStd(prev, prev2)) {
      Report(line, "wall-clock",
             "std::chrono::system_clock reads wall time; results must not "
             "depend on when they ran — use steady_clock for durations");
      return;
    }
    if (ident == "time" && called && IsFreeOrStd(prev, prev2) &&
        prev != "::") {
      // `std::time(` / bare `time(` — wall clock. `x.time()` and
      // `foo::time()` (prev == "::" with non-std qualifier already
      // filtered) are someone else's accessor.
      Report(line, "wall-clock",
             "time() reads wall time; results must not depend on when "
             "they ran");
      return;
    }
    if (ident == "time" && called && prev == "::" && prev2 == "std") {
      Report(line, "wall-clock",
             "std::time() reads wall time; results must not depend on "
             "when they ran");
      return;
    }
    if (ident == "random_device" && IsFreeOrStd(prev, prev2)) {
      Report(line, "random-device",
             "std::random_device is an unseedable entropy source; draw "
             "from the seedable common/rng.h instead");
      return;
    }
    if ((ident == "mt19937" || ident == "mt19937_64") &&
        IsFreeOrStd(prev, prev2)) {
      if (IsDefaultConstructed(after)) {
        Report(line, "unseeded-mt19937",
               "default-constructed std::" + ident +
                   " uses the fixed default seed everywhere it appears; "
                   "seed it explicitly from common/rng.h");
      }
      return;
    }
    if (IsRawLockType(ident) && prev == "::" && prev2 == "std") {
      // Recorded during the same walk; reported by LockDisciplinePass so
      // the mutex.h exemption and include checks stay in one place.
      raw_lock_uses_.push_back({line, ident});
    }
  }

  /// True when the text after the engine type names a variable with no
  /// constructor arguments (`std::mt19937 gen;`) or is an empty direct
  /// construction (`std::mt19937()` / `{}`). Seeded forms —
  /// `std::mt19937 gen(seed)`, `std::mt19937{seed}` — pass. Type-only
  /// mentions (parameters, template arguments) pass too.
  bool IsDefaultConstructed(size_t after) const {
    const std::string_view code = code_;
    size_t i = after;
    auto skip_ws = [&] {
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
    };
    skip_ws();
    if (i >= code.size()) return false;
    if (code[i] == '(' || code[i] == '{') {
      // Direct construction: empty parens/braces = default seed.
      const char close = code[i] == '(' ? ')' : '}';
      ++i;
      skip_ws();
      return i < code.size() && code[i] == close;
    }
    if (!IsIdentChar(code[i])) return false;  // Type-only mention.
    while (i < code.size() && IsIdentChar(code[i])) ++i;  // Variable name.
    skip_ws();
    if (i >= code.size()) return false;
    if (code[i] == ';') return true;  // `std::mt19937 gen;`
    if (code[i] == '(' || code[i] == '{') {
      const char close = code[i] == '(' ? ')' : '}';
      ++i;
      skip_ws();
      return i < code.size() && code[i] == close;
    }
    return false;  // Parameter, reference binding, assignment target, ...
  }

  /// Finds names declared as std::unordered_map / std::unordered_set in
  /// this file (skipping the balanced `<...>` template argument list).
  void CollectUnorderedNames() {
    const std::string_view code = code_;
    for (size_t i = 0; i + 9 < code.size(); ++i) {
      if (!StartsWith(code.substr(i), "unordered_")) continue;
      if (i > 0 && IsIdentChar(code[i - 1])) continue;
      size_t j = i;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      const std::string_view kind = code.substr(i, j - i);
      if (kind != "unordered_map" && kind != "unordered_set" &&
          kind != "unordered_multimap" && kind != "unordered_multiset") {
        i = j;
        continue;
      }
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j])))
        ++j;
      if (j >= code.size() || code[j] != '<') {
        i = j;
        continue;
      }
      int depth = 0;
      while (j < code.size()) {
        if (code[j] == '<') ++depth;
        if (code[j] == '>' && --depth == 0) {
          ++j;
          break;
        }
        ++j;
      }
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j])))
        ++j;
      size_t name_start = j;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (j > name_start) {
        unordered_names_.push_back(
            std::string(code.substr(name_start, j - name_start)));
      }
      i = j;
    }
  }

  /// Flags range-for over, or .begin()/.cbegin()/.rbegin() on, any name
  /// declared unordered in this file. Hash-order iteration is the one way
  /// the containers' platform-dependent order can leak into results;
  /// find/count/operator[] stay silent.
  void CheckUnorderedIteration() {
    if (unordered_names_.empty()) return;
    for (size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      for (const std::string& name : unordered_names_) {
        bool hit = false;
        // `for (... : name)` — range-for directly over the container.
        const size_t colon = line.find(':');
        if (line.find("for") != std::string_view::npos &&
            colon != std::string_view::npos) {
          std::string_view rest = Trim(line.substr(colon + 1));
          if (StartsWith(rest, name) &&
              (rest.size() == name.size() ||
               !IsIdentChar(rest[name.size()]))) {
            hit = true;
          }
        }
        for (std::string_view method : {".begin(", ".cbegin(", ".rbegin("}) {
          if (line.find(name + std::string(method)) !=
              std::string_view::npos) {
            hit = true;
          }
        }
        if (hit) {
          Report(li + 1, "unordered-iteration",
                 "iterating '" + name +
                     "' (declared std::unordered_*) — hash order is "
                     "nondeterministic across platforms; copy keys into a "
                     "sorted vector or use std::map");
        }
      }
    }
  }

  // ------------------------------------------------------------ hot path

  /// Allocation ban for files tagged `// rll-analyze: hot-path` (the tag
  /// lives in a comment, so it is searched in the raw text). Tagged files
  /// carry the trainer batch loop or the serve request path; the rule
  /// keeps "allocation-free at steady state" an enforced property instead
  /// of a comment. Flagged:
  ///   - `new` anywhere (except `operator new` declarations),
  ///   - malloc / calloc / realloc calls anywhere,
  ///   - `std::vector<...>` constructed inside a loop body (a fresh
  ///     vector per iteration is the classic hidden allocation; hoist it
  ///     or take a Workspace buffer).
  void HotPathPass() {
    bool tagged = false;
    for (std::string_view line : raw_lines_) {
      if (line.find("rll-analyze: hot-path") != std::string_view::npos) {
        tagged = true;
        break;
      }
    }
    if (!tagged) return;

    const std::string_view code = code_;
    std::string prev;
    size_t line = 1;
    int brace_depth = 0;
    bool pending_header = false;  // Saw for/while; its '(' is next.
    bool in_header = false;       // Inside the for/while parens.
    int header_parens = 0;
    bool expect_body = false;     // Header closed; body token is next.
    // Brace depths whose enclosing block is a loop body, and depths at
    // which a brace-less loop body statement is still running.
    std::vector<int> loop_bodies;
    std::vector<int> single_stmt_bodies;

    for (size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '\n') {
        ++line;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (expect_body) {
        expect_body = false;
        if (c == ';') {  // Empty body / do-while tail: nothing to track.
          prev = ";";
          continue;
        }
        if (c == '{') {
          loop_bodies.push_back(++brace_depth);
          prev = "{";
          continue;
        }
        single_stmt_bodies.push_back(brace_depth);  // Brace-less body.
      }
      if (IsIdentChar(c)) {
        size_t j = i;
        while (j < code.size() && IsIdentChar(code[j])) ++j;
        const std::string ident(code.substr(i, j - i));
        size_t k = j;
        while (k < code.size() &&
               std::isspace(static_cast<unsigned char>(code[k])))
          ++k;
        const char next = k < code.size() ? code[k] : '\0';
        const bool in_loop =
            !loop_bodies.empty() || !single_stmt_bodies.empty();
        if ((ident == "for" || ident == "while") && prev != "." &&
            prev != "->" && next == '(') {
          pending_header = true;
        } else if (ident == "do" && next == '{') {
          expect_body = true;
        } else if (ident == "new" && prev != "operator") {
          Report(line, "hot-path-alloc",
                 "naked `new` in a hot-path file — this code must be "
                 "allocation-free at steady state; use a Workspace buffer, "
                 "ScratchVector, or hoist the allocation out of the hot "
                 "path");
        } else if ((ident == "malloc" || ident == "calloc" ||
                    ident == "realloc") &&
                   next == '(' && prev != "." && prev != "->") {
          Report(line, "hot-path-alloc",
                 ident +
                     "() in a hot-path file — this code must be "
                     "allocation-free at steady state");
        } else if (ident == "vector" && next == '<' && in_loop &&
                   !in_header) {
          Report(line, "hot-path-alloc",
                 "std::vector constructed inside a loop in a hot-path "
                 "file — a fresh vector per iteration allocates every "
                 "pass; hoist it (reusing capacity) or take a Workspace "
                 "buffer");
        }
        prev = ident;
        i = j - 1;
        continue;
      }
      if (pending_header && c == '(') {
        pending_header = false;
        in_header = true;
        header_parens = 1;
        prev = "(";
        continue;
      }
      if (in_header) {
        if (c == '(') ++header_parens;
        if (c == ')' && --header_parens == 0) {
          in_header = false;
          expect_body = true;
        }
        prev = std::string(1, c);
        continue;
      }
      if (c == '{') {
        ++brace_depth;
      } else if (c == '}') {
        if (!loop_bodies.empty() && loop_bodies.back() == brace_depth) {
          loop_bodies.pop_back();
        }
        --brace_depth;
      } else if (c == ';') {
        while (!single_stmt_bodies.empty() &&
               single_stmt_bodies.back() == brace_depth) {
          single_stmt_bodies.pop_back();
        }
      }
      std::string tok(1, c);
      if ((c == '-' || c == ':') && i + 1 < code.size() &&
          ((c == '-' && code[i + 1] == '>') ||
           (c == ':' && code[i + 1] == ':'))) {
        tok += code[i + 1];
        ++i;
      }
      prev = tok;
    }
  }

  // ----------------------------------------------------- lock discipline

  void LockDisciplinePass() {
    for (size_t i = 0; i < code_lines_.size(); ++i) {
      const std::string_view target = IncludeTarget(code_lines_[i]);
      if (target == "mutex" || target == "condition_variable" ||
          target == "shared_mutex") {
        Report(i + 1, "lock-discipline",
               "<" + std::string(target) +
                   "> outside src/common/mutex.h — use the annotated "
                   "rll::Mutex wrapper so -Wthread-safety sees the lock");
      }
    }
    for (const auto& [line, ident] : raw_lock_uses_) {
      Report(line, "lock-discipline",
             "raw std::" + ident +
                 " outside src/common/mutex.h — use rll::Mutex / "
                 "rll::MutexLock / rll::CondVar so -Wthread-safety sees "
                 "the lock");
    }
  }

  std::string_view rel_path_;
  const AnalyzeOptions& options_;
  std::string code_;
  std::vector<std::string_view> raw_lines_;
  std::vector<std::string_view> code_lines_;
  std::vector<std::string> unordered_names_;
  std::vector<std::pair<size_t, std::string>> raw_lock_uses_;
  std::vector<Violation> violations_;
};

}  // namespace

int LayerRank(std::string_view module) {
  for (const ModuleRank& entry : kRanks) {
    if (entry.module == module) return entry.rank;
  }
  return -1;
}

std::vector<std::string> ParseLayeringAllowlist(std::string_view content) {
  std::vector<std::string> entries;
  for (std::string_view line : SplitLines(content)) {
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t arrow = line.find("->");
    if (arrow == std::string_view::npos) continue;
    const std::string_view from = Trim(line.substr(0, arrow));
    const std::string_view to = Trim(line.substr(arrow + 2));
    if (from.empty() || to.empty()) continue;
    entries.push_back(std::string(from) + " -> " + std::string(to));
  }
  return entries;
}

std::vector<Violation> AnalyzeContent(std::string_view rel_path,
                                      std::string_view content,
                                      const AnalyzeOptions& options) {
  return FileAnalyzer(rel_path, content, options).Run();
}

std::vector<Violation> AnalyzeFile(const std::filesystem::path& root,
                                   const std::string& rel_path,
                                   const AnalyzeOptions& options) {
  const std::filesystem::path full = root / rel_path;
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    return {{rel_path, 0, "io-error", "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return AnalyzeContent(rel_path, buffer.str(), options);
}

std::vector<Violation> AnalyzeTree(const std::filesystem::path& root,
                                   const AnalyzeOptions& options) {
  std::vector<std::string> files;
  const std::filesystem::path base = root / "src";
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(base, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::filesystem::path& p = it->path();
    if (p.extension() != ".h" && p.extension() != ".cc") continue;
    files.push_back(std::filesystem::relative(p, root, ec).generic_string());
  }
  std::sort(files.begin(), files.end());
  std::vector<Violation> all;
  for (const std::string& f : files) {
    std::vector<Violation> v = AnalyzeFile(root, f, options);
    all.insert(all.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return all;
}

}  // namespace rll::analyze
