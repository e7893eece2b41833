// Command-line driver for the repo's static checks: the style rules
// (tools/analyze/linter.h) and the layering, determinism, and
// lock-discipline passes (tools/analyze/passes.h).
//
//   rll_analyze [--root <dir>] [--allowlist <file>] [file...]
//
// With no files, walks the root (default: cwd): the style rules run over
// every .h/.cc under src/, tests/, bench/, tools/, and examples/, the
// analysis passes over src/. With files, checks just those (paths relative
// to the root). The layering allowlist defaults to
// <root>/tools/analyze/layering_allowlist.txt and is optional — a missing
// file means an empty allowlist. Exit code: 0 clean, 1 violations, 2 usage
// error. Registered as a CTest test so `ctest` fails on any new violation.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/linter.h"
#include "analyze/passes.h"

namespace {

using rll::analyze::Violation;

/// Drops trailing slashes ("/repo/" -> "/repo") so reported paths never
/// contain "//". Leaves bare "/" and "." alone.
std::string NormalizeRoot(std::string root) {
  while (root.size() > 1 && (root.back() == '/' || root.back() == '\\')) {
    root.pop_back();
  }
  return root;
}

void Append(std::vector<Violation>* all, std::vector<Violation> more) {
  all->insert(all->end(), std::make_move_iterator(more.begin()),
              std::make_move_iterator(more.end()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string allowlist_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rll_analyze: --root requires a directory\n");
        return 2;
      }
      root = NormalizeRoot(argv[++i]);
    } else if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rll_analyze: --allowlist requires a file\n");
        return 2;
      }
      allowlist_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: rll_analyze [--root <dir>] [--allowlist <file>] "
          "[file...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "rll_analyze: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  // A mistyped root would otherwise check zero files and "pass".
  if (!std::filesystem::is_directory(root)) {
    std::fprintf(stderr, "rll_analyze: root '%s' is not a directory\n",
                 root.c_str());
    return 2;
  }

  rll::analyze::AnalyzeOptions options;
  const bool explicit_allowlist = !allowlist_path.empty();
  if (!explicit_allowlist) {
    allowlist_path = root + "/tools/analyze/layering_allowlist.txt";
  }
  {
    std::ifstream in(allowlist_path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      options.layering_allowlist =
          rll::analyze::ParseLayeringAllowlist(buffer.str());
    } else if (explicit_allowlist) {
      std::fprintf(stderr, "rll_analyze: cannot read allowlist '%s'\n",
                   allowlist_path.c_str());
      return 2;
    }
  }

  std::vector<Violation> violations;
  if (files.empty()) {
    Append(&violations, rll::analyze::LintTree(root));
    Append(&violations, rll::analyze::AnalyzeTree(root, options));
  } else {
    for (const std::string& f : files) {
      std::vector<Violation> style = rll::analyze::LintFile(root, f);
      // An unreadable file is reported once, by the style pass.
      const bool unreadable = !style.empty() && style[0].rule == "io-error";
      Append(&violations, std::move(style));
      if (!unreadable) {
        Append(&violations, rll::analyze::AnalyzeFile(root, f, options));
      }
    }
  }

  for (const Violation& v : violations) {
    std::printf("%s\n", rll::analyze::FormatViolation(v).c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "rll_analyze: %zu violation(s)\n",
                 violations.size());
    return 1;
  }
  return 0;
}
