// Self-test for the in-repo linter: every rule must both fire on a known-bad
// snippet and stay quiet on the idiomatic version. The repo-wide run is a
// separate CTest test (analyze.repo) registered in tools/CMakeLists.txt.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/linter.h"

namespace {

using rll::analyze::ExpectedHeaderGuard;
using rll::analyze::LintContent;
using rll::analyze::LintOptions;
using rll::analyze::Violation;

std::vector<Violation> Lint(std::string_view path, std::string_view content,
                            bool own_header_exists = false) {
  LintOptions options;
  options.own_header_exists = own_header_exists;
  return LintContent(path, content, options);
}

bool Fires(const std::vector<Violation>& violations, std::string_view rule) {
  for (const Violation& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(ExpectedHeaderGuardTest, DropsSrcPrefixAndUppercasesPath) {
  EXPECT_EQ(ExpectedHeaderGuard("src/tensor/matrix.h"), "RLL_TENSOR_MATRIX_H_");
  EXPECT_EQ(ExpectedHeaderGuard("src/common/finite_check.h"),
            "RLL_COMMON_FINITE_CHECK_H_");
  EXPECT_EQ(ExpectedHeaderGuard("bench/bench_common.h"),
            "RLL_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tools/analyze/linter.h"),
            "RLL_TOOLS_ANALYZE_LINTER_H_");
}

TEST(HeaderGuardRuleTest, FiresOnWrongGuard) {
  const auto v = Lint("src/tensor/foo.h", R"cc(
#ifndef WRONG_GUARD_H
#define WRONG_GUARD_H
#endif
)cc");
  ASSERT_TRUE(Fires(v, "header-guard"));
  EXPECT_NE(v[0].message.find("RLL_TENSOR_FOO_H_"), std::string::npos);
}

TEST(HeaderGuardRuleTest, FiresOnMissingGuardAndPragmaOnce) {
  EXPECT_TRUE(Fires(Lint("src/tensor/foo.h", "int x;\n"), "header-guard"));
  EXPECT_TRUE(
      Fires(Lint("src/tensor/foo.h", "#pragma once\nint x;\n"),
            "header-guard"));
}

TEST(HeaderGuardRuleTest, FiresOnMismatchedDefine) {
  const auto v = Lint("src/tensor/foo.h", R"cc(
#ifndef RLL_TENSOR_FOO_H_
#define RLL_TENSOR_BAR_H_
#endif
)cc");
  EXPECT_TRUE(Fires(v, "header-guard"));
}

TEST(HeaderGuardRuleTest, PassesOnConventionalGuard) {
  const auto v = Lint("src/tensor/foo.h", R"cc(
#ifndef RLL_TENSOR_FOO_H_
#define RLL_TENSOR_FOO_H_
int x;
#endif  // RLL_TENSOR_FOO_H_
)cc");
  EXPECT_TRUE(v.empty());
}

TEST(UsingNamespaceStdRuleTest, FiresInSourcesAndHeaders) {
  EXPECT_TRUE(Fires(Lint("src/core/a.cc", "using namespace std;\n"),
                    "using-namespace-std"));
  EXPECT_TRUE(Fires(Lint("tests/b_test.cc", "using namespace   std;\n"),
                    "using-namespace-std"));
}

TEST(UsingNamespaceStdRuleTest, PassesOnScopedUsingAndComments) {
  EXPECT_TRUE(Lint("src/core/a.cc", "using std::string;\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "// using namespace std;\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "using namespace rll::analyze;\n").empty());
}

TEST(IostreamInHeaderRuleTest, FiresOnlyInHeaders) {
  const std::string guard = R"cc(
#ifndef RLL_CORE_A_H_
#define RLL_CORE_A_H_
#include <iostream>
#endif
)cc";
  EXPECT_TRUE(Fires(Lint("src/core/a.h", guard), "iostream-in-header"));
  EXPECT_TRUE(Lint("src/core/a.cc", "#include <iostream>\n").empty());
}

TEST(IostreamInHeaderRuleTest, PassesOnOtherStreamHeaders) {
  const std::string content = R"cc(
#ifndef RLL_CORE_A_H_
#define RLL_CORE_A_H_
#include <ostream>
#include <sstream>
#endif
)cc";
  EXPECT_TRUE(Lint("src/core/a.h", content).empty());
}

TEST(RawRandRuleTest, FiresOnRandAndSrand) {
  EXPECT_TRUE(Fires(Lint("src/core/a.cc", "int x = rand();\n"), "raw-rand"));
  EXPECT_TRUE(
      Fires(Lint("src/core/a.cc", "std::srand(42);\n"), "raw-rand"));
}

TEST(RawRandRuleTest, PassesOnMembersOtherNamespacesAndRngFiles) {
  EXPECT_TRUE(Lint("src/core/a.cc", "rng.rand();\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "mylib::rand();\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "int brand(int);\n").empty());
  EXPECT_TRUE(Lint("src/common/rng.cc", "int x = rand();\n").empty());
}

TEST(AbortExitRuleTest, FiresOnFreeAndStdQualifiedCalls) {
  EXPECT_TRUE(Fires(Lint("src/core/a.cc", "std::abort();\n"), "abort-exit"));
  EXPECT_TRUE(Fires(Lint("src/core/a.cc", "exit(1);\n"), "abort-exit"));
  EXPECT_TRUE(Fires(Lint("tools/x.cc", "abort();\n"), "abort-exit"));
}

TEST(AbortExitRuleTest, PassesOnExemptFilesAndNonFreeUses) {
  // (check.h without its guard still trips header-guard, so test the
  // abort-exit rule specifically for the header exemption.)
  EXPECT_FALSE(
      Fires(Lint("src/common/check.h", "std::abort();\n"), "abort-exit"));
  EXPECT_TRUE(Lint("src/common/status.cc", "std::abort();\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "process::exit(1);\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "runner.abort();\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "// calls exit(1) on failure\n").empty());
}

TEST(NakedNewDeleteRuleTest, FiresOutsideTensor) {
  EXPECT_TRUE(Fires(Lint("src/core/a.cc", "int* p = new int[4];\n"),
                    "naked-new-delete"));
  EXPECT_TRUE(
      Fires(Lint("src/crowd/b.cc", "delete p;\n"), "naked-new-delete"));
}

TEST(NakedNewDeleteRuleTest, PassesInTensorForDeletedFnsAndProse) {
  EXPECT_TRUE(Lint("src/tensor/arena.cc", "double* p = new double[n];\n")
                  .empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "A(const A&) = delete;\n").empty());
  EXPECT_TRUE(
      Lint("src/core/a.cc", "auto p = std::make_unique<int>(1);\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "// allocates a new buffer\n").empty());
  EXPECT_TRUE(
      Lint("src/core/a.cc", "const char* s = \"new delete\";\n").empty());
}

TEST(OwnHeaderFirstRuleTest, FiresWhenAnotherIncludeComesFirst) {
  const auto v = Lint("src/tensor/ops.cc",
                      "#include <vector>\n#include \"tensor/ops.h\"\n",
                      /*own_header_exists=*/true);
  EXPECT_TRUE(Fires(v, "own-header-first"));
}

TEST(OwnHeaderFirstRuleTest, PassesWhenOwnHeaderLeadsOrDoesNotExist) {
  EXPECT_TRUE(Lint("src/tensor/ops.cc",
                   "#include \"tensor/ops.h\"\n#include <vector>\n",
                   /*own_header_exists=*/true)
                  .empty());
  EXPECT_TRUE(Lint("tests/ops_test.cc", "#include <vector>\n",
                   /*own_header_exists=*/false)
                  .empty());
}

TEST(WaiverTest, AllowCommentSuppressesNamedRuleOnly) {
  EXPECT_TRUE(Lint("src/core/a.cc",
                   "int* p = new int;  // rll-lint: allow(naked-new-delete)\n")
                  .empty());
  EXPECT_TRUE(Lint("src/core/a.cc",
                   "int* p = new int;  // rll-lint: allow(all)\n")
                  .empty());
  EXPECT_TRUE(Fires(Lint("src/core/a.cc",
                         "int* p = new int;  // rll-lint: allow(raw-rand)\n"),
                    "naked-new-delete"));
}

TEST(FormatViolationTest, MatchesCompilerDiagnosticShape) {
  const Violation v{"src/core/a.cc", 7, "raw-rand", "message"};
  EXPECT_EQ(rll::analyze::FormatViolation(v),
            "src/core/a.cc:7: [raw-rand] message");
}

TEST(ScannerTest, RawStringsAndDigitSeparatorsDoNotConfuseRules) {
  EXPECT_TRUE(
      Lint("src/core/a.cc", "const char* s = R\"(new delete rand())\";\n")
          .empty());
  EXPECT_TRUE(Lint("src/core/a.cc", "int big = 1'000'000;\n").empty());
  EXPECT_TRUE(Lint("src/core/a.cc",
                   "/* using namespace std; exit(1); */ int x;\n")
                  .empty());
}

}  // namespace
