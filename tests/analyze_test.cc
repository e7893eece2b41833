// Self-test for the rll_analyze passes: every rule must both fire on a
// known-bad snippet and stay quiet on the idiomatic version, the
// per-line waiver and the layering allowlist must suppress exactly their
// target, and the passes must run clean over the actual source tree (the
// same invariant the analyze.repo CTest gate enforces via the binary —
// this test proves it through the library API, with the real allowlist).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/passes.h"

namespace {

using rll::analyze::AnalyzeContent;
using rll::analyze::AnalyzeOptions;
using rll::analyze::AnalyzeTree;
using rll::analyze::LayerRank;
using rll::analyze::ParseLayeringAllowlist;
using rll::analyze::Violation;

std::vector<Violation> Analyze(std::string_view path,
                               std::string_view content,
                               const AnalyzeOptions& options = {}) {
  return AnalyzeContent(path, content, options);
}

bool Fires(const std::vector<Violation>& violations, std::string_view rule) {
  for (const Violation& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------- layering

TEST(LayerRankTest, RanksFollowTheDag) {
  EXPECT_EQ(LayerRank("common"), 0);
  EXPECT_EQ(LayerRank("obs"), 1);
  EXPECT_LT(LayerRank("obs"), LayerRank("tensor"));
  EXPECT_LT(LayerRank("tensor"), LayerRank("autograd"));
  EXPECT_LT(LayerRank("autograd"), LayerRank("nn"));
  EXPECT_LT(LayerRank("nn"), LayerRank("classify"));
  EXPECT_EQ(LayerRank("classify"), LayerRank("crowd"));
  EXPECT_LT(LayerRank("crowd"), LayerRank("core"));
  EXPECT_EQ(LayerRank("core"), LayerRank("baselines"));
  EXPECT_LT(LayerRank("core"), LayerRank("serve"));
  EXPECT_EQ(LayerRank("third_party"), -1);
}

TEST(LayeringPassTest, FiresOnUpwardInclude) {
  const auto v =
      Analyze("src/tensor/matrix.cc", "#include \"serve/cache.h\"\n");
  ASSERT_TRUE(Fires(v, "layering"));
  EXPECT_NE(v[0].message.find("serve"), std::string::npos);
  EXPECT_TRUE(Fires(
      Analyze("src/core/pipeline.cc", "#include \"serve/cache.h\"\n"),
      "layering"));
  // obs sits directly above common, so it may not reach up into tensor.
  EXPECT_TRUE(Fires(
      Analyze("src/obs/metrics.cc", "#include \"tensor/matrix.h\"\n"),
      "layering"));
}

TEST(LayeringPassTest, PassesOnDownwardSameRankAndSystemIncludes) {
  EXPECT_TRUE(
      Analyze("src/serve/cache.cc", "#include \"tensor/matrix.h\"\n")
          .empty());
  EXPECT_TRUE(
      Analyze("src/crowd/confidence.cc", "#include \"classify/lr.h\"\n")
          .empty());
  EXPECT_TRUE(Analyze("src/tensor/matrix.cc", "#include <vector>\n").empty());
  // Own-module includes are rank-equal by definition.
  EXPECT_TRUE(
      Analyze("src/tensor/matrix.cc", "#include \"tensor/ops.h\"\n").empty());
}

TEST(LayeringPassTest, DoesNotApplyOutsideSrc) {
  EXPECT_TRUE(
      Analyze("tests/tensor_test.cc", "#include \"serve/cache.h\"\n")
          .empty());
  EXPECT_TRUE(
      Analyze("bench/micro_ops.cc", "#include \"serve/cache.h\"\n").empty());
  EXPECT_TRUE(
      Analyze("tools/rll_cli.cc", "#include \"serve/cache.h\"\n").empty());
}

TEST(LayeringPassTest, AllowlistedEdgePassesOthersStillFire) {
  AnalyzeOptions options;
  options.layering_allowlist = {"src/nn/layers.cc -> serve"};
  EXPECT_TRUE(
      Analyze("src/nn/layers.cc", "#include \"serve/cache.h\"\n", options)
          .empty());
  // Same file, different target module: not covered by the entry.
  EXPECT_TRUE(Fires(
      Analyze("src/nn/layers.cc", "#include \"core/pipeline.h\"\n", options),
      "layering"));
  // Different file, same target module: not covered either.
  EXPECT_TRUE(Fires(
      Analyze("src/nn/other.cc", "#include \"serve/cache.h\"\n", options),
      "layering"));
}

TEST(ParseLayeringAllowlistTest, SkipsCommentsAndNormalizesWhitespace) {
  const auto entries = ParseLayeringAllowlist(
      "# comment\n"
      "\n"
      "src/a/b.cc  ->   obs\n"
      "src/c/d.cc -> serve  # trailing comment\n"
      "malformed line without arrow\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "src/a/b.cc -> obs");
  EXPECT_EQ(entries[1], "src/c/d.cc -> serve");
}

// ------------------------------------------------------------- determinism

TEST(WallClockRuleTest, FiresOnSystemClockAndTime) {
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc",
              "auto t = std::chrono::system_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(
      Fires(Analyze("src/core/a.cc", "std::time(nullptr);\n"), "wall-clock"));
  EXPECT_TRUE(
      Fires(Analyze("src/core/a.cc", "time(nullptr);\n"), "wall-clock"));
}

TEST(WallClockRuleTest, PassesOnSteadyClockMembersAndProse) {
  EXPECT_TRUE(
      Analyze("src/core/a.cc",
              "auto t = std::chrono::steady_clock::now();\n")
          .empty());
  EXPECT_TRUE(Analyze("src/core/a.cc", "stopwatch.time();\n").empty());
  EXPECT_TRUE(Analyze("src/core/a.cc", "std::time_t seconds = 0;\n").empty());
  EXPECT_TRUE(
      Analyze("src/core/a.cc", "// uses time() internally\n").empty());
}

TEST(RandomDeviceRuleTest, FiresOnRandomDevice) {
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc", "std::random_device rd;\n"), "random-device"));
}

TEST(UnseededMt19937RuleTest, FiresOnDefaultConstruction) {
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "std::mt19937 gen;\n"),
                    "unseeded-mt19937"));
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "std::mt19937_64 gen;\n"),
                    "unseeded-mt19937"));
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "auto g = std::mt19937();\n"),
                    "unseeded-mt19937"));
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "use(std::mt19937{});\n"),
                    "unseeded-mt19937"));
}

TEST(UnseededMt19937RuleTest, PassesOnSeededAndTypeOnlyUses) {
  EXPECT_TRUE(Analyze("src/core/a.cc", "std::mt19937 gen(seed);\n").empty());
  EXPECT_TRUE(Analyze("src/core/a.cc", "std::mt19937 gen{seed};\n").empty());
  EXPECT_TRUE(Analyze("src/core/a.cc", "void f(std::mt19937& gen);\n")
                  .empty());
}

TEST(UnorderedIterationRuleTest, FiresOnRangeForAndBegin) {
  const std::string decl =
      "std::unordered_map<int, double> weights;\n";
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc", decl + "for (const auto& w : weights) {}\n"),
      "unordered-iteration"));
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc", decl + "auto it = weights.begin();\n"),
      "unordered-iteration"));
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc",
              "std::unordered_set<Node*> visited;\n"
              "for (Node* n : visited) {}\n"),
      "unordered-iteration"));
}

TEST(UnorderedIterationRuleTest, PassesOnLookupInsertAndOrderedMaps) {
  EXPECT_TRUE(Analyze("src/core/a.cc",
                      "std::unordered_map<int, double> weights;\n"
                      "weights.insert({1, 2.0});\n"
                      "if (weights.count(1)) {}\n"
                      "double w = weights[1];\n"
                      "auto it = weights.find(1);\n")
                  .empty());
  EXPECT_TRUE(Analyze("src/core/a.cc",
                      "std::map<int, double> weights;\n"
                      "for (const auto& w : weights) {}\n")
                  .empty());
}

// --------------------------------------------------------- lock discipline

TEST(LockDisciplineRuleTest, FiresOnRawPrimitivesAndIncludes) {
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "std::mutex mu;\n"),
                    "lock-discipline"));
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc", "std::lock_guard<std::mutex> lock(mu);\n"),
      "lock-discipline"));
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "std::condition_variable cv;\n"),
                    "lock-discipline"));
  EXPECT_TRUE(Fires(Analyze("src/core/a.cc", "#include <mutex>\n"),
                    "lock-discipline"));
  EXPECT_TRUE(
      Fires(Analyze("src/core/a.cc", "#include <condition_variable>\n"),
            "lock-discipline"));
}

TEST(LockDisciplineRuleTest, PassesOnWrapperUsesAndExemptsMutexH) {
  EXPECT_TRUE(Analyze("src/core/a.cc",
                      "#include \"common/mutex.h\"\n"
                      "rll::Mutex mu;\n"
                      "rll::MutexLock lock(mu);\n")
                  .empty());
  // The wrapper itself is the designated home of the raw primitives.
  EXPECT_TRUE(Analyze("src/common/mutex.h",
                      "#include <mutex>\n"
                      "std::mutex mu_;\n")
                  .empty());
  // Prose and our own type names don't trip the token rules.
  EXPECT_TRUE(
      Analyze("src/core/a.cc", "// guarded by a std::mutex historically\n")
          .empty());
}

TEST(LockDisciplineRuleTest, DoesNotApplyOutsideSrc) {
  EXPECT_TRUE(
      Analyze("tests/threading_test.cc", "std::mutex mu;\n").empty());
  EXPECT_TRUE(Analyze("bench/micro_ops.cc", "#include <mutex>\n").empty());
}

// ---------------------------------------------------------------- hot path

TEST(HotPathRuleTest, FiresOnAllocationsInTaggedFiles) {
  const char* tag = "// rll-analyze: hot-path\n";
  EXPECT_TRUE(Fires(
      Analyze("src/tensor/a.cc", std::string(tag) + "int* p = new int;\n"),
      "hot-path-alloc"));
  EXPECT_TRUE(Fires(Analyze("src/tensor/a.cc",
                            std::string(tag) + "void* p = malloc(8);\n"),
                    "hot-path-alloc"));
  // A vector constructed per iteration is the hidden-allocation classic.
  EXPECT_TRUE(Fires(
      Analyze("src/tensor/a.cc",
              std::string(tag) +
                  "void F() {\n"
                  "  for (int i = 0; i < n; ++i) {\n"
                  "    std::vector<double> row(n);\n"
                  "  }\n"
                  "}\n"),
      "hot-path-alloc"));
  // Brace-less loop bodies count too.
  EXPECT_TRUE(Fires(Analyze("src/tensor/a.cc",
                            std::string(tag) +
                                "void F() {\n"
                                "  while (more())\n"
                                "    std::vector<int> v(3);\n"
                                "}\n"),
                    "hot-path-alloc"));
}

TEST(HotPathRuleTest, SilentWithoutTagAndOnHoistedVectors) {
  // Untagged files may allocate freely.
  EXPECT_TRUE(Analyze("src/tensor/a.cc", "int* p = new int;\n").empty());
  EXPECT_TRUE(
      Analyze("src/tensor/a.cc",
              "void F() { for (;;) { std::vector<int> v; } }\n")
          .empty());
  const char* tag = "// rll-analyze: hot-path\n";
  // Hoisted vector (declared outside the loop, reused inside) is the
  // idiom the rule pushes toward.
  EXPECT_TRUE(Analyze("src/tensor/a.cc",
                      std::string(tag) +
                          "void F() {\n"
                          "  std::vector<double> row(n);\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    row.assign(n, 0.0);\n"
                          "    Use(row);\n"
                          "  }\n"
                          "}\n")
                  .empty());
  // `operator new` declarations (the alloc-count hook) are not naked new.
  EXPECT_TRUE(Analyze("src/tensor/a.cc",
                      std::string(tag) +
                          "void* operator new(std::size_t n);\n")
                  .empty());
  // Member calls named like the banned functions are someone else's API.
  EXPECT_TRUE(Analyze("src/tensor/a.cc",
                      std::string(tag) + "arena.malloc(8);\n")
                  .empty());
}

TEST(HotPathRuleTest, WaiverSuppressesTheRule) {
  EXPECT_TRUE(
      Analyze("src/tensor/a.cc",
              "// rll-analyze: hot-path\n"
              "int* p = new int;  // rll-analyze: allow(hot-path-alloc)\n")
          .empty());
}

// ----------------------------------------------------------------- waivers

TEST(WaiverTest, AllowCommentSuppressesNamedRuleOnly) {
  EXPECT_TRUE(
      Analyze("src/core/a.cc",
              "auto t = std::chrono::system_clock::now();"
              "  // rll-analyze: allow(wall-clock)\n")
          .empty());
  EXPECT_TRUE(Analyze("src/core/a.cc",
                      "std::mutex mu;  // rll-analyze: allow(all)\n")
                  .empty());
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc",
              "std::mutex mu;  // rll-analyze: allow(wall-clock)\n"),
      "lock-discipline"));
  // rll-lint waivers do not leak into the analyze passes.
  EXPECT_TRUE(Fires(
      Analyze("src/core/a.cc",
              "std::mutex mu;  // rll-lint: allow(lock-discipline)\n"),
      "lock-discipline"));
}

// --------------------------------------------------- whole-tree self-check

// The passes must hold over the real tree with the real allowlist — the
// compile definition points at the source checkout, so this is the same
// run the analyze.repo gate does, minus process spawning.
TEST(SelfCheckTest, ActualTreeIsCleanWithCheckedInAllowlist) {
  const std::string root = RLL_SOURCE_DIR;
  AnalyzeOptions options;
  std::ifstream in(root + "/tools/analyze/layering_allowlist.txt");
  ASSERT_TRUE(in.good()) << "missing layering allowlist";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  options.layering_allowlist = ParseLayeringAllowlist(buffer.str());
  EXPECT_FALSE(options.layering_allowlist.empty());

  const auto violations = AnalyzeTree(root, options);
  for (const Violation& v : violations) {
    ADD_FAILURE() << rll::analyze::FormatViolation(v);
  }
}

// Without the allowlist the instrumentation edges MUST fire — this proves
// the layering pass actually sees the tree (an empty-result bug in the
// walker would otherwise make the self-check above pass vacuously).
TEST(SelfCheckTest, WithoutAllowlistTheInstrumentationEdgesFire) {
  const auto violations = AnalyzeTree(RLL_SOURCE_DIR, AnalyzeOptions{});
  EXPECT_TRUE(Fires(violations, "layering"));
}

}  // namespace
