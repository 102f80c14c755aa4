// Tests for webcc-analyze (tools/analyze/): lexer, token rules, layer DAG
// enforcement, baseline mechanism, SARIF output, and the include-graph
// cache. The on-disk fixtures live in WEBCC_ANALYZE_FIXTURE_DIR; the real
// layer spec comes from WEBCC_ANALYZE_LAYERS_FILE so the synthetic layer
// tree is checked against the DAG the tree itself is held to.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analyze/analyze.h"
#include "tools/analyze/baseline.h"
#include "tools/analyze/callgraph.h"
#include "tools/analyze/cfg.h"
#include "tools/analyze/layers.h"
#include "tools/analyze/lexer.h"
#include "tools/analyze/rules.h"
#include "tools/analyze/sarif.h"
#include "tools/analyze/symbols.h"
#include "tools/analyze/taint.h"
#include "tools/analyze/timedomain.h"

namespace webcc::analyze {
namespace {

// A scratch file named after the running test: gtest_discover_tests runs
// every case as its own ctest process, so a fixed name races under -j.
std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." + test->name() + "." + name;
}

std::string FixturePath(const std::string& name) {
  return std::string(WEBCC_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> RulesOnly(const std::string& path, const std::string& contents) {
  return AnalyzeSources({SourceFile{path, contents}}, AnalyzeConfig{});
}

std::vector<Finding> OfRule(const std::vector<Finding>& findings, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      out.push_back(f);
    }
  }
  return out;
}

std::vector<size_t> LinesOf(const std::vector<Finding>& findings) {
  std::vector<size_t> lines;
  for (const Finding& f : findings) {
    lines.push_back(f.line);
  }
  return lines;
}

// --- Lexer ------------------------------------------------------------------

TEST(AnalyzeLexerTest, TokenizesIdentifiersNumbersAndPunctuation) {
  const LexedFile lexed = Lex({"a.cc", "int x = a->b + 0x1F;"});
  std::vector<std::string> texts;
  for (const Token& t : lexed.tokens) {
    texts.push_back(t.text);
  }
  EXPECT_EQ(texts,
            (std::vector<std::string>{"int", "x", "=", "a", "->", "b", "+", "0x1F", ";"}));
  EXPECT_EQ(lexed.tokens[4].kind, TokenKind::kPunct);
  EXPECT_EQ(lexed.tokens[7].kind, TokenKind::kNumber);
}

TEST(AnalyzeLexerTest, RawStringWithCustomDelimiterIsOneLiteral) {
  const std::string src =
      "const char* s = R\"trap(line one rand(\n"
      "inner )\" quote std::mt19937\n"
      ")trap\"; int after = 1;\n";
  const LexedFile lexed = Lex({"a.cc", src});
  // Exactly one string token spanning three lines, starting at line 1.
  size_t strings = 0;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokenKind::kString) {
      ++strings;
      EXPECT_EQ(t.line, 1u);
      EXPECT_NE(t.text.find("std::mt19937"), std::string::npos);
    }
  }
  EXPECT_EQ(strings, 1u);
  // The literal body is blanked out of the code view on every line.
  EXPECT_EQ(lexed.code_lines[0].find("rand"), std::string::npos);
  EXPECT_EQ(lexed.code_lines[1].find("mt19937"), std::string::npos);
  EXPECT_NE(lexed.code_lines[2].find("after"), std::string::npos);
}

TEST(AnalyzeLexerTest, BackslashNewlineSplicesIdentifiers) {
  const LexedFile lexed = Lex({"a.cc", "ra\\\nnd();"});
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(lexed.tokens[0].text, "rand");
  EXPECT_EQ(lexed.tokens[0].line, 1u);
}

TEST(AnalyzeLexerTest, LineCommentContinuesAcrossBackslashNewline) {
  const LexedFile lexed = Lex({"a.cc", "// comment \\\nstill comment\nint x;"});
  // "still comment" belongs to the comment; only "int x;" is code.
  std::vector<std::string> code_texts;
  for (const Token& t : lexed.tokens) {
    if (t.kind != TokenKind::kComment) {
      code_texts.push_back(t.text);
    }
  }
  EXPECT_EQ(code_texts, (std::vector<std::string>{"int", "x", ";"}));
}

TEST(AnalyzeLexerTest, BlockCommentsDoNotNest) {
  const LexedFile lexed = Lex({"a.cc", "/* outer /* inner */ int x;"});
  std::vector<std::string> code_texts;
  for (const Token& t : lexed.tokens) {
    if (t.kind != TokenKind::kComment) {
      code_texts.push_back(t.text);
    }
  }
  // The first */ closed the comment, per the language.
  EXPECT_EQ(code_texts, (std::vector<std::string>{"int", "x", ";"}));
}

TEST(AnalyzeLexerTest, ExtractsQuotedIncludesOnly) {
  const std::string src =
      "#include \"src/util/base.h\"\n"
      "#include <vector>\n"
      "  #  include \"src/sim/engine.h\"\n"
      "// #include \"src/not/real.h\"\n";
  const LexedFile lexed = Lex({"a.cc", src});
  EXPECT_EQ(lexed.includes,
            (std::vector<std::string>{"src/util/base.h", "src/sim/engine.h"}));
  EXPECT_EQ(lexed.include_lines, (std::vector<size_t>{1, 3}));
}

TEST(AnalyzeLexerTest, PreprocessorTokensAreFlagged) {
  const LexedFile lexed = Lex({"a.cc", "#define N 3\nint y = N;"});
  bool saw_define = false;
  for (const Token& t : lexed.tokens) {
    if (t.text == "define") {
      saw_define = true;
      EXPECT_TRUE(t.in_preprocessor);
    }
    if (t.text == "y") {
      EXPECT_FALSE(t.in_preprocessor);
    }
  }
  EXPECT_TRUE(saw_define);
}

TEST(AnalyzeLexerTest, EncodingPrefixedStringsAreLiterals) {
  const LexedFile lexed = Lex({"a.cc", "auto* s = u8\"rand( inside\"; int z;"});
  std::vector<std::string> idents;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      idents.push_back(t.text);
    }
  }
  // u8 is consumed as the literal prefix, and rand stays inside the string.
  EXPECT_EQ(idents, (std::vector<std::string>{"auto", "s", "int", "z"}));
}

TEST(AnalyzeLexerTest, UnterminatedConstructsCloseAtEndOfFile) {
  const LexedFile a = Lex({"a.cc", "/* never closed\nint x;"});
  EXPECT_EQ(a.tokens.size(), 1u);  // one comment token, no code
  const LexedFile b = Lex({"b.cc", "R\"(open forever\nstill open"});
  ASSERT_FALSE(b.tokens.empty());
  EXPECT_EQ(b.tokens.back().kind, TokenKind::kString);
}

// --- Token rules ------------------------------------------------------------

TEST(AnalyzeRulesTest, StdDistributionFlaggedEvenInRngItself) {
  const std::string src = "std::uniform_int_distribution<int> d(0, 9);\n";
  const std::vector<Finding> in_rng = RulesOnly("src/util/rng.cc", src);
  EXPECT_EQ(OfRule(in_rng, "std-distribution").size(), 1u);
  // And banned-random does NOT double-report the same name.
  EXPECT_TRUE(OfRule(in_rng, "banned-random").empty());
}

TEST(AnalyzeRulesTest, DiscardedParseResultIsStatementInitialOnly) {
  const std::string src =
      "bool ParseThing(int*);\n"
      "void F(int* v) {\n"
      "  ParseThing(v);\n"               // flagged
      "  if (ParseThing(v)) { }\n"       // checked
      "  bool ok = ParseThing(v);\n"     // assigned
      "  (void)ok;\n"
      "  return;\n"
      "}\n";
  const std::vector<Finding> findings =
      OfRule(RulesOnly("src/core/f.cc", src), "discarded-parse-result");
  EXPECT_EQ(LinesOf(findings), (std::vector<size_t>{3}));
}

TEST(AnalyzeRulesTest, UnannotatedMutexAppliesTreeWide) {
  // Pass 4's lock-discipline rule made the annotation contract enforceable,
  // so the unannotated-mutex check grew from its util/thread_pool pilot
  // scope to every scanned file.
  const std::string src =
      "#include <mutex>\n"
      "class P {\n"
      "  std::mutex mu_;\n"
      "};\n";
  EXPECT_EQ(OfRule(RulesOnly("src/util/thread_pool.h", src), "unannotated-mutex").size(),
            1u);
  EXPECT_EQ(OfRule(RulesOnly("src/cache/proxy.h", src), "unannotated-mutex").size(), 1u);
  EXPECT_EQ(OfRule(RulesOnly("bench/runner.h", src), "unannotated-mutex").size(), 1u);
}

TEST(AnalyzeRulesTest, GuardsCommentSatisfiesMutexRule) {
  const std::string src =
      "class P {\n"
      "  std::mutex mu_;  // guards: tasks_\n"
      "};\n";
  EXPECT_TRUE(
      OfRule(RulesOnly("src/util/thread_pool.h", src), "unannotated-mutex").empty());
}

TEST(AnalyzeRulesTest, InlineWaiverSuppressesNewRules) {
  const std::string src =
      "std::uniform_int_distribution<int> d(0, 9);  "
      "// webcc-lint: allow(std-distribution) comparing against libstdc++\n";
  EXPECT_TRUE(OfRule(RulesOnly("src/core/f.cc", src), "std-distribution").empty());
}

TEST(AnalyzeRulesTest, SplicedBannedCallIsStillCaught) {
  // The old line-regex scanner could not see a call split by a
  // backslash-newline; the token engine must.
  const std::string src = "int f() { return ra\\\nnd(); }\n";
  const std::vector<Finding> findings =
      OfRule(RulesOnly("src/core/f.cc", src), "banned-random");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1u);
}

// --- On-disk rule fixtures --------------------------------------------------

TEST(AnalyzeFixtureTest, RawStringTrapProducesZeroFindings) {
  // The old regex lint false-positived on every banned name inside the
  // multi-line raw string; the analyzer must report this file clean.
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("raw_string_trap.cc")}, AnalyzeOptions{});
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected finding(s)";
}

TEST(AnalyzeFixtureTest, BadDistributionFixtureFindsAllThree) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("bad_distribution.cc")}, AnalyzeOptions{});
  EXPECT_EQ(LinesOf(OfRule(findings, "std-distribution")),
            (std::vector<size_t>{11, 17, 18}));
  EXPECT_EQ(findings.size(), 3u);  // the allow() markers hold back banned-random
}

TEST(AnalyzeFixtureTest, BadParseDiscardFixtureFindsBoth) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("bad_parse_discard.cc")}, AnalyzeOptions{});
  EXPECT_EQ(LinesOf(OfRule(findings, "discarded-parse-result")),
            (std::vector<size_t>{13, 16}));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(AnalyzeFixtureTest, ThreadPoolFixtureFlagsOnlyNakedMutex) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("util/thread_pool_fixture.h")}, AnalyzeOptions{});
  EXPECT_EQ(LinesOf(OfRule(findings, "unannotated-mutex")), (std::vector<size_t>{12}));
  EXPECT_EQ(findings.size(), 1u);
}

// --- Layer pass -------------------------------------------------------------

AnalyzeOptions LayerOptions() {
  AnalyzeOptions options;
  options.layers_file = WEBCC_ANALYZE_LAYERS_FILE;
  return options;
}

TEST(AnalyzeLayerTest, PlantedSimToCoreIncludeIsReported) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("layer_tree")}, LayerOptions());
  const std::vector<Finding> violations = OfRule(findings, "layer-violation");
  bool planted = false;
  for (const Finding& f : violations) {
    if (f.file.find("src/sim/bad_uses_core.h") != std::string::npos) {
      planted = true;
      EXPECT_EQ(f.line, 7u);
      EXPECT_NE(f.message.find("src/core/metrics_like.h"), std::string::npos);
    }
  }
  EXPECT_TRUE(planted) << "sim -> core include was not reported";
}

TEST(AnalyzeLayerTest, SrcIncludingBenchIsReported) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("layer_tree")}, LayerOptions());
  bool escape = false;
  for (const Finding& f : OfRule(findings, "layer-violation")) {
    if (f.file.find("uses_bench.h") != std::string::npos) {
      escape = true;
      EXPECT_EQ(f.line, 6u);
      EXPECT_NE(f.message.find("bench/"), std::string::npos);
    }
  }
  EXPECT_TRUE(escape) << "src -> bench include was not reported";
}

TEST(AnalyzeLayerTest, IncludeCycleIsReportedExactlyOnce) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("layer_tree")}, LayerOptions());
  const std::vector<Finding> cycles = OfRule(findings, "layer-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("src/cache/cycle_a.h"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("src/cache/cycle_b.h"), std::string::npos);
}

TEST(AnalyzeLayerTest, LegalEdgesProduceNoOtherFindings) {
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("layer_tree")}, LayerOptions());
  // Exactly: planted sim->core, src->bench escape, one cycle. Downward and
  // same-module edges (sim->util, core->sim, cache->cache) are clean.
  EXPECT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.rule == "layer-violation" || f.rule == "layer-cycle") << f.rule;
  }
}

TEST(AnalyzeLayerTest, SameTierCrossModuleIncludeIsAllowed) {
  const std::string spec = "util\ncache origin http\n";
  std::vector<Finding> findings;
  const LayerSpec parsed = ParseLayerSpec("layers.txt", spec, &findings);
  const std::vector<LexedFile> files = {
      Lex({"src/cache/a.h", "#include \"src/origin/b.h\"\n"}),
      Lex({"src/origin/b.h", "#include \"src/util/c.h\"\n"}),
      Lex({"src/util/c.h", ""}),
  };
  const std::vector<Finding> layer = CheckLayers(parsed, files);
  EXPECT_TRUE(findings.empty());
  EXPECT_TRUE(layer.empty());
}

TEST(AnalyzeLayerTest, UndeclaredModuleIsConfigError) {
  const std::string spec = "util\n";
  std::vector<Finding> findings;
  const LayerSpec parsed = ParseLayerSpec("layers.txt", spec, &findings);
  const std::vector<LexedFile> files = {
      Lex({"src/mystery/a.h", "#include \"src/util/c.h\"\n"}),
      Lex({"src/util/c.h", ""}),
  };
  const std::vector<Finding> layer = CheckLayers(parsed, files);
  ASSERT_EQ(layer.size(), 1u);
  EXPECT_EQ(layer[0].rule, "layer-config");
  EXPECT_NE(layer[0].message.find("mystery"), std::string::npos);
}

TEST(AnalyzeLayerTest, DuplicateModuleDeclarationIsConfigError) {
  std::vector<Finding> findings;
  ParseLayerSpec("layers.txt", "util\nsim util\n", &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-config");
}

TEST(AnalyzeLayerTest, RepoRelativeCutsAtLastRootComponent) {
  EXPECT_EQ(RepoRelative("/root/repo/src/cache/policy.h"), "src/cache/policy.h");
  EXPECT_EQ(RepoRelative("tests/tools/analyze_fixtures/layer_tree/src/sim/a.h"),
            "src/sim/a.h");
  EXPECT_EQ(RepoRelative("bench/fig2.cc"), "bench/fig2.cc");
  EXPECT_EQ(RepoRelative("no/roots/here.h"), "no/roots/here.h");
}

// --- Baseline ---------------------------------------------------------------

AnalyzeConfig BaselineConfig(const std::string& baseline) {
  AnalyzeConfig config;
  config.apply_baseline = true;
  config.baseline_path = "tools/analyze/baseline.txt";
  config.baseline_contents = baseline;
  return config;
}

TEST(AnalyzeBaselineTest, ExactMatchSuppressesFinding) {
  const std::string src = "std::uniform_int_distribution<int> d(0, 9);\n";
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/core/f.cc", src}},
      BaselineConfig("src/core/f.cc:1: [std-distribution] comparing against stdlib\n"));
  EXPECT_TRUE(findings.empty()) << findings[0].rule;
}

TEST(AnalyzeBaselineTest, StaleEntryIsAnError) {
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/core/f.cc", "int x = 0;\n"}},
      BaselineConfig("src/core/f.cc:1: [std-distribution] was fixed long ago\n"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stale-baseline");
  EXPECT_EQ(findings[0].line, 1u);  // points at the baseline line itself
}

TEST(AnalyzeBaselineTest, MissingJustificationIsAnError) {
  const std::vector<Finding> findings =
      AnalyzeSources({SourceFile{"src/core/f.cc", "int x = 0;\n"}},
                     BaselineConfig("src/core/f.cc:1: [std-distribution]\n"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "baseline-config");
}

TEST(AnalyzeBaselineTest, MalformedEntryIsAnError) {
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/core/f.cc", "int x = 0;\n"}}, BaselineConfig("not an entry\n"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "baseline-config");
}

TEST(AnalyzeBaselineTest, CommentsAndBlanksAreIgnored) {
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/core/f.cc", "int x = 0;\n"}},
      BaselineConfig("# header comment\n\n   # indented comment\n"));
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeBaselineTest, ConfigErrorsCannotBeBaselined) {
  // A stale-baseline error cannot itself be acknowledged away.
  const std::string baseline =
      "src/core/f.cc:1: [std-distribution] gone\n"
      "tools/analyze/baseline.txt:1: [stale-baseline] trying to mute the mute\n";
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/core/f.cc", "int x = 0;\n"}}, BaselineConfig(baseline));
  // Entry 1 is stale; entry 2 matches nothing either (stale-baseline findings
  // are exempt from matching), so both report stale.
  EXPECT_EQ(OfRule(findings, "stale-baseline").size(), 2u);
}

// --- SARIF ------------------------------------------------------------------

TEST(AnalyzeSarifTest, GoldenOutput) {
  const std::vector<Finding> findings = {
      Finding{"src/cache/alpha.cc", 12, "banned-random",
              "uses \"rand\" \\ here"},
      Finding{"src/core/sweep_runner.cc", 55, "determinism-taint",
              "'webcc::SweepRunner::SweepRunner' transitively reaches getenv() at "
              "src/util/thread_pool.cc:117; call chain: "
              "webcc::SweepRunner::SweepRunner -> webcc::ResolveJobs"},
      Finding{"src/serve/frontend.cc", 140, "time-domain",
              "expression mixes wall-clock nanoseconds ('deadline_ns') with "
              "simulated time ('now'); convert through a sanctioned converter "
              "(tools/analyze/time_domains.txt) instead"},
      Finding{"tools/analyze/baseline.txt", 0, "stale-baseline",
              "entry matches nothing"},
  };
  EXPECT_EQ(RenderSarif(findings), ReadFileOrDie(FixturePath("golden.sarif")));
}

TEST(AnalyzeSarifTest, EmptyFindingsRenderEmptyArrays) {
  const std::string sarif = RenderSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"rules\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
}

TEST(AnalyzeSarifTest, PathsAreRepoRelativeUris) {
  const std::string sarif =
      RenderSarif({Finding{"/abs/checkout/src/sim/engine.cc", 3, "r", "m"}});
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/engine.cc\""), std::string::npos);
  EXPECT_EQ(sarif.find("/abs/checkout"), std::string::npos);
}

// --- Include-graph cache ----------------------------------------------------

class AnalyzeGraphCacheTest : public ::testing::Test {
 protected:
  std::string CachePath() const {
    return TestTempPath("graph_cache.txt");
  }
  void TearDown() override { std::remove(CachePath().c_str()); }
};

TEST_F(AnalyzeGraphCacheTest, WarmCacheReproducesFindingsExactly) {
  AnalyzeOptions options;
  options.layers_file = WEBCC_ANALYZE_LAYERS_FILE;
  options.graph_cache_file = CachePath();
  const std::vector<Finding> cold =
      AnalyzePaths({FixturePath("layer_tree")}, options);
  std::ifstream cache(CachePath());
  EXPECT_TRUE(cache.good()) << "cache file was not written";
  const std::vector<Finding> warm =
      AnalyzePaths({FixturePath("layer_tree")}, options);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].file, warm[i].file);
    EXPECT_EQ(cold[i].line, warm[i].line);
    EXPECT_EQ(cold[i].rule, warm[i].rule);
    EXPECT_EQ(cold[i].message, warm[i].message);
  }
}

TEST_F(AnalyzeGraphCacheTest, CorruptCacheIsIgnoredNotTrusted) {
  AnalyzeOptions options;
  options.layers_file = WEBCC_ANALYZE_LAYERS_FILE;
  options.graph_cache_file = CachePath();
  const std::vector<Finding> reference =
      AnalyzePaths({FixturePath("layer_tree")}, options);
  {
    std::ofstream out(CachePath(), std::ios::trunc);
    out << "# webcc-analyze graph cache v1\nF garbage\n";
  }
  const std::vector<Finding> after =
      AnalyzePaths({FixturePath("layer_tree")}, options);
  EXPECT_EQ(reference.size(), after.size());
}

// --- Pass 4: symbol index ----------------------------------------------------

SymbolIndex IndexOf(const std::vector<SourceFile>& sources) {
  std::vector<LexedFile> lexed;
  for (const SourceFile& s : sources) {
    lexed.push_back(Lex(s));
  }
  return BuildSymbolIndex(lexed);
}

const FunctionSymbol* FindDef(const SymbolIndex& index, const std::string& qualified) {
  for (const FunctionSymbol& fn : index.functions) {
    if (fn.qualified_name == qualified && fn.is_definition) {
      return &fn;
    }
  }
  return nullptr;
}

std::vector<Finding> Pass4(const std::vector<SourceFile>& sources,
                           const std::string& waivers = "") {
  AnalyzeConfig config;
  config.run_symbols = true;
  config.taint_waivers_contents = waivers;
  return AnalyzeSources(sources, config);
}

TEST(AnalyzeSymbolsTest, IndexesDefsDeclsAndOutOfLineMethods) {
  const SymbolIndex index = IndexOf({
      SourceFile{"src/util/w.h",
                 "namespace fx {\n"
                 "class Widget {\n"
                 " public:\n"
                 "  void Render();\n"
                 "  int size() const { return size_; }\n"
                 " private:\n"
                 "  int size_ = 0;\n"
                 "};\n"
                 "int FreeHelper(int a, int b);\n"
                 "}  // namespace fx\n"},
      SourceFile{"src/util/w.cc",
                 "namespace fx {\n"
                 "void Widget::Render() { FreeHelper(1, 2); }\n"
                 "int FreeHelper(int a, int b) { return a + b; }\n"
                 "}  // namespace fx\n"},
  });
  const FunctionSymbol* render = FindDef(index, "fx::Widget::Render");
  ASSERT_NE(render, nullptr);
  EXPECT_TRUE(render->is_method);
  ASSERT_EQ(render->calls.size(), 1u);
  EXPECT_EQ(render->calls[0].callee, "FreeHelper");
  const FunctionSymbol* size = FindDef(index, "fx::Widget::size");
  ASSERT_NE(size, nullptr);
  EXPECT_TRUE(size->is_method);
  ASSERT_NE(FindDef(index, "fx::FreeHelper"), nullptr);
  // The header carries declarations (no body) for Render and FreeHelper.
  size_t decls = 0;
  for (const FunctionSymbol& fn : index.functions) {
    if (!fn.is_definition && fn.file == "src/util/w.h") {
      ++decls;
    }
  }
  EXPECT_GE(decls, 2u);
}

TEST(AnalyzeSymbolsTest, ConstructorInitializerListCallsAreIndexed) {
  // Regression: a call hidden in a ctor init list (the real tree's
  // `SweepRunner::SweepRunner : jobs_(ResolveJobs(jobs))`) must reach the
  // call graph even though it sits before the `{`.
  const SymbolIndex index = IndexOf({SourceFile{
      "src/util/r.cc",
      "namespace fx {\n"
      "int Resolve(int j);\n"
      "class Runner {\n"
      " public:\n"
      "  explicit Runner(int jobs) : jobs_(jobs == 1 ? 1 : Resolve(jobs)) {}\n"
      " private:\n"
      "  int jobs_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const FunctionSymbol* ctor = FindDef(index, "fx::Runner::Runner");
  ASSERT_NE(ctor, nullptr);
  // The member initializer `jobs_(...)` may itself be recorded as a call-like
  // use (it resolves to nothing); what matters is that Resolve is seen.
  bool saw_resolve = false;
  for (const CallUse& call : ctor->calls) {
    saw_resolve = saw_resolve || call.callee == "Resolve";
  }
  EXPECT_TRUE(saw_resolve);
}

TEST(AnalyzeSymbolsTest, TemplatesOperatorsAndDestructorsIndex) {
  const SymbolIndex index = IndexOf({SourceFile{
      "src/util/t.h",
      "namespace fx {\n"
      "template <typename T>\n"
      "T Clamp(T v, T lo, T hi) { return v < lo ? lo : (hi < v ? hi : v); }\n"
      "class Holder {\n"
      " public:\n"
      "  ~Holder() { Release(); }\n"
      "  bool operator==(const Holder& o) const { return id_ == o.id_; }\n"
      " private:\n"
      "  void Release();\n"
      "  int id_ = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  EXPECT_NE(FindDef(index, "fx::Clamp"), nullptr);
  const FunctionSymbol* dtor = FindDef(index, "fx::Holder::~Holder");
  ASSERT_NE(dtor, nullptr);
  ASSERT_EQ(dtor->calls.size(), 1u);
  EXPECT_EQ(dtor->calls[0].callee, "Release");
  EXPECT_NE(FindDef(index, "fx::Holder::operator=="), nullptr);
}

TEST(AnalyzeSymbolsTest, OverloadsShareOneNameAndResolveConservatively) {
  // Two overloads of Pick: a call site links to both candidates, so taint
  // through either overload is caught (over-report, never under-report).
  const std::vector<SourceFile> sources = {SourceFile{
      "src/cache/o.cc",
      "namespace fx {\n"
      "int Pick(int a) { return a; }\n"
      "int Pick(int a, int b) { return getenv(\"X\") ? a : b; }\n"
      "int Decide() { return Pick(1); }\n"
      "}  // namespace fx\n"}};
  const SymbolIndex index = IndexOf(sources);
  EXPECT_EQ(index.definitions_by_name.at("Pick").size(), 2u);
  const std::vector<Finding> findings = Pass4(sources);
  // Decide is tainted through the conservative edge to the getenv overload.
  bool decide_tainted = false;
  for (const Finding& f : OfRule(findings, "determinism-taint")) {
    decide_tainted = decide_tainted || f.message.find("fx::Decide") == 0 ||
                     f.message.find("'fx::Decide'") != std::string::npos;
  }
  EXPECT_TRUE(decide_tainted);
}

TEST(AnalyzeSymbolsTest, ShadowedNamesStayLexical) {
  // A local variable shadowing a function name produces ident uses, not
  // calls; only the real call syntax links into the graph.
  const SymbolIndex index = IndexOf({SourceFile{
      "src/util/s.cc",
      "namespace fx {\n"
      "int Level() { return 3; }\n"
      "int Use() {\n"
      "  int Level = 7;\n"
      "  return Level + 1;\n"
      "}\n"
      "}  // namespace fx\n"}});
  const FunctionSymbol* use = FindDef(index, "fx::Use");
  ASSERT_NE(use, nullptr);
  EXPECT_TRUE(use->calls.empty());
}

TEST(AnalyzeSymbolsTest, GuardedMemberAnnotationsAreExtracted) {
  const SymbolIndex index = IndexOf({SourceFile{
      "src/util/g.h",
      "namespace fx {\n"
      "class Pool {\n"
      "  std::mutex mu_;  // guards: depth_\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  ASSERT_EQ(index.guarded_members.size(), 1u);
  EXPECT_EQ(index.guarded_members[0].class_name, "fx::Pool");
  EXPECT_EQ(index.guarded_members[0].member, "depth_");
  EXPECT_EQ(index.guarded_members[0].mutex, "mu_");
}

TEST(AnalyzeSymbolsTest, DeadSymbolReportIsCensusBased) {
  const SymbolIndex index = IndexOf({SourceFile{
      "src/util/d.cc",
      "namespace fx {\n"
      "int Used() { return 1; }\n"
      "int Unused() { return 2; }\n"
      "int main_like() { return Used(); }\n"
      "int main() { return main_like(); }\n"
      "}  // namespace fx\n"}});
  const std::vector<std::string> dead = DeadSymbolReport(index);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_NE(dead[0].find("fx::Unused"), std::string::npos);
  EXPECT_NE(dead[0].find("src/util/d.cc:3"), std::string::npos);
}

// --- Pass 4: determinism taint ----------------------------------------------

TEST(AnalyzeTaintTest, ThreeDeepChainIsReportedWithFullChain) {
  AnalyzeOptions options;
  options.run_symbols = true;
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("taint_tree")}, options);
  const std::vector<Finding> taint = OfRule(findings, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_NE(taint[0].file.find("src/cache/decision.cc"), std::string::npos);
  EXPECT_NE(taint[0].message.find(
                "call chain: fixture::CacheDecision -> fixture::ProbeLevel -> "
                "fixture::ProbeEnvironment"),
            std::string::npos);
  EXPECT_NE(taint[0].message.find("getenv() at src/util/env_probe.h:9"),
            std::string::npos);
}

TEST(AnalyzeTaintTest, WaiverIsAPropagationBarrier) {
  AnalyzeOptions options;
  options.run_symbols = true;
  std::vector<Finding> unwaived = AnalyzePaths({FixturePath("taint_tree")}, options);
  EXPECT_EQ(OfRule(unwaived, "determinism-taint").size(), 1u);
  // Waiving the middle hop severs the chain above it.
  const std::string waivers_path = TestTempPath("waivers.txt");
  {
    std::ofstream out(waivers_path, std::ios::trunc);
    out << "fixture::ProbeLevel fixture probe cannot affect results\n";
  }
  options.taint_waivers_file = waivers_path;
  const std::vector<Finding> waived = AnalyzePaths({FixturePath("taint_tree")}, options);
  EXPECT_TRUE(OfRule(waived, "determinism-taint").empty());
  EXPECT_TRUE(OfRule(waived, "stale-taint-waiver").empty());
  std::remove(waivers_path.c_str());
}

TEST(AnalyzeTaintTest, StaleWaiverIsAFinding) {
  const std::vector<Finding> findings =
      Pass4({SourceFile{"src/cache/clean.cc",
                        "namespace fx {\n"
                        "int Pure() { return 1; }\n"
                        "}  // namespace fx\n"}},
            "fx::Pure waiver kept after the taint was fixed\n");
  const std::vector<Finding> stale = OfRule(findings, "stale-taint-waiver");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].message.find("fx::Pure"), std::string::npos);
}

TEST(AnalyzeTaintTest, WaiverWithoutJustificationIsConfigError) {
  const std::vector<Finding> findings =
      Pass4({SourceFile{"src/cache/c.cc", "int F() { return 0; }\n"}},
            "fx::Naked\n");
  EXPECT_EQ(OfRule(findings, "taint-config").size(), 1u);
}

TEST(AnalyzeTaintTest, NondeterministicAnnotationIsASource) {
  const std::vector<Finding> findings = Pass4({SourceFile{
      "src/sim/a.cc",
      "namespace fx {\n"
      "// webcc-nondeterministic: models outside input\n"
      "int Oracle() { return 4; }\n"
      "int Tick() { return Oracle(); }\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> taint = OfRule(findings, "determinism-taint");
  // Both Oracle (annotated, in a sink dir) and Tick (transitively) report.
  ASSERT_EQ(taint.size(), 2u);
  EXPECT_NE(taint[1].message.find("fx::Tick -> fx::Oracle"), std::string::npos);
  EXPECT_NE(taint[0].message.find("`// webcc-nondeterministic` annotation"),
            std::string::npos);
}

TEST(AnalyzeTaintTest, UnorderedIterationIsASource) {
  const std::vector<Finding> findings = Pass4({SourceFile{
      "src/cache/u.cc",
      "namespace fx {\n"
      "std::unordered_map<int, int> table;\n"
      "int Sum() {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : table) { s += kv.second; }\n"
      "  return s;\n"
      "}\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> taint = OfRule(findings, "determinism-taint");
  ASSERT_EQ(taint.size(), 1u);
  EXPECT_NE(taint[0].message.find("unordered iteration over 'table'"),
            std::string::npos);
}

TEST(AnalyzeTaintTest, RootScopingBlocksCrossRootEdges) {
  // A tools/ helper full of nondeterminism shares a name with nothing in
  // src/; the src caller must not link to it (src never calls tools).
  const std::vector<Finding> findings = Pass4({
      SourceFile{"tools/gen/helper.cc",
                 "namespace fx {\n"
                 "int Helper() { return getenv(\"A\") ? 1 : 0; }\n"
                 "}  // namespace fx\n"},
      SourceFile{"src/cache/caller.cc",
                 "namespace fx {\n"
                 "int Helper();\n"
                 "int Use() { return Helper(); }\n"
                 "}  // namespace fx\n"},
  });
  EXPECT_TRUE(OfRule(findings, "determinism-taint").empty());
}

TEST(AnalyzeTaintTest, SeededRngHelpersStaySanctioned) {
  // src/util/rng.* is the seeded-engine home; its mt19937 use is exempt, so
  // sink-dir callers of Rng helpers stay clean (same carve-out as pass 1).
  const std::vector<Finding> findings = Pass4({
      SourceFile{"src/util/rng.h",
                 "namespace fx {\n"
                 "class Rng {\n"
                 " public:\n"
                 "  uint64_t Next() { return engine_(); }\n"
                 " private:\n"
                 "  std::mt19937_64 engine_;\n"
                 "};\n"
                 "}  // namespace fx\n"},
      SourceFile{"src/sim/roll.cc",
                 "namespace fx {\n"
                 "int Roll(Rng& rng) { return static_cast<int>(rng.Next() % 6); }\n"
                 "}  // namespace fx\n"},
  });
  EXPECT_TRUE(OfRule(findings, "determinism-taint").empty());
}

TEST(AnalyzeTaintTest, TaintFindingsFlowThroughBaseline) {
  AnalyzeConfig config;
  config.run_symbols = true;
  config.apply_baseline = true;
  config.baseline_contents =
      "src/sim/b.cc:2: [determinism-taint] acknowledged during rollout\n";
  const std::vector<Finding> findings = AnalyzeSources(
      {SourceFile{"src/sim/b.cc",
                  "namespace fx {\n"
                  "int Draw() { return rand(); }\n"
                  "}  // namespace fx\n"}},
      config);
  EXPECT_TRUE(OfRule(findings, "determinism-taint").empty());
  // The pass-1 call-site finding for the same line is separate and distinct.
  EXPECT_EQ(OfRule(findings, "banned-random").size(), 1u);
}

// --- Pass 4: lock discipline -------------------------------------------------

TEST(AnalyzeLockTest, UnlockedGuardedAccessIsFlaggedLockedOnesAreNot) {
  AnalyzeOptions options;
  options.run_symbols = true;
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("lock_tree")}, options);
  const std::vector<Finding> locks = OfRule(findings, "lock-discipline");
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_NE(locks[0].message.find("BumpWithoutLock"), std::string::npos);
  EXPECT_NE(locks[0].message.find("'counter_'"), std::string::npos);
  EXPECT_NE(locks[0].message.find("'mu_'"), std::string::npos);
}

TEST(AnalyzeLockTest, OutOfLineMethodsAreCheckedToo) {
  const std::vector<Finding> findings = Pass4({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Drain();\n"
      " private:\n"
      "  std::mutex mu_;  // guards: depth_\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "void Pool::Drain() { depth_ = 0; }\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> locks = OfRule(findings, "lock-discipline");
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_NE(locks[0].message.find("fx::Pool::Drain"), std::string::npos);
}

TEST(AnalyzeLockTest, WrongMutexDoesNotSatisfyTheGuard) {
  const std::vector<Finding> findings = Pass4({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  int Read() {\n"
      "    std::lock_guard<std::mutex> lock(other_mu_);\n"
      "    return depth_;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;  // guards: depth_\n"
      "  std::mutex other_mu_;  // guards: nothing here\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  EXPECT_EQ(OfRule(findings, "lock-discipline").size(), 1u);
}

// --- Pass 4: AnalyzePaths integration ---------------------------------------

TEST(AnalyzePathsTest, TestsDirectoriesAreNeverScanned) {
  AnalyzeOptions options;
  options.run_symbols = true;
  const std::vector<Finding> findings =
      AnalyzePaths({FixturePath("exclude_tree")}, options);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file.find("/tests/"), std::string::npos) << f.file;
  }
  // The tests/ file is wall-to-wall banned calls; nothing may leak out.
  EXPECT_TRUE(OfRule(findings, "banned-random").empty());
}

TEST(AnalyzePathsTest, JobsSettingsAreByteDeterministic) {
  AnalyzeOptions serial;
  serial.run_symbols = true;
  serial.jobs = 1;
  AnalyzeOptions parallel = serial;
  parallel.jobs = 4;
  const std::vector<std::string> roots = {FixturePath("taint_tree"),
                                          FixturePath("lock_tree")};
  std::vector<std::string> dead1;
  std::vector<std::string> dead4;
  const std::vector<Finding> a = AnalyzePaths(roots, serial, &dead1);
  const std::vector<Finding> b = AnalyzePaths(roots, parallel, &dead4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file, b[i].file);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].message, b[i].message);
  }
  EXPECT_EQ(dead1, dead4);
  EXPECT_FALSE(a.empty());
}

TEST_F(AnalyzeGraphCacheTest, ConfigChangeInvalidatesTheCache) {
  const std::string waivers_path = TestTempPath("waivers.txt");
  {
    std::ofstream out(waivers_path, std::ios::trunc);
    out << "fixture::ProbeLevel sanctioned while the probe rolls out\n";
  }
  AnalyzeOptions options;
  options.run_symbols = true;
  options.taint_waivers_file = waivers_path;
  options.graph_cache_file = CachePath();
  (void)AnalyzePaths({FixturePath("taint_tree")}, options);
  std::string header_before;
  {
    std::ifstream in(CachePath());
    std::getline(in, header_before);
  }
  // Editing the waiver list must change the cache key: the old graph may
  // not serve an analysis running under a different config.
  {
    std::ofstream out(waivers_path, std::ios::trunc);
    out << "# all waivers deleted\n";
  }
  const std::vector<Finding> after = AnalyzePaths({FixturePath("taint_tree")}, options);
  std::string header_after;
  {
    std::ifstream in(CachePath());
    std::getline(in, header_after);
  }
  EXPECT_NE(header_before, header_after);
  // And the re-run matches a fresh, cache-less analysis exactly.
  AnalyzeOptions no_cache = options;
  no_cache.graph_cache_file.clear();
  const std::vector<Finding> fresh = AnalyzePaths({FixturePath("taint_tree")}, no_cache);
  ASSERT_EQ(after.size(), fresh.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].message, fresh[i].message);
  }
  EXPECT_EQ(OfRule(after, "determinism-taint").size(), 1u);
  std::remove(waivers_path.c_str());
}

// --- Pass 5: control-flow graphs ---------------------------------------------

std::vector<Finding> Pass5(const std::vector<SourceFile>& sources,
                           const std::string& time_domains = "",
                           std::vector<std::string>* edges = nullptr) {
  AnalyzeConfig config;
  config.run_flow = true;
  config.time_domains_contents = time_domains;
  return AnalyzeSources(sources, config, nullptr, edges);
}

const CfgEvent* FindEvent(const Cfg& cfg, CfgEventKind kind) {
  for (const CfgNode& node : cfg.nodes) {
    for (const CfgEvent& ev : node.events) {
      if (ev.kind == kind) {
        return &ev;
      }
    }
  }
  return nullptr;
}

bool ExitReachable(const Cfg& cfg) {
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::vector<size_t> work = {Cfg::kEntry};
  seen[Cfg::kEntry] = true;
  while (!work.empty()) {
    const size_t cur = work.back();
    work.pop_back();
    for (const size_t s : cfg.nodes[cur].succ) {
      if (!seen[s]) {
        seen[s] = true;
        work.push_back(s);
      }
    }
  }
  return seen[Cfg::kExit];
}

TEST(AnalyzeCfgTest, DoWhileBuildsABackEdgeAndStillReachesExit) {
  const SourceFile src{"src/util/c.cc",
                       "namespace fx {\n"
                       "int Count(int n) {\n"
                       "  int total = 0;\n"
                       "  do {\n"
                       "    total += n;\n"
                       "    --n;\n"
                       "  } while (n > 0);\n"
                       "  return total;\n"
                       "}\n"
                       "}  // namespace fx\n"};
  const SymbolIndex index = IndexOf({src});
  const FunctionSymbol* fn = FindDef(index, "fx::Count");
  ASSERT_NE(fn, nullptr);
  const Cfg cfg = BuildCfg(Lex(src), *fn);
  bool back_edge = false;
  for (size_t v = 2; v < cfg.nodes.size(); ++v) {
    for (const size_t s : cfg.nodes[v].succ) {
      back_edge = back_edge || (s < v && s != Cfg::kEntry && s != Cfg::kExit);
    }
  }
  EXPECT_TRUE(back_edge) << "do/while must loop back into its body";
  EXPECT_TRUE(ExitReachable(cfg));
}

TEST(AnalyzeCfgTest, SwitchWithEarlyReturnsKeepsTheExitReachable) {
  const SourceFile src{"src/util/c.cc",
                       "namespace fx {\n"
                       "int Pick(int m) {\n"
                       "  switch (m) {\n"
                       "    case 0:\n"
                       "      return 1;\n"
                       "    case 1:\n"
                       "      m += 2;\n"
                       "      break;\n"
                       "    default:\n"
                       "      if (m > 4) {\n"
                       "        return 9;\n"
                       "      }\n"
                       "  }\n"
                       "  return m;\n"
                       "}\n"
                       "}  // namespace fx\n"};
  const SymbolIndex index = IndexOf({src});
  const FunctionSymbol* fn = FindDef(index, "fx::Pick");
  ASSERT_NE(fn, nullptr);
  const Cfg cfg = BuildCfg(Lex(src), *fn);
  EXPECT_TRUE(ExitReachable(cfg));
  EXPECT_GE(cfg.nodes.size(), 6u) << "cases and joins need their own blocks";
}

TEST(AnalyzeCfgTest, StoredLambdasAreDeferredCvPredicatesAreNot) {
  const SourceFile stored{"src/util/l.cc",
                          "namespace fx {\n"
                          "void Post(std::function<void()>& cb) {\n"
                          "  cb = [] { Work(); };\n"
                          "}\n"
                          "}  // namespace fx\n"};
  const SymbolIndex i1 = IndexOf({stored});
  ASSERT_NE(FindDef(i1, "fx::Post"), nullptr);
  const Cfg c1 = BuildCfg(Lex(stored), *FindDef(i1, "fx::Post"));
  ASSERT_EQ(c1.lambdas.size(), 1u);
  const CfgEvent* stored_ev = FindEvent(c1, CfgEventKind::kLambda);
  ASSERT_NE(stored_ev, nullptr);
  EXPECT_TRUE(stored_ev->deferred);

  const SourceFile predicate{
      "src/util/l.cc",
      "namespace fx {\n"
      "void Wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lk) {\n"
      "  cv.wait(lk, [] { return Ready(); });\n"
      "}\n"
      "}  // namespace fx\n"};
  const SymbolIndex i2 = IndexOf({predicate});
  ASSERT_NE(FindDef(i2, "fx::Wait"), nullptr);
  const Cfg c2 = BuildCfg(Lex(predicate), *FindDef(i2, "fx::Wait"));
  ASSERT_EQ(c2.lambdas.size(), 1u);
  const CfgEvent* pred_ev = FindEvent(c2, CfgEventKind::kLambda);
  ASSERT_NE(pred_ev, nullptr);
  EXPECT_FALSE(pred_ev->deferred) << "a cv-wait predicate runs at the wait site";
}

// --- Pass 5: flow-sensitive lock discipline ----------------------------------

TEST(AnalyzeFlowLockTest, GuardScopeEndsAtTheBranchNotTheFunction) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Bump(bool fast) {\n"
      "    if (fast) {\n"
      "      std::lock_guard<std::mutex> lock(mu_);\n"
      "      depth_ = 1;\n"
      "    }\n"
      "    depth_ = 2;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> locks = OfRule(findings, "lock-discipline");
  // Inside the guard's scope the access is clean; past the brace it is not.
  EXPECT_EQ(LinesOf(locks), (std::vector<size_t>{9}));
}

TEST(AnalyzeFlowLockTest, EarlyUnlockIsVisibleOnTheReturnPath) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  int Get(bool quick) {\n"
      "    std::unique_lock<std::mutex> lock(mu_);\n"
      "    if (quick) {\n"
      "      return depth_;\n"
      "    }\n"
      "    lock.unlock();\n"
      "    return depth_;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> locks = OfRule(findings, "lock-discipline");
  // The early return still holds the guard; the second return does not.
  EXPECT_EQ(LinesOf(locks), (std::vector<size_t>{10}));
}

TEST(AnalyzeFlowLockTest, SwitchFallthroughCarriesTheUnlockedState) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Set(int m) {\n"
      "    mu_.lock();\n"
      "    switch (m) {\n"
      "      case 0:\n"
      "        mu_.unlock();\n"
      "      case 1:\n"
      "        depth_ = 1;\n"
      "        break;\n"
      "    }\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  // Case 0 falls through after unlocking, so the case-1 access is reached on
  // a path where the mutex is not held. Without the fallthrough edge this is
  // a false negative.
  EXPECT_EQ(LinesOf(OfRule(findings, "lock-discipline")),
            (std::vector<size_t>{10}));
}

TEST(AnalyzeFlowLockTest, DoWhileFirstIterationRunsBeforeTheLock) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Drain() {\n"
      "    do {\n"
      "      depth_ = 0;\n"
      "      mu_.lock();\n"
      "    } while (depth_ > 0);\n"
      "    mu_.unlock();\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  // The loop condition runs with the lock held (clean); the body's access is
  // unprotected on the first iteration (the must-hold join with the back
  // edge is the empty set).
  EXPECT_EQ(LinesOf(OfRule(findings, "lock-discipline")),
            (std::vector<size_t>{6}));
}

TEST(AnalyzeFlowLockTest, DeferredLambdasStartWithAnEmptyLockset) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Spawn() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    cb_ = [this] { depth_ = 1; };\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::function<void()> cb_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  // The stored lambda runs later, after the guard is gone — holding mu_ at
  // the creation point protects nothing.
  EXPECT_EQ(LinesOf(OfRule(findings, "lock-discipline")),
            (std::vector<size_t>{6}));
}

TEST(AnalyzeFlowLockTest, CvWaitPredicateInheritsTheCreationLockset) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void WaitIdle() {\n"
      "    std::unique_lock<std::mutex> lock(mu_);\n"
      "    cv_.wait(lock, [this] { return depth_ == 0; });\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "  int depth_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace fx\n"}});
  // The predicate runs at the wait site with mu_ held, and waiting on the
  // guard's own mutex alone is the primitive working as designed.
  EXPECT_TRUE(OfRule(findings, "lock-discipline").empty());
  EXPECT_TRUE(OfRule(findings, "blocking-under-lock").empty());
}

// --- Pass 5: lock order + blocking-under-lock --------------------------------

TEST(AnalyzeLockOrderTest, OppositeNestingAcrossTusIsACycle) {
  const std::vector<Finding> findings = Pass5({
      SourceFile{"src/util/a.cc",
                 "namespace fx {\n"
                 "std::mutex g_a;\n"
                 "std::mutex g_b;\n"
                 "void Left() {\n"
                 "  std::scoped_lock la(g_a);\n"
                 "  std::scoped_lock lb(g_b);\n"
                 "}\n"
                 "}  // namespace fx\n"},
      SourceFile{"src/util/b.cc",
                 "namespace fx {\n"
                 "void Right() {\n"
                 "  std::scoped_lock lb(g_b);\n"
                 "  std::scoped_lock la(g_a);\n"
                 "}\n"
                 "}  // namespace fx\n"},
  });
  const std::vector<Finding> order = OfRule(findings, "lock-order");
  ASSERT_EQ(order.size(), 1u);
  EXPECT_NE(order[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(order[0].message.find("g_a"), std::string::npos);
  EXPECT_NE(order[0].message.find("g_b"), std::string::npos);
  EXPECT_NE(order[0].message.find("observed"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, ConsistentNestingRendersOneObservedEdge) {
  std::vector<std::string> edges;
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/util/a.cc",
                  "namespace fx {\n"
                  "std::mutex g_a;\n"
                  "std::mutex g_b;\n"
                  "void Left() {\n"
                  "  std::scoped_lock la(g_a);\n"
                  "  std::scoped_lock lb(g_b);\n"
                  "}\n"
                  "void Also() {\n"
                  "  std::scoped_lock la(g_a);\n"
                  "  std::scoped_lock lb(g_b);\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      "", &edges);
  EXPECT_TRUE(OfRule(findings, "lock-order").empty());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_NE(edges[0].find("g_a"), std::string::npos);
  EXPECT_NE(edges[0].find("-> "), std::string::npos);
  EXPECT_NE(edges[0].find("(observed at src/util/a.cc:6)"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, TransitiveReacquisitionIsASelfEdge) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Outer() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    Inner();\n"
      "  }\n"
      "  void Inner() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> order = OfRule(findings, "lock-order");
  ASSERT_EQ(order.size(), 1u);
  EXPECT_NE(order[0].message.find("re-acquisition"), std::string::npos);
  EXPECT_NE(order[0].message.find("fx::Pool::mu_"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, AcquiredAfterDeclaresTheEdgeThatClosesACycle) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Bad() {\n"
      "    std::lock_guard<std::mutex> g(cache_mu_);\n"
      "    std::lock_guard<std::mutex> h(pool_mu_);\n"
      "  }\n"
      " private:\n"
      "  std::mutex pool_mu_;\n"
      "  std::mutex cache_mu_ WEBCC_ACQUIRED_AFTER(pool_mu_);\n"
      "};\n"
      "}  // namespace fx\n"}});
  // The annotation pins pool_mu_ -> cache_mu_; observing the opposite
  // nesting completes the cycle even though no code path ever runs both.
  const std::vector<Finding> order = OfRule(findings, "lock-order");
  ASSERT_EQ(order.size(), 1u);
  EXPECT_NE(order[0].message.find("declared"), std::string::npos);
  EXPECT_NE(order[0].message.find("observed"), std::string::npos);
}

TEST(AnalyzeLockOrderTest, DeclaredEdgeAloneIsNoFinding) {
  std::vector<std::string> edges;
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/util/p.cc",
                  "namespace fx {\n"
                  "class Pool {\n"
                  " public:\n"
                  "  void Fine() {\n"
                  "    std::lock_guard<std::mutex> g(pool_mu_);\n"
                  "    std::lock_guard<std::mutex> h(cache_mu_);\n"
                  "  }\n"
                  " private:\n"
                  "  std::mutex pool_mu_;\n"
                  "  std::mutex cache_mu_ WEBCC_ACQUIRED_AFTER(pool_mu_);\n"
                  "};\n"
                  "}  // namespace fx\n"}},
      "", &edges);
  EXPECT_TRUE(OfRule(findings, "lock-order").empty());
  // Declared and observed agree, so the graph has the one edge twice — once
  // per provenance — collapsed to the first insertion.
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_NE(edges[0].find("fx::Pool::pool_mu_ -> fx::Pool::cache_mu_"),
            std::string::npos);
}

TEST(AnalyzeBlockingTest, SleepUnderLockIsFlaggedOutsideIsNot) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Nap() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    SleepNanos(5);\n"
      "  }\n"
      "  void FreeNap() {\n"
      "    SleepNanos(5);\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> blocking = OfRule(findings, "blocking-under-lock");
  EXPECT_EQ(LinesOf(blocking), (std::vector<size_t>{6}));
  EXPECT_NE(blocking[0].message.find("'SleepNanos'"), std::string::npos);
}

TEST(AnalyzeBlockingTest, TransitiveBlockingReportsTheCallChain) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Outer() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    Helper();\n"
      "  }\n"
      "  void Helper() {\n"
      "    worker_.join();\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::thread worker_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> blocking = OfRule(findings, "blocking-under-lock");
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].line, 6u);
  EXPECT_NE(blocking[0].message.find("fx::Pool::Outer -> fx::Pool::Helper"),
            std::string::npos);
  EXPECT_NE(blocking[0].message.find("reaches 'join'"), std::string::npos);
}

TEST(AnalyzeBlockingTest, CvWaitWithASecondLockHeldIsFlagged) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void WaitBoth() {\n"
      "    std::lock_guard<std::mutex> outer(other_mu_);\n"
      "    std::unique_lock<std::mutex> lock(mu_);\n"
      "    cv_.wait(lock);\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::mutex other_mu_;\n"
      "  std::condition_variable cv_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  const std::vector<Finding> blocking = OfRule(findings, "blocking-under-lock");
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_NE(blocking[0].message.find("condition-variable wait"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("other_mu_"), std::string::npos);
}

TEST(AnalyzeBlockingTest, DeferredLambdaBodiesDoNotTaintTheCreator) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Post() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    cb_ = [] { SleepNanos(1); };\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::function<void()> cb_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  // Storing a lambda that sleeps is not sleeping: the body runs later,
  // without the creator's lock.
  EXPECT_TRUE(OfRule(findings, "blocking-under-lock").empty());
}

TEST(AnalyzeFlowLockTest, InlineWaiversSilencePass5Rules) {
  const std::vector<Finding> findings = Pass5({SourceFile{
      "src/util/p.cc",
      "namespace fx {\n"
      "class Pool {\n"
      " public:\n"
      "  void Nap() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    SleepNanos(5);  // webcc-lint: allow(blocking-under-lock)\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "}  // namespace fx\n"}});
  EXPECT_TRUE(OfRule(findings, "blocking-under-lock").empty());
}

// --- Pass 5: time domains ----------------------------------------------------

constexpr char kTimeDomains[] =
    "wall-fn NowNanos\n"
    "sim-fn Seconds\n"
    "sim-api RunUntil\n"
    "wall-api SleepNanos\n"
    "escape seconds\n"
    "converter fx::Clock::SimTimeFor\n";

TEST(AnalyzeTimeDomainTest, MixedChainIsFlaggedSeparateStatementsAreNot) {
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/serve/t.cc",
                  "namespace fx {\n"
                  "int64_t Mix(int64_t now_ns) {\n"
                  "  SimTime deadline;\n"
                  "  int64_t twice_ns = now_ns * 2;\n"
                  "  SimTime still = deadline;\n"
                  "  return twice_ns + deadline;\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      kTimeDomains);
  const std::vector<Finding> mixes = OfRule(findings, "time-domain");
  ASSERT_EQ(LinesOf(mixes), (std::vector<size_t>{6}));
  EXPECT_NE(mixes[0].message.find("'twice_ns'"), std::string::npos);
  EXPECT_NE(mixes[0].message.find("'deadline'"), std::string::npos);
}

TEST(AnalyzeTimeDomainTest, EscapeCallsStripTheUnit) {
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/serve/t.cc",
                  "namespace fx {\n"
                  "int64_t Scale(int64_t now_ns) {\n"
                  "  SimTime deadline;\n"
                  "  return now_ns + deadline.seconds() * 1000;\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      kTimeDomains);
  EXPECT_TRUE(OfRule(findings, "time-domain").empty());
}

TEST(AnalyzeTimeDomainTest, WallArgumentToSimApiIsFlagged) {
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/serve/t.cc",
                  "namespace fx {\n"
                  "void Drive(int64_t stop_ns) {\n"
                  "  RunUntil(Seconds(5));\n"
                  "  RunUntil(stop_ns);\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      kTimeDomains);
  const std::vector<Finding> mixes = OfRule(findings, "time-domain");
  ASSERT_EQ(LinesOf(mixes), (std::vector<size_t>{4}));
  EXPECT_NE(mixes[0].message.find("sim-domain API 'RunUntil'"), std::string::npos);
}

TEST(AnalyzeTimeDomainTest, SimArgumentToWallApiIsFlagged) {
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/serve/t.cc",
                  "namespace fx {\n"
                  "void Pace(int64_t gap_ns) {\n"
                  "  SimTime deadline;\n"
                  "  SleepNanos(gap_ns);\n"
                  "  SleepNanos(deadline);\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      kTimeDomains);
  const std::vector<Finding> mixes = OfRule(findings, "time-domain");
  ASSERT_EQ(LinesOf(mixes), (std::vector<size_t>{5}));
  EXPECT_NE(mixes[0].message.find("wall-domain API 'SleepNanos'"), std::string::npos);
}

TEST(AnalyzeTimeDomainTest, ConvertersAreSanctionedAtBothEnds) {
  const std::vector<Finding> findings = Pass5(
      {SourceFile{"src/serve/t.cc",
                  "namespace fx {\n"
                  "class Clock {\n"
                  " public:\n"
                  "  SimTime SimTimeFor(int64_t t_ns);\n"
                  "};\n"
                  "SimTime Clock::SimTimeFor(int64_t t_ns) {\n"
                  "  SimTime base;\n"
                  "  return base + t_ns;\n"
                  "}\n"
                  "void Use(Clock& clock, int64_t now_ns) {\n"
                  "  RunUntil(clock.SimTimeFor(now_ns));\n"
                  "}\n"
                  "}  // namespace fx\n"}},
      kTimeDomains);
  // The converter's own body mixes by definition, and its call sites hand a
  // wall value to a sim API on purpose — both are the sanctioned bridge.
  EXPECT_TRUE(OfRule(findings, "time-domain").empty());
}

TEST(AnalyzeTimeDomainTest, MalformedConfigLinesAreConfigFindings) {
  const std::vector<Finding> findings =
      Pass5({SourceFile{"src/serve/t.cc", "int x = 0;\n"}},
            "wall-fn\n"
            "frob NowNanos\n"
            "sim-fn Seconds\n");
  const std::vector<Finding> config = OfRule(findings, "time-domain-config");
  ASSERT_EQ(config.size(), 2u);
  EXPECT_EQ(config[0].line, 1u);
  EXPECT_EQ(config[1].line, 2u);
  EXPECT_NE(config[1].message.find("unknown directive 'frob'"), std::string::npos);
}

// --- Pass 5: dead-symbol gating ----------------------------------------------

std::vector<Finding> DeadGated(const std::vector<SourceFile>& sources,
                               const std::string& waivers) {
  AnalyzeConfig config;
  config.run_symbols = true;
  config.gate_dead_symbols = true;
  config.dead_waivers_contents = waivers;
  return AnalyzeSources(sources, config);
}

const SourceFile kDeadTree{"src/util/d.cc",
                           "namespace fx {\n"
                           "int Used() { return 2; }\n"
                           "int Unused() { return 1; }\n"
                           "}  // namespace fx\n"
                           "int main() { return fx::Used(); }\n"};

TEST(AnalyzeDeadSymbolTest, UnreferencedDefinitionsGateWhenEnabled) {
  const std::vector<Finding> findings = DeadGated({kDeadTree}, "");
  const std::vector<Finding> dead = OfRule(findings, "dead-symbol");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].line, 3u);
  EXPECT_NE(dead[0].message.find("'fx::Unused'"), std::string::npos);
}

TEST(AnalyzeDeadSymbolTest, JustifiedWaiversSilenceTheGate) {
  const std::vector<Finding> findings = DeadGated(
      {kDeadTree},
      "fx::Unused exercised only from the unit tests,\n"
      "    which the scan unit excludes by design\n");
  EXPECT_TRUE(OfRule(findings, "dead-symbol").empty());
  EXPECT_TRUE(OfRule(findings, "stale-dead-waiver").empty());
  EXPECT_TRUE(OfRule(findings, "dead-config").empty());
}

TEST(AnalyzeDeadSymbolTest, StaleWaiversRatchetLikeTheBaseline) {
  const std::vector<Finding> findings =
      DeadGated({kDeadTree}, "fx::Gone deleted two PRs ago\n");
  EXPECT_EQ(OfRule(findings, "dead-symbol").size(), 1u);
  const std::vector<Finding> stale = OfRule(findings, "stale-dead-waiver");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].message.find("'fx::Gone'"), std::string::npos);
}

TEST(AnalyzeDeadSymbolTest, WaiversWithoutJustificationAreRejected) {
  const std::vector<Finding> findings = DeadGated({kDeadTree}, "fx::Unused\n");
  // The malformed waiver is skipped, so the symbol still gates.
  EXPECT_EQ(OfRule(findings, "dead-config").size(), 1u);
  EXPECT_EQ(OfRule(findings, "dead-symbol").size(), 1u);
}

TEST(AnalyzeDeadSymbolTest, StaleDeadWaiversCannotBeBaselined) {
  AnalyzeConfig config;
  config.run_symbols = true;
  config.gate_dead_symbols = true;
  config.dead_waivers_contents = "fx::Gone deleted two PRs ago\n";
  config.apply_baseline = true;
  config.baseline_contents =
      "tools/analyze/dead_waivers.txt:1: [stale-dead-waiver] muting the ratchet\n";
  const std::vector<Finding> findings = AnalyzeSources({kDeadTree}, config);
  EXPECT_EQ(OfRule(findings, "stale-dead-waiver").size(), 1u);
}

// --- Pass 5: determinism + cache ---------------------------------------------

TEST(AnalyzePathsTest, FlowPassStaysByteDeterministicAcrossJobs) {
  const std::string td_path = TestTempPath("time_domains.txt");
  {
    std::ofstream out(td_path, std::ios::trunc);
    out << "wall-fn NowNanos\nsim-fn Seconds\n";
  }
  AnalyzeOptions serial;
  serial.run_symbols = true;
  serial.run_flow = true;
  serial.time_domains_file = td_path;
  serial.jobs = 1;
  AnalyzeOptions parallel = serial;
  parallel.jobs = 8;
  const std::vector<std::string> roots = {FixturePath("taint_tree"),
                                          FixturePath("lock_tree")};
  std::vector<std::string> edges1;
  std::vector<std::string> edges8;
  const std::vector<Finding> a = AnalyzePaths(roots, serial, nullptr, &edges1);
  const std::vector<Finding> b = AnalyzePaths(roots, parallel, nullptr, &edges8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file, b[i].file);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].message, b[i].message);
  }
  EXPECT_EQ(edges1, edges8);
  EXPECT_FALSE(a.empty());
  std::remove(td_path.c_str());
}

TEST_F(AnalyzeGraphCacheTest, TimeDomainEditsInvalidateTheCache) {
  const std::string td_path = TestTempPath("time_domains.txt");
  {
    std::ofstream out(td_path, std::ios::trunc);
    out << "wall-fn NowNanos\n";
  }
  AnalyzeOptions options;
  options.run_flow = true;
  options.time_domains_file = td_path;
  options.graph_cache_file = CachePath();
  (void)AnalyzePaths({FixturePath("lock_tree")}, options);
  std::string header_before;
  {
    std::ifstream in(CachePath());
    std::getline(in, header_before);
  }
  EXPECT_EQ(header_before.rfind("# webcc-analyze graph cache v3 ", 0), 0u)
      << header_before;
  {
    std::ofstream out(td_path, std::ios::trunc);
    out << "wall-fn NowNanos\nwall-api SleepNanos\n";
  }
  (void)AnalyzePaths({FixturePath("lock_tree")}, options);
  std::string header_after;
  {
    std::ifstream in(CachePath());
    std::getline(in, header_after);
  }
  EXPECT_NE(header_before, header_after);
  std::remove(td_path.c_str());
}

// --- Whole-tree gate (mirrors the lint.analyze.tree ctest) ------------------

TEST(AnalyzeTreeTest, LayerSpecParsesCleanly) {
  std::vector<Finding> findings;
  const LayerSpec spec =
      ParseLayerSpec("layers.txt", ReadFileOrDie(WEBCC_ANALYZE_LAYERS_FILE), &findings);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(spec.tiers.size(), 5u);
  ASSERT_EQ(spec.tier_of.count("util"), 1u);
  ASSERT_EQ(spec.tier_of.count("chaos"), 1u);
  EXPECT_LT(spec.tier_of.at("util"), spec.tier_of.at("sim"));
  EXPECT_LT(spec.tier_of.at("sim"), spec.tier_of.at("cache"));
  EXPECT_EQ(spec.tier_of.at("cache"), spec.tier_of.at("origin"));
  EXPECT_LT(spec.tier_of.at("core"), spec.tier_of.at("chaos"));
}

TEST(AnalyzeTreeTest, ShippedTimeDomainConfigParsesCleanly) {
  std::vector<Finding> findings;
  const TimeDomainConfig config = ParseTimeDomainConfig(
      "time_domains.txt", ReadFileOrDie(WEBCC_ANALYZE_TIME_DOMAINS_FILE), &findings);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(config.wall_fns.count("NowNanos"), 1u);
  EXPECT_EQ(config.sim_fns.count("Seconds"), 1u);
  EXPECT_EQ(config.wall_apis.count("SleepNanos"), 1u);
  ASSERT_FALSE(config.converters.empty());
  EXPECT_EQ(config.converters.front(), "webcc::ServeFrontend::SimTimeFor");
}

TEST(AnalyzeTreeTest, ShippedDeadWaiversAllCarryJustifications) {
  std::vector<Finding> findings;
  const std::vector<DeadWaiver> waivers = ParseDeadWaivers(
      "dead_waivers.txt", ReadFileOrDie(WEBCC_ANALYZE_DEAD_WAIVERS_FILE), &findings);
  EXPECT_TRUE(findings.empty());
  EXPECT_FALSE(waivers.empty());
  for (const DeadWaiver& w : waivers) {
    EXPECT_FALSE(w.justification.empty()) << w.function;
  }
}

}  // namespace
}  // namespace webcc::analyze
