/**
 * @file
 * Unit tests for the asdlint static-analysis pass: every rule in the
 * pack gets a true-positive and a true-negative fixture, plus
 * coverage for the lexer, suppression comments and source
 * collection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/linter.hpp"
#include "lint/rules.hpp"

using namespace asd;
using namespace asd::lint;

namespace
{

/** Shorthand: lint @p source as @p path with the full rule pack. */
std::vector<Diagnostic>
run(const std::string &path, std::string_view source)
{
    return lintSource(path, source);
}

/** Count diagnostics attributed to @p rule. */
std::size_t
countRule(const std::vector<Diagnostic> &diags,
          const std::string &rule)
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags)
        n += d.rule == rule ? 1u : 0u;
    return n;
}

} // namespace

// --- lexer ---------------------------------------------------------

TEST(LintLexer, TokenizesIdentifiersNumbersAndPuncts)
{
    const auto lexed = lex("foo += bar42 << 3;");
    ASSERT_EQ(lexed.tokens.size(), 6u);
    EXPECT_EQ(lexed.tokens[0].text, "foo");
    EXPECT_EQ(lexed.tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(lexed.tokens[1].text, "+=");
    EXPECT_EQ(lexed.tokens[1].kind, TokenKind::Punct);
    EXPECT_EQ(lexed.tokens[2].text, "bar42");
    EXPECT_EQ(lexed.tokens[3].text, "<<");
    EXPECT_EQ(lexed.tokens[4].text, "3");
    EXPECT_EQ(lexed.tokens[4].kind, TokenKind::Number);
}

TEST(LintLexer, CommentsAndStringsHideTheirContents)
{
    const auto lexed = lex("int a; // double trouble\n"
                           "const char *s = \"double\";\n"
                           "/* double */ int b;");
    for (const Token &tok : lexed.tokens)
        EXPECT_FALSE(tok.kind == TokenKind::Identifier &&
                     tok.text == "double")
            << "line " << tok.line;
}

TEST(LintLexer, RawStringsAreOneToken)
{
    const auto lexed = lex("auto s = R\"(for (x : m) rand();)\";");
    std::size_t strings = 0;
    for (const Token &tok : lexed.tokens)
        strings += tok.kind == TokenKind::String ? 1u : 0u;
    EXPECT_EQ(strings, 1u);
    for (const Token &tok : lexed.tokens)
        EXPECT_NE(tok.text, "rand");
}

TEST(LintLexer, TracksLineNumbers)
{
    const auto lexed = lex("a\n\nb\nc");
    ASSERT_EQ(lexed.tokens.size(), 3u);
    EXPECT_EQ(lexed.tokens[0].line, 1u);
    EXPECT_EQ(lexed.tokens[1].line, 3u);
    EXPECT_EQ(lexed.tokens[2].line, 4u);
}

TEST(LintLexer, CollectsSuppressionMarkers)
{
    const auto lexed =
        lex("x; // asdlint:allow(raw-random, narrowing-cast): ok\n"
            "y; /* asdlint:allow(float-in-cost-path): ok */\n");
    ASSERT_EQ(lexed.suppressions.size(), 2u);
    EXPECT_EQ(lexed.suppressions[0].line, 1u);
    ASSERT_EQ(lexed.suppressions[0].rules.size(), 2u);
    EXPECT_EQ(lexed.suppressions[0].rules[0], "raw-random");
    EXPECT_EQ(lexed.suppressions[0].rules[1], "narrowing-cast");
    EXPECT_EQ(lexed.suppressions[1].line, 2u);
    EXPECT_EQ(lexed.suppressions[1].rules[0], "float-in-cost-path");
    EXPECT_EQ(lexed.suppressions[1].reason, "ok");
}

TEST(LintLexer, SplicesPreprocessorContinuations)
{
    const auto lexed = lex("#include \\\n\"core/foo.hpp\"\nint x;");
    ASSERT_FALSE(lexed.tokens.empty());
    EXPECT_EQ(lexed.tokens[0].kind, TokenKind::Directive);
    EXPECT_NE(lexed.tokens[0].text.find("core/foo.hpp"),
              std::string::npos);
}

TEST(LintLexer, SplicesInsideTokens)
{
    // A backslash-newline may fall anywhere — even mid-identifier or
    // between an encoding prefix and its quote (phase 2 runs before
    // tokenization).
    const auto lexed = lex("int ra\\\nnd_state;\nconst char *s = "
                           "u8\\\n\"x\";");
    ASSERT_GE(lexed.tokens.size(), 2u);
    EXPECT_EQ(lexed.tokens[1].text, "rand_state");
    bool found_string = false;
    for (const Token &tok : lexed.tokens)
        found_string |= tok.kind == TokenKind::String && tok.text == "x";
    EXPECT_TRUE(found_string);
}

TEST(LintLexer, RawStringsKeepTheirSplices)
{
    // Phase 2 is reverted inside raw string literals: the backslash
    // and newline survive as content.
    const auto lexed = lex("auto s = R\"(a\\\nb)\";");
    ASSERT_FALSE(lexed.tokens.empty());
    const Token &str = lexed.tokens.back() /* ; before EOF */;
    bool found = false;
    for (const Token &tok : lexed.tokens)
        if (tok.kind == TokenKind::String) {
            EXPECT_NE(tok.text.find('\\'), std::string::npos);
            found = true;
        }
    EXPECT_TRUE(found) << str.text;
}

TEST(LintLexer, EncodingPrefixedRawStringIsOneToken)
{
    const auto lexed = lex("auto s = u8R\"x(rand(); \"quoted\")x\";");
    std::size_t strings = 0;
    for (const Token &tok : lexed.tokens)
        strings += tok.kind == TokenKind::String ? 1u : 0u;
    EXPECT_EQ(strings, 1u);
    for (const Token &tok : lexed.tokens)
        EXPECT_NE(tok.text, "rand");
}

TEST(LintLexer, DigraphsMapToTheirPrimaryForms)
{
    const auto lexed = lex("int a<:3:>; x = y <% z = 1; %>");
    std::vector<std::string> puncts;
    for (const Token &tok : lexed.tokens)
        if (tok.kind == TokenKind::Punct)
            puncts.push_back(tok.text);
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "["),
              puncts.end());
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "]"),
              puncts.end());
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "{"),
              puncts.end());
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "}"),
              puncts.end());
    // <:: followed by a non-colon stays '<' then '::' (the standard's
    // template-bracket carve-out).
    const auto carve = lex("foo<::bar>()");
    ASSERT_GE(carve.tokens.size(), 3u);
    EXPECT_EQ(carve.tokens[1].text, "<");
    EXPECT_EQ(carve.tokens[2].text, "::");
}

TEST(LintLexer, CapturesSuppressionReasons)
{
    const auto lexed =
        lex("int x; // asdlint:allow(snapshot-field-coverage): derived "
            "from config\n"
            "int y; // asdlint:allow(raw-random)\n");
    ASSERT_EQ(lexed.suppressions.size(), 2u);
    EXPECT_EQ(lexed.suppressions[0].reason, "derived from config");
    EXPECT_TRUE(lexed.suppressions[1].reason.empty());
}

// --- rule: float-in-cost-path --------------------------------------

TEST(LintRules, FloatInCostPathPositive)
{
    const auto diags = run("src/mc/scheduler.cpp",
                           "double cost(int x) { return x * 0.5; }");
    EXPECT_EQ(countRule(diags, "float-in-cost-path"), 1u);
}

TEST(LintRules, FloatInCostPathNegative)
{
    // Fixed-point arithmetic in a covered file: clean.
    EXPECT_EQ(countRule(run("src/mc/scheduler.cpp",
                            "std::int64_t cost() { return 8; }"),
                        "float-in-cost-path"),
              0u);
    // double outside the covered cost paths (energy model): clean.
    EXPECT_EQ(countRule(run("src/dram/power.cpp",
                            "double watts() { return 1.5; }"),
                        "float-in-cost-path"),
              0u);
    // Mention in a comment: clean.
    EXPECT_EQ(countRule(run("src/mc/scheduler.cpp",
                            "// the old double form was fragile\n"
                            "std::int64_t cost();"),
                        "float-in-cost-path"),
              0u);
}

// --- rule: unordered-iteration -------------------------------------

TEST(LintRules, UnorderedIterationPositive)
{
    const char *source =
        "#include <iostream>\n"
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> counts;\n"
        "void dump() {\n"
        "    for (const auto &kv : counts)\n"
        "        std::cout << kv.first;\n"
        "}\n";
    const auto diags = run("src/telemetry/dump.cpp", source);
    ASSERT_EQ(countRule(diags, "unordered-iteration"), 1u);
    EXPECT_EQ(diags[0].line, 5u);
}

TEST(LintRules, UnorderedIterationBeginPositive)
{
    const char *source =
        "#include <cstdio>\n"
        "std::unordered_set<int> seen;\n"
        "void dump() {\n"
        "    for (auto it = seen.begin(); it != seen.end(); ++it)\n"
        "        printf(\"%d\", *it);\n"
        "}\n";
    EXPECT_EQ(countRule(run("src/sim/dump.cpp", source),
                        "unordered-iteration"),
              1u);
}

TEST(LintRules, UnorderedIterationNegative)
{
    // Ordered map in an emitting TU: clean.
    EXPECT_EQ(countRule(run("src/sim/dump.cpp",
                            "#include <iostream>\n"
                            "std::map<int, int> counts;\n"
                            "void dump() {\n"
                            "    for (const auto &kv : counts)\n"
                            "        std::cout << kv.first;\n"
                            "}\n"),
                        "unordered-iteration"),
              0u);
    // Unordered lookup (no iteration) in an emitting TU: clean.
    EXPECT_EQ(countRule(run("src/sim/dump.cpp",
                            "#include <iostream>\n"
                            "std::unordered_map<int, int> counts;\n"
                            "bool has(int k) {\n"
                            "    return counts.find(k) != "
                            "counts.end();\n"
                            "}\n"),
                        "unordered-iteration"),
              0u);
    // Iteration in a TU that emits nothing: out of scope.
    EXPECT_EQ(countRule(run("src/core/scan.cpp",
                            "std::unordered_map<int, int> counts;\n"
                            "int total() {\n"
                            "    int t = 0;\n"
                            "    for (const auto &kv : counts)\n"
                            "        t += kv.second;\n"
                            "    return t;\n"
                            "}\n"),
                        "unordered-iteration"),
              0u);
}

// --- rule: raw-random ----------------------------------------------

TEST(LintRules, RawRandomPositive)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "int pick() { return rand() % 6; }\n"
            "std::uint64_t seed() { return std::random_device{}(); }");
    EXPECT_EQ(countRule(diags, "raw-random"), 2u);
}

TEST(LintRules, RawRandomNegative)
{
    // The blessed PRNG wrapper: clean.
    EXPECT_EQ(countRule(run("src/workloads/gen.cpp",
                            "#include \"common/random.hpp\"\n"
                            "std::uint64_t pick(asd::Rng &rng) {\n"
                            "    return rng.nextBelow(6);\n"
                            "}\n"),
                        "raw-random"),
              0u);
    // common/random itself may name the primitives it wraps.
    EXPECT_EQ(countRule(run("src/common/random.cpp",
                            "// like mt19937 but portable\n"
                            "std::uint64_t x = rand();"),
                        "raw-random"),
              0u);
}

// --- rule: narrowing-cast ------------------------------------------

TEST(LintRules, NarrowingCastPositive)
{
    const auto diags = run(
        "src/cache/index.cpp",
        "std::uint32_t set(std::uint64_t line_addr) {\n"
        "    return static_cast<std::uint32_t>(line_addr % sets);\n"
        "}\n");
    ASSERT_EQ(countRule(diags, "narrowing-cast"), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
}

TEST(LintRules, NarrowingCastNegative)
{
    // Widening a cycle value: clean.
    EXPECT_EQ(countRule(run("src/cache/index.cpp",
                            "std::uint64_t w(std::uint32_t cycle) {\n"
                            "    return "
                            "static_cast<std::uint64_t>(cycle);\n"
                            "}\n"),
                        "narrowing-cast"),
              0u);
    // Narrowing something that is not cycle/address-like: clean.
    EXPECT_EQ(countRule(run("src/cache/index.cpp",
                            "int n(std::size_t total) {\n"
                            "    return static_cast<int>(total);\n"
                            "}\n"),
                        "narrowing-cast"),
              0u);
    // The checked helper: clean.
    EXPECT_EQ(countRule(run("src/cache/index.cpp",
                            "std::uint32_t set(std::uint64_t line) {\n"
                            "    return "
                            "asd::narrow<std::uint32_t>(line);\n"
                            "}\n"),
                        "narrowing-cast"),
              0u);
}

// --- rule: layer-include -------------------------------------------

TEST(LintRules, LayerIncludePositive)
{
    const auto diags = run("src/core/helper.hpp",
                           "#include \"sim/system.hpp\"\n");
    ASSERT_EQ(countRule(diags, "layer-include"), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Error);
}

TEST(LintRules, LayerIncludeNegative)
{
    // Downward and same-layer includes: clean.
    EXPECT_EQ(countRule(run("src/sim/system.cpp",
                            "#include \"core/asd_prefetcher.hpp\"\n"
                            "#include \"sim/system.hpp\"\n"
                            "#include \"common/types.hpp\"\n"),
                        "layer-include"),
              0u);
    // Tests and benches may include anything.
    EXPECT_EQ(countRule(run("tests/test_system.cpp",
                            "#include \"sim/system.hpp\"\n"),
                        "layer-include"),
              0u);
    // System headers are out of scope.
    EXPECT_EQ(countRule(run("src/core/helper.hpp",
                            "#include <vector>\n"),
                        "layer-include"),
              0u);
}

// --- rule: check-side-effect ---------------------------------------

TEST(LintRules, CheckSideEffectPositive)
{
    const auto diags =
        run("src/mc/memory_controller.cpp",
            "void audit() { checkThat(count++ == limit, \"x\"); }");
    EXPECT_EQ(countRule(diags, "check-side-effect"), 1u);
    EXPECT_EQ(countRule(run("src/core/scan.cpp",
                            "void f() { panicIfNot(total = 3, "
                            "\"oops\"); }"),
                        "check-side-effect"),
              1u);
}

TEST(LintRules, CheckSideEffectNegative)
{
    // Comparisons and a message string containing '=': clean.
    EXPECT_EQ(countRule(run("src/mc/memory_controller.cpp",
                            "void audit() {\n"
                            "    checkThat(count == limit, "
                            "\"count = limit\");\n"
                            "    checkThat(count <= limit, \"x\");\n"
                            "}\n"),
                        "check-side-effect"),
              0u);
    // Mutation outside the check call: clean.
    EXPECT_EQ(countRule(run("src/core/scan.cpp",
                            "void f() { ++count; checkThat(count > 0, "
                            "\"x\"); }"),
                        "check-side-effect"),
              0u);
}

// --- suppressions --------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesTheRule)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "int x = rand(); // asdlint:allow(raw-random): test\n");
    EXPECT_EQ(countRule(diags, "raw-random"), 0u);
}

TEST(LintSuppression, PreviousLineAllowSilencesTheRule)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "// asdlint:allow(raw-random): test\n"
            "int x = rand();\n");
    EXPECT_EQ(countRule(diags, "raw-random"), 0u);
}

TEST(LintSuppression, WildcardIsNotARuleName)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "int x = rand(); // asdlint:allow(*): test\n");
    EXPECT_EQ(countRule(diags, "raw-random"), 1u);
}

TEST(LintSuppression, WrongRuleNameDoesNotSilence)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "int x = rand(); // asdlint:allow(narrowing-cast): test\n");
    EXPECT_EQ(countRule(diags, "raw-random"), 1u);
}

TEST(LintSuppression, AllowReachesOnlyTheNextLine)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "// asdlint:allow(raw-random): test\n"
            "\n"
            "int x = rand();\n");
    EXPECT_EQ(countRule(diags, "raw-random"), 1u);
}

TEST(LintSuppression, OneAllowCanNameSeveralRules)
{
    const auto diags =
        run("src/workloads/gen.cpp",
            "// asdlint:allow(narrowing-cast, raw-random): test seed\n"
            "int x = rand();\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRegistry, NamesAreUniqueAndDocumented)
{
    // unordered-iteration graduated to the semantic registry in v2;
    // five per-file token rules remain here.
    const auto &rules = ruleRegistry();
    EXPECT_GE(rules.size(), 5u);
    std::set<std::string> names;
    for (const Rule &rule : rules) {
        EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
        EXPECT_FALSE(rule.summary.empty());
    }
}

// --- source collection --------------------------------------------

TEST(LintCollect, SortsFiltersAndPrunesFixtures)
{
    namespace fs = std::filesystem;
    const fs::path dir = "lint_collect_test";
    fs::remove_all(dir);
    for (const char *file :
         {"b/z.cpp", "b/a.hpp", "a.cc", "c.h", "notes.txt", "x.cxx",
          "lint_fixtures/src/bad.cpp", "b/lint_fixtures/bad.hpp"}) {
        fs::create_directories((dir / file).parent_path());
        std::ofstream(dir / file) << "int x;\n";
    }

    // Only C++ sources, in sorted order, with every lint_fixtures
    // directory pruned from the walk.
    const std::string root = dir.generic_string();
    EXPECT_EQ(collectSources(root),
              (std::vector<std::string>{root + "/a.cc", root + "/b/a.hpp",
                                        root + "/b/z.cpp",
                                        root + "/c.h"}));
    // A fixture directory named explicitly is linted.
    EXPECT_EQ(collectSources(root + "/lint_fixtures"),
              (std::vector<std::string>{root +
                                        "/lint_fixtures/src/bad.cpp"}));
    // A file named explicitly is taken whatever its extension.
    EXPECT_EQ(collectSources(root + "/notes.txt"),
              (std::vector<std::string>{root + "/notes.txt"}));
    fs::remove_all(dir);
}

// --- the repo itself is clean --------------------------------------

TEST(LintSelfCheck, LintSourcesHaveNoViolations)
{
    // The lint_smoke ctest entry scans the whole tree; here we at
    // least pin the lint module's own sources as permanently clean.
    for (const char *file :
         {"lexer.hpp", "lexer.cpp", "linter.hpp", "linter.cpp",
          "rules.hpp", "rules.cpp", "diagnostic.hpp",
          "decl_index.hpp", "decl_index.cpp", "semantic_rules.hpp",
          "semantic_rules.cpp", "token_util.hpp", "token_util.cpp"}) {
        const std::string fs_path =
            std::string(ASD_SOURCE_DIR) + "/src/lint/" + file;
        const auto diags =
            lintFile("src/lint/" + std::string(file), fs_path);
        EXPECT_TRUE(diags.empty())
            << file << ": " << diags.size() << " violations";
    }
}
