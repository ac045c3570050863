/**
 * @file
 * Tests for asdlint v2's cross-TU machinery: the pass-1 declaration
 * index (nested classes, out-of-line method binding, raw-string and
 * macro-heavy bodies, the self-index over src/), the pass-2 semantic
 * rules (snapshot coverage, wall-clock bans,
 * flow-aware unordered iteration), reasoned suppressions, and the
 * fixture corpus's pinned, input-order-free findings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "lint/decl_index.hpp"
#include "lint/lexer.hpp"
#include "lint/linter.hpp"
#include "lint/semantic_rules.hpp"

using namespace asd::lint;

namespace
{

/** Lex @p source into an IndexedFile for buildDeclIndex(). */
IndexedFile
indexed(const std::string &path, std::string_view source)
{
    LexResult lexed = lex(source);
    IndexedFile file;
    file.path = path;
    file.tokens = std::move(lexed.tokens);
    file.suppressions = std::move(lexed.suppressions);
    return file;
}

/** Build a DeclIndex over (path, source) pairs. */
DeclIndex
indexOf(std::vector<std::pair<std::string, std::string>> sources)
{
    std::vector<IndexedFile> files;
    for (auto &[path, source] : sources)
        files.push_back(indexed(path, source));
    return buildDeclIndex(std::move(files));
}

/** Lint (path, source) pairs as one tree with the full rule pack. */
std::vector<Diagnostic>
runAll(std::vector<std::pair<std::string, std::string>> sources)
{
    std::vector<SourceInput> inputs;
    for (auto &[path, source] : sources)
        inputs.push_back({path, source});
    return lintSources(inputs);
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

/** First diagnostic for @p rule, or nullptr. */
const Diagnostic *
firstOf(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    for (const Diagnostic &d : diags)
        if (d.rule == rule)
            return &d;
    return nullptr;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// --- declaration index: members and flags --------------------------

TEST(DeclIndex, MemberInventoryAndFlags)
{
    const auto index = indexOf(
        {{"src/core/widget.hpp",
          "class Widget {\n"
          "  public:\n"
          "    int api();\n"
          "  private:\n"
          "    unsigned long ticks_ = 0;\n"
          "    static int live_;\n"
          "    const int limit_ = 4;\n"
          "    Sink *sink_ = nullptr;\n"
          "    Sink &owner_;\n"
          "    WidgetConfig config_;\n"
          "    std::vector<int> history_;\n"
          "};\n"}});
    const ClassDecl *cls = index.findClass("Widget");
    ASSERT_NE(cls, nullptr);
    ASSERT_EQ(cls->members.size(), 7u);

    const MemberDecl &ticks = cls->members[0];
    EXPECT_EQ(ticks.name, "ticks_");
    EXPECT_EQ(ticks.line, 5u);
    EXPECT_FALSE(ticks.is_static);

    EXPECT_TRUE(cls->members[1].is_static);
    EXPECT_TRUE(cls->members[2].is_const);
    EXPECT_TRUE(cls->members[3].is_pointer);
    EXPECT_TRUE(cls->members[4].is_reference);
    EXPECT_TRUE(cls->members[5].typeMentions("Config"));
    EXPECT_TRUE(cls->members[6].typeMentions("vector"));
    EXPECT_FALSE(cls->members[6].typeMentions("unordered"));
}

TEST(DeclIndex, NestedClassesInsideNamespaces)
{
    const auto index = indexOf(
        {{"src/core/nested.hpp",
          "namespace asd {\n"
          "namespace detail {\n"
          "struct Outer {\n"
          "    struct Inner {\n"
          "        int x_ = 0;\n"
          "    };\n"
          "    Inner slot_;\n"
          "    int y_ = 0;\n"
          "};\n"
          "} // namespace detail\n"
          "} // namespace asd\n"}});

    const ClassDecl *outer = index.findClass("Outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->qualified, "Outer");
    ASSERT_EQ(outer->members.size(), 2u);
    EXPECT_EQ(outer->members[0].name, "slot_");
    EXPECT_EQ(outer->members[1].name, "y_");

    const ClassDecl *inner = index.findClass("Outer::Inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->qualified, "Outer::Inner");
    ASSERT_EQ(inner->members.size(), 1u);
    EXPECT_EQ(inner->members[0].name, "x_");
}

TEST(DeclIndex, BindsOutOfLineMethodBodiesAcrossFiles)
{
    // The .cpp is indexed *before* the header on purpose: binding
    // happens in a second sub-pass.
    const auto index = indexOf(
        {{"src/core/counter.cpp",
          "#include \"core/counter.hpp\"\n"
          "namespace asd {\n"
          "void Counter::tick() { ticks_ += step_; }\n"
          "int Outer::Inner::get() { return x_; }\n"
          "} // namespace asd\n"},
         {"src/core/counter.hpp",
          "namespace asd {\n"
          "class Counter {\n"
          "  public:\n"
          "    void tick();\n"
          "  private:\n"
          "    unsigned long ticks_ = 0;\n"
          "    unsigned long step_ = 1;\n"
          "};\n"
          "struct Outer {\n"
          "    struct Inner {\n"
          "        int get();\n"
          "        int x_ = 0;\n"
          "    };\n"
          "};\n"
          "} // namespace asd\n"}});

    const ClassDecl *counter = index.findClass("Counter");
    ASSERT_NE(counter, nullptr);
    const MethodDecl *tick = counter->findMethod("tick");
    ASSERT_NE(tick, nullptr);
    EXPECT_TRUE(tick->has_body);
    EXPECT_EQ(tick->file, "src/core/counter.cpp");
    const auto idents = identifiersIn(tick->body);
    EXPECT_TRUE(idents.count("ticks_"));
    EXPECT_TRUE(idents.count("step_"));

    const ClassDecl *inner = index.findClass("Outer::Inner");
    ASSERT_NE(inner, nullptr);
    const MethodDecl *get = inner->findMethod("get");
    ASSERT_NE(get, nullptr);
    EXPECT_TRUE(get->has_body);
}

TEST(DeclIndex, SurvivesRawStringsAndMacros)
{
    const auto index = indexOf(
        {{"src/core/gnarly.hpp",
          "#define WIDGET_API(x) int x()\n"
          "const char *kTemplate = R\"({ \"a\": } ; class Fake {)\";\n"
          "class Gnarly {\n"
          "  public:\n"
          "    WIDGET_API(api);\n"
          "    const char *text() { return R\"(} } })\"; }\n"
          "  private:\n"
          "    int real_ = 0;\n"
          "};\n"
          "class After {\n"
          "    int seen_ = 0;\n"
          "};\n"}});

    // The raw strings' braces must not derail scope tracking: both
    // classes are found and Fake (inside a string) is not.
    EXPECT_EQ(index.findClass("Fake"), nullptr);
    const ClassDecl *gnarly = index.findClass("Gnarly");
    ASSERT_NE(gnarly, nullptr);
    ASSERT_EQ(gnarly->members.size(), 1u);
    EXPECT_EQ(gnarly->members[0].name, "real_");
    const ClassDecl *after = index.findClass("After");
    ASSERT_NE(after, nullptr);
    ASSERT_EQ(after->members.size(), 1u);
    EXPECT_EQ(after->members[0].name, "seen_");
}

TEST(DeclIndex, DerivedFromIsTransitiveAndTemplateAware)
{
    const auto index = indexOf(
        {{"src/core/hier.hpp",
          "class Snapshottable {};\n"
          "class Base : public Snapshottable {};\n"
          "class Mid : public Mixin<int>, public Base {};\n"
          "class Leaf final : private Mid {};\n"
          "class Unrelated {};\n"}});
    std::set<std::string> names;
    for (const ClassDecl *cls : index.derivedFrom("Snapshottable"))
        names.insert(cls->name);
    EXPECT_TRUE(names.count("Base"));
    EXPECT_TRUE(names.count("Mid"));
    EXPECT_TRUE(names.count("Leaf"));
    EXPECT_FALSE(names.count("Unrelated"));
    EXPECT_FALSE(names.count("Snapshottable"));
}

TEST(DeclIndex, ReferencedFromFollowsSameClassHelpers)
{
    const auto index = indexOf(
        {{"src/core/helper.hpp",
          "class Helped {\n"
          "  public:\n"
          "    void saveState(W &w) const { saveCore(w); }\n"
          "  private:\n"
          "    void saveCore(W &w) const { w.u64(deep_); }\n"
          "    unsigned long deep_ = 0;\n"
          "};\n"}});
    const ClassDecl *cls = index.findClass("Helped");
    ASSERT_NE(cls, nullptr);
    const auto refs = cls->referencedFrom("saveState");
    EXPECT_TRUE(refs.count("deep_"));
}

TEST(DeclIndex, FindFunctionsSeesOverloads)
{
    const auto index = indexOf(
        {{"src/sim/ser.hpp",
          "void writeJson(J &j, const RunOptions &o) { j.f(o.a); }\n"
          "void writeJson(J &j, const RunMetrics &m) { j.f(m.b); }\n"}});
    const auto fns = index.findFunctions("writeJson");
    ASSERT_EQ(fns.size(), 2u);
    EXPECT_TRUE(fns[0]->paramsMention("RunOptions"));
    EXPECT_TRUE(fns[1]->paramsMention("RunMetrics"));
    EXPECT_FALSE(fns[0]->paramsMention("RunMetrics"));
}

// --- declaration index: the tree indexes itself --------------------

TEST(DeclIndexSelf, FindsEveryKnownSnapshottable)
{
    const std::filesystem::path root(ASD_SOURCE_DIR);
    std::vector<IndexedFile> files;
    for (const std::string &fs_path :
         collectSources((root / "src").string())) {
        const std::string rel =
            std::filesystem::relative(fs_path, root).generic_string();
        files.push_back(indexed(rel, slurp(fs_path)));
    }
    ASSERT_GT(files.size(), 50u);
    const DeclIndex index = buildDeclIndex(std::move(files));

    std::set<std::string> found;
    for (const ClassDecl *cls : index.derivedFrom("Snapshottable"))
        found.insert(cls->name);

    // Hand-maintained list of direct Snapshottable subclasses in the
    // tree. If you add one and this test fails, extend the list — it
    // exists so pass 1 can never silently lose a whole class.
    for (const char *expected :
         {"TraceSource", "MshrFile", "CacheHierarchy", "SetAssocCache",
          "MemoryController", "OsMmu", "OsKernel", "FrameAllocator",
          "FramePool", "Tlb", "Dram", "TraceCpu", "PrefetchBuffer",
          "StreamFilter", "LikelihoodTable", "AdaptiveScheduler",
          "PhaseDetector", "ReorderScheduler"}) {
        EXPECT_TRUE(found.count(expected))
            << expected << " not discovered by the declaration index";
    }

    // Indirect subclasses arrive through the TraceSource base.
    EXPECT_TRUE(found.count("VectorTraceSource"));
    EXPECT_TRUE(found.count("FileTraceSource"));
}

// --- semantic rule: snapshot-field-coverage ------------------------

namespace
{

const char *kLeakySource =
    "class Leaky : public Snapshottable {\n"
    "  protected:\n"
    "    void snapshot(SnapshotIo &io) override {\n"
    "        io.u64(hits_);\n"
    "    }\n"
    "  private:\n"
    "    unsigned long hits_ = 0;\n"
    "    unsigned long misses_ = 0;\n"
    "    unsigned long window_ = 0;\n"
    "};\n";

} // namespace

TEST(SnapshotCoverage, FlagsEveryMemberSnapshotNeverNames)
{
    const auto diags = runAll({{"src/core/leaky.hpp", kLeakySource}});
    EXPECT_EQ(countRule(diags, "snapshot-field-coverage"), 2u);
    const Diagnostic *first =
        firstOf(diags, "snapshot-field-coverage");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->symbol, "Leaky::misses_");
    EXPECT_NE(first->message.find("is never snapshotted"),
              std::string::npos);
}

TEST(SnapshotCoverage, ClassWithStateButNoSnapshotIsFlagged)
{
    const auto diags = runAll(
        {{"src/core/forgot.hpp",
          "class Forgot : public Snapshottable {\n"
          "  public:\n"
          "    void observe(unsigned long line) { last_ = line; }\n"
          "  private:\n"
          "    unsigned long last_ = 0;\n"
          "    GoodConfig config_;\n"
          "};\n"
          "class Stateless : public Snapshottable {\n"
          "  public:\n"
          "    int twice(int v) const { return 2 * v; }\n"
          "};\n"}});
    ASSERT_EQ(countRule(diags, "snapshot-field-coverage"), 1u);
    EXPECT_EQ(firstOf(diags, "snapshot-field-coverage")->symbol,
              "Forgot::last_");
}

TEST(SnapshotCoverage, CreditsTransitiveHelpersAndExemptions)
{
    const auto diags = runAll(
        {{"src/core/good.hpp",
          "class Good : public Snapshottable {\n"
          "  protected:\n"
          "    void snapshot(SnapshotIo &io) override { core(io); }\n"
          "  private:\n"
          "    void core(SnapshotIo &io) { io.u64(core_); }\n"
          "    unsigned long core_ = 0;\n"
          "    static int live_;\n"
          "    const int cap_ = 2;\n"
          "    Sink *sink_ = nullptr;\n"
          "    Sink &owner_;\n"
          "    GoodConfig config_;\n"
          "    std::function<void()> hook_;\n"
          "};\n"}});
    EXPECT_EQ(countRule(diags, "snapshot-field-coverage"), 0u);
}

TEST(SnapshotCoverage, EmptySnapshotIsAnOptOut)
{
    const auto diags = runAll(
        {{"src/core/tap.hpp",
          "class Tap : public Snapshottable {\n"
          "  public:\n"
          "    void snapshot(SnapshotIo &) override {}\n"
          "  private:\n"
          "    unsigned long reads_ = 0;\n"
          "};\n"}});
    EXPECT_EQ(countRule(diags, "snapshot-field-coverage"), 0u);
}

TEST(SnapshotCoverage, SeesOutOfLineDefinitionsCrossFile)
{
    // Declaration in the header, body in the .cpp: the cross-TU
    // index must still credit covered members and flag the leak.
    const auto diags = runAll(
        {{"src/core/split.hpp",
          "class Split : public Snapshottable {\n"
          "  protected:\n"
          "    void snapshot(SnapshotIo &io) override;\n"
          "  private:\n"
          "    unsigned long kept_ = 0;\n"
          "    unsigned long lost_ = 0;\n"
          "};\n"},
         {"src/core/split.cpp",
          "#include \"core/split.hpp\"\n"
          "void Split::snapshot(SnapshotIo &io) { io.u64(kept_); }\n"}});
    EXPECT_EQ(countRule(diags, "snapshot-field-coverage"), 1u);
    const Diagnostic *d = firstOf(diags, "snapshot-field-coverage");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->symbol, "Split::lost_");
}

TEST(SnapshotCoverage, SeededBugInFixtureIsCaught)
{
    // The ISSUE's acceptance probe: add an unserialized member to the
    // clean fixture and the rule must fire on exactly that member.
    const std::filesystem::path fixture =
        std::filesystem::path(ASD_SOURCE_DIR) /
        "tests/lint_fixtures/src/core/snapshot_good.hpp";
    std::string source = slurp(fixture);
    ASSERT_FALSE(source.empty());
    const std::string anchor = "unsigned long ticks_ = 0;";
    const auto at = source.find(anchor);
    ASSERT_NE(at, std::string::npos);
    source.insert(at, "unsigned long leaked_ = 0;\n    ");

    const auto clean =
        runAll({{"src/core/snapshot_good.hpp", slurp(fixture)}});
    EXPECT_EQ(countRule(clean, "snapshot-field-coverage"), 0u);

    const auto diags = runAll({{"src/core/snapshot_good.hpp", source}});
    ASSERT_EQ(countRule(diags, "snapshot-field-coverage"), 1u);
    EXPECT_EQ(firstOf(diags, "snapshot-field-coverage")->symbol,
              "CoveredCounter::leaked_");
}

// --- semantic rule: wall-clock-and-env -----------------------------

TEST(WallClockAndEnv, FiresOnlyInDeterministicLayers)
{
    const char *source = "long f() { return time(nullptr); }\n"
                         "const char *g() { return getenv(\"X\"); }\n";
    EXPECT_EQ(countRule(runAll({{"src/core/clsocked.cpp", source}}),
                        "wall-clock-and-env"),
              2u);
    EXPECT_EQ(countRule(runAll({{"src/telemetry/stamp.cpp", source}}),
                        "wall-clock-and-env"),
              0u);
    EXPECT_EQ(countRule(runAll({{"tools/bench.cpp", source}}),
                        "wall-clock-and-env"),
              0u);
}

TEST(WallClockAndEnv, MemberNamedTimeIsNotACall)
{
    const auto diags = runAll(
        {{"src/core/ok.cpp",
          "long f(const Stamp &s) { return s.time(); }\n"}});
    EXPECT_EQ(countRule(diags, "wall-clock-and-env"), 0u);
}

// --- semantic rule: flow-aware unordered-iteration -----------------

TEST(UnorderedIteration, FollowsCallsToEmittingFunctions)
{
    const char *source =
        "void printRow(const Row &r) { std::cout << r.name; }\n"
        "void dump(const std::unordered_map<int, Row> &rows) {\n"
        "    for (const auto &kv : rows)\n"
        "        printRow(kv.second);\n"
        "}\n"
        "int sum(const std::unordered_map<int, Row> &rows) {\n"
        "    int t = 0;\n"
        "    for (const auto &kv : rows)\n"
        "        t += kv.second.weight;\n"
        "    return t;\n"
        "}\n";
    const auto diags = runAll({{"src/telemetry/rep.cpp", source}});
    ASSERT_EQ(countRule(diags, "unordered-iteration"), 1u);
    const Diagnostic *d = firstOf(diags, "unordered-iteration");
    EXPECT_EQ(d->symbol, "dump");
    EXPECT_EQ(d->line, 3u);
}

TEST(UnorderedIteration, SeesClassMemberContainersInMethods)
{
    const char *source =
        "class Reporter {\n"
        "  public:\n"
        "    void dump() {\n"
        "        for (const auto &kv : counts_)\n"
        "            std::cout << kv.first;\n"
        "    }\n"
        "  private:\n"
        "    std::unordered_map<int, int> counts_;\n"
        "};\n";
    const auto diags = runAll({{"src/telemetry/rep.hpp", source}});
    ASSERT_EQ(countRule(diags, "unordered-iteration"), 1u);
    EXPECT_EQ(firstOf(diags, "unordered-iteration")->symbol,
              "Reporter::dump");
}

// --- reasoned suppressions -----------------------------------------

TEST(AllowReason, SemanticAllowNeedsAReason)
{
    const std::string with_reason =
        std::string(kLeakySource).replace(
            std::string(kLeakySource).find(
                "    unsigned long misses_"),
            0,
            "    // asdlint:allow(snapshot-field-coverage): restored "
            "from the epoch header\n");
    const auto silenced =
        runAll({{"src/core/leaky.hpp", with_reason}});
    EXPECT_EQ(countRule(silenced, "snapshot-field-coverage"), 1u);
    EXPECT_EQ(countRule(silenced, "allow-missing-reason"), 0u);

    const std::string no_reason =
        std::string(kLeakySource).replace(
            std::string(kLeakySource).find(
                "    unsigned long misses_"),
            0, "    // asdlint:allow(snapshot-field-coverage)\n");
    const auto inert = runAll({{"src/core/leaky.hpp", no_reason}});
    EXPECT_EQ(countRule(inert, "snapshot-field-coverage"), 2u);
    EXPECT_EQ(countRule(inert, "allow-missing-reason"), 1u);
}

TEST(AllowReason, TokenRuleAllowNeedsAReason)
{
    const auto bare = runAll(
        {{"src/workloads/gen.cpp",
          "int x = rand(); // asdlint:allow(raw-random)\n"}});
    EXPECT_EQ(countRule(bare, "raw-random"), 1u);
    ASSERT_EQ(countRule(bare, "allow-missing-reason"), 1u);
    EXPECT_EQ(firstOf(bare, "allow-missing-reason")->symbol,
              "raw-random");

    const auto reasoned = runAll(
        {{"src/workloads/gen.cpp",
          "int x = rand(); // asdlint:allow(raw-random): test seed\n"}});
    EXPECT_TRUE(reasoned.empty());
}

TEST(AllowReason, BlankReasonIsNoReason)
{
    // A separator followed only by whitespace is not a reason.
    const auto blank = runAll(
        {{"src/workloads/gen.cpp",
          "int x = rand(); // asdlint:allow(raw-random):   \n"}});
    EXPECT_EQ(countRule(blank, "raw-random"), 1u);
    EXPECT_EQ(countRule(blank, "allow-missing-reason"), 1u);
}

// --- registry ------------------------------------------------------

TEST(SemanticRegistry, NamesAreUniqueAndDocumented)
{
    const auto &rules = semanticRuleRegistry();
    EXPECT_EQ(rules.size(), 4u);
    std::set<std::string> names;
    for (const SemanticRule &rule : rules) {
        EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
        EXPECT_FALSE(rule.summary.empty());
    }
    EXPECT_FALSE(names.count("raw-random"));
    // The option field table replaced the two drift-catching rules.
    EXPECT_FALSE(names.count("serialize-coverage"));
    EXPECT_FALSE(names.count("jobid-plumbing"));
}

// --- fixture corpus ------------------------------------------------

namespace
{

/**
 * The fixture corpus's sources as lintFiles() entries: (path relative
 * to tests/lint_fixtures, filesystem path), in collectSources order.
 */
std::vector<std::pair<std::string, std::string>>
fixtureFiles()
{
    const std::filesystem::path root =
        std::filesystem::path(ASD_SOURCE_DIR) / "tests/lint_fixtures";
    std::vector<std::pair<std::string, std::string>> files;
    for (const char *dir : {"src", "tools"})
        for (const std::string &fs_path :
             collectSources((root / dir).string()))
            files.emplace_back(std::filesystem::relative(fs_path, root)
                                   .generic_string(),
                               fs_path);
    return files;
}

} // namespace

TEST(FixtureCorpus, FindingsMatchThePinnedCounts)
{
    // The corpus under tests/lint_fixtures fires exactly these
    // (file, rule) counts. Comparing whole maps checks both
    // directions: a new finding fails, and so does a fixture that
    // stops firing (a silently dead rule is a regression too).
    const auto files = fixtureFiles();
    ASSERT_EQ(files.size(), 5u);

    std::map<std::pair<std::string, std::string>, std::size_t> counts;
    for (const Diagnostic &diag : lintFiles(files))
        ++counts[{diag.file, diag.rule}];

    const std::map<std::pair<std::string, std::string>, std::size_t>
        expected = {
            {{"src/core/snapshot_bad.hpp", "allow-missing-reason"}, 1},
            {{"src/core/snapshot_bad.hpp", "snapshot-field-coverage"},
             4},
            {{"src/sim/wallclock_bad.cpp", "wall-clock-and-env"}, 3},
            {{"src/telemetry/report_unordered.cpp",
              "unordered-iteration"},
             1},
        };
    EXPECT_EQ(counts, expected);
}

TEST(FixtureCorpus, FindingsDoNotDependOnInputOrder)
{
    // asdlint's output is part of the gate: the same tree must print
    // the same diagnostics, in the same order, however it is listed.
    auto files = fixtureFiles();
    const std::vector<Diagnostic> forward = lintFiles(files);
    ASSERT_FALSE(forward.empty());
    std::reverse(files.begin(), files.end());
    const std::vector<Diagnostic> backward = lintFiles(files);
    ASSERT_EQ(backward.size(), forward.size());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(backward[i].file, forward[i].file) << i;
        EXPECT_EQ(backward[i].line, forward[i].line) << i;
        EXPECT_EQ(backward[i].rule, forward[i].rule) << i;
        EXPECT_EQ(backward[i].message, forward[i].message) << i;
        EXPECT_EQ(backward[i].symbol, forward[i].symbol) << i;
    }
}
