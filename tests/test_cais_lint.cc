/**
 * @file
 * cais-lint rule tests: each determinism rule D1..D12 gets at least
 * one positive fixture (the hazard is reported) and one negative
 * fixture (the deterministic idiom passes), plus coverage of the
 * suppression-comment grammar and the baseline diff machinery.
 *
 * Fixtures are inline snippets linted under virtual paths like
 * "src/fixture.cc" -- the path decides which rules apply, exactly as
 * in a real run over the tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hh"
#include "lint.hh"

namespace
{

using cais::lint::applyBaseline;
using cais::lint::Finding;
using cais::lint::Linter;
using cais::lint::Options;
using cais::lint::writeBaseline;

/** Lint one snippet under one virtual path. */
std::vector<Finding>
lintOne(const std::string &path, const std::string &src,
        const Options &opts = Options{})
{
    Linter l;
    l.addSource(path, src);
    return l.run(opts);
}

/** Count findings for @p rule. */
int
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(fs.begin(), fs.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

// --------------------------------------------------------------------
// D1: iteration over unordered containers in src/
// --------------------------------------------------------------------

TEST(LintD1, RangeForOverUnorderedMapIsFlagged)
{
    auto fs = lintOne("src/runtime/x.cc",
                      "#include <unordered_map>\n"
                      "void f() {\n"
                      "    std::unordered_map<int, int> m;\n"
                      "    for (auto &kv : m) { (void)kv; }\n"
                      "}\n");
    ASSERT_EQ(countRule(fs, "D1"), 1);
    EXPECT_EQ(fs[0].line, 4);
}

TEST(LintD1, IteratorLoopOverUnorderedSetIsFlagged)
{
    auto fs = lintOne("src/runtime/x.cc",
                      "#include <unordered_set>\n"
                      "void f() {\n"
                      "    std::unordered_set<int> s;\n"
                      "    for (auto it = s.begin(); it != s.end(); ++it) {}\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D1"), 1);
}

TEST(LintD1, MemberDeclaredInHeaderIsFlaggedInSourceFile)
{
    // The hazard member lives in a header; the loop in a .cc. The
    // linter pools unordered-container names across files.
    Linter l;
    l.addSource("src/runtime/tbl.hh",
                "#include <unordered_map>\n"
                "struct T { std::unordered_map<int, int> live; };\n");
    l.addSource("src/runtime/tbl.cc",
                "#include \"tbl.hh\"\n"
                "void dump(T &t) {\n"
                "    for (auto &kv : t.live) { (void)kv; }\n"
                "}\n");
    auto fs = l.run();
    ASSERT_EQ(countRule(fs, "D1"), 1);
    EXPECT_EQ(fs[0].file, "src/runtime/tbl.cc");
}

TEST(LintD1, OrderedMapAndLookupOnlyUsePass)
{
    auto fs = lintOne("src/runtime/x.cc",
                      "#include <map>\n"
                      "#include <unordered_map>\n"
                      "void f() {\n"
                      "    std::map<int, int> ordered;\n"
                      "    for (auto &kv : ordered) { (void)kv; }\n"
                      "    std::unordered_map<int, int> m;\n"
                      "    auto it = m.find(3);\n"
                      "    if (it != m.end()) m.erase(it);\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D1"), 0);
}

TEST(LintD1, TestsAndBenchAreOutOfScope)
{
    std::string src = "#include <unordered_map>\n"
                      "void f() {\n"
                      "    std::unordered_map<int, int> m;\n"
                      "    for (auto &kv : m) { (void)kv; }\n"
                      "}\n";
    EXPECT_EQ(countRule(lintOne("tests/t.cc", src), "D1"), 0);
    EXPECT_EQ(countRule(lintOne("bench/b.cc", src), "D1"), 0);
}

// --------------------------------------------------------------------
// D2: containers keyed on raw pointers
// --------------------------------------------------------------------

TEST(LintD2, PointerKeyedMapIsFlagged)
{
    auto fs = lintOne("src/noc/x.hh",
                      "#include <unordered_map>\n"
                      "struct Link;\n"
                      "struct S {\n"
                      "    int hits = 0;\n"
                      "    std::unordered_map<const Link *, int> portOf;\n"
                      "};\n");
    ASSERT_EQ(countRule(fs, "D2"), 1);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 5);
}

TEST(LintD2, PointerKeyedStdMapIsFlagged)
{
    auto fs = lintOne("src/noc/x.hh",
                      "#include <map>\n"
                      "struct S { std::map<void *, int> m; };\n");
    EXPECT_EQ(countRule(fs, "D2"), 1);
}

TEST(LintD2, IdKeyedMapAndPointerValuePass)
{
    auto fs = lintOne("src/noc/x.hh",
                      "#include <map>\n"
                      "#include <unordered_map>\n"
                      "struct Link;\n"
                      "struct S {\n"
                      "    std::unordered_map<int, Link *> byPort;\n"
                      "    std::map<std::uint64_t, Link *> byId;\n"
                      "};\n");
    EXPECT_EQ(countRule(fs, "D2"), 0);
}

// --------------------------------------------------------------------
// D3: wall-clock / unseeded randomness
// --------------------------------------------------------------------

TEST(LintD3, WallClockAndUnseededRandomnessAreFlagged)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "#include <chrono>\n"
        "void f() {\n"
        "    auto t = std::chrono::system_clock::now();\n"
        "    std::random_device rd;\n"
        "    int r = rand();\n"
        "    (void)t; (void)rd; (void)r;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D3"), 3);
}

TEST(LintD3, RngImplementationAndBenchAreExempt)
{
    std::string src = "#include <chrono>\n"
                      "void f() {\n"
                      "    auto t = std::chrono::steady_clock::now();\n"
                      "    (void)t;\n"
                      "}\n";
    EXPECT_EQ(countRule(lintOne("src/common/rng.cc", src), "D3"), 0);
    EXPECT_EQ(countRule(lintOne("bench/perf.cc", src), "D3"), 0);
    EXPECT_EQ(countRule(lintOne("src/gpu/x.cc", src), "D3"), 1);
}

TEST(LintD3, SeededSimulationRngPasses)
{
    auto fs = lintOne("src/gpu/x.cc",
                      "#include \"common/rng.hh\"\n"
                      "double f(cais::Rng &rng) {\n"
                      "    return rng.uniform(0.0, 1.0);\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D3"), 0);
}

// --------------------------------------------------------------------
// D4: mutable namespace-scope / function-static state
// --------------------------------------------------------------------

TEST(LintD4, NamespaceScopeMutableIsFlagged)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "int g_counter = 0;\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 1);
}

TEST(LintD4, FunctionStaticMutableIsFlagged)
{
    auto fs = lintOne("src/common/x.cc",
                      "int next() {\n"
                      "    static int n = 0;\n"
                      "    return ++n;\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 1);
}

TEST(LintD4, ConstantsAndLocalsPass)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "const int kTableSize = 320;\n"
                      "constexpr double kPi = 3.14159;\n"
                      "static constexpr int kVcs = 8;\n"
                      "int f() {\n"
                      "    int local = 0;\n"
                      "    return local + kTableSize + kVcs;\n"
                      "}\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 0);
}

TEST(LintD4, WhitelistedPathIsExempt)
{
    std::string src = "namespace cais {\n"
                      "int g_counter = 0;\n"
                      "}\n";
    Options opts;
    opts.d4Whitelist.push_back("src/common/x.cc");
    EXPECT_EQ(countRule(lintOne("src/common/x.cc", src, opts), "D4"), 0);
    EXPECT_EQ(countRule(lintOne("src/common/y.cc", src, opts), "D4"), 1);
}

// --------------------------------------------------------------------
// D5: float math in NoC / GPU hot paths
// --------------------------------------------------------------------

TEST(LintD5, CmathIncludeAndCeilAreFlaggedInNoc)
{
    auto fs = lintOne("src/noc/x.cc",
                      "#include <cmath>\n"
                      "int cycles(double bytes, double bw) {\n"
                      "    return static_cast<int>(std::ceil(bytes / bw));\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D5"), 2); // the include and the call
}

TEST(LintD5, IntegerMathInNocPassesAndOtherDirsAreExempt)
{
    auto fs = lintOne("src/noc/x.cc",
                      "#include \"common/intmath.hh\"\n"
                      "int cycles(int bytes, int bw) {\n"
                      "    return cais::ceilDiv(bytes, bw);\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D5"), 0);

    // ceil in the model layer (not noc/gpu) is out of D5's scope.
    auto other = lintOne("src/model/x.cc",
                         "#include <cmath>\n"
                         "double f(double x) { return std::ceil(x); }\n");
    EXPECT_EQ(countRule(other, "D5"), 0);
}

// --------------------------------------------------------------------
// D6: std::function as event callback
// --------------------------------------------------------------------

TEST(LintD6, StdFunctionInsideScheduleIsFlagged)
{
    auto fs = lintOne(
        "src/runtime/x.cc",
        "#include <functional>\n"
        "void f(cais::EventQueue &eq) {\n"
        "    std::function<void()> cb = [] {};\n"
        "    eq.scheduleAfter(10, std::function<void()>(cb));\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D6"), 1);
}

TEST(LintD6, PlainLambdaCallbackPasses)
{
    auto fs = lintOne("src/runtime/x.cc",
                      "void f(cais::EventQueue &eq) {\n"
                      "    eq.scheduleAfter(10, [] {});\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D6"), 0);
}

// --------------------------------------------------------------------
// D7: iteration over unordered containers returned by functions
// --------------------------------------------------------------------

TEST(LintD7, RangeForOverFunctionResultIsFlagged)
{
    auto fs = lintOne(
        "src/runtime/x.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> liveSet();\n"
        "void f() {\n"
        "    for (auto &kv : liveSet()) { (void)kv; }\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "D7"), 1);
    EXPECT_EQ(fs[0].line, 4);
    // D1 deliberately skips idents followed by '(' -- D7 owns this.
    EXPECT_EQ(countRule(fs, "D1"), 0);
}

TEST(LintD7, BeginOnFunctionResultIsFlagged)
{
    auto fs = lintOne(
        "src/runtime/x.cc",
        "#include <unordered_set>\n"
        "struct T { std::unordered_set<int> pending() const; };\n"
        "int f(const T &t) {\n"
        "    return *t.pending().begin();\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "D7"), 1);
    EXPECT_EQ(fs[0].line, 4);
}

TEST(LintD7, DeclarationPooledFromHeaderFlagsCallInSource)
{
    Linter l;
    l.addSource("src/runtime/tbl.hh",
                "#include <unordered_map>\n"
                "struct T { std::unordered_map<int, int> live() const; };\n");
    l.addSource("src/runtime/tbl.cc",
                "#include \"tbl.hh\"\n"
                "void dump(const T &t) {\n"
                "    for (auto &kv : t.live()) { (void)kv; }\n"
                "}\n");
    auto fs = l.run();
    ASSERT_EQ(countRule(fs, "D7"), 1);
    EXPECT_EQ(fs[0].file, "src/runtime/tbl.cc");
}

TEST(LintD7, OrderedReturnTypeAndLookupOnlyUsePass)
{
    auto fs = lintOne(
        "src/runtime/x.cc",
        "#include <map>\n"
        "#include <unordered_map>\n"
        "std::map<int, int> ordered();\n"
        "std::unordered_map<int, int> lookup();\n"
        "int f() {\n"
        "    for (auto &kv : ordered()) { (void)kv; }\n"
        "    return lookup().count(3);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D7"), 0);
}

TEST(LintD7, TestsAndBenchAreOutOfScope)
{
    std::string src = "#include <unordered_map>\n"
                      "std::unordered_map<int, int> liveSet();\n"
                      "void f() {\n"
                      "    for (auto &kv : liveSet()) { (void)kv; }\n"
                      "}\n";
    EXPECT_EQ(countRule(lintOne("tests/t.cc", src), "D7"), 0);
    EXPECT_EQ(countRule(lintOne("bench/b.cc", src), "D7"), 0);
}

TEST(LintD7, SuppressionCommentIsHonored)
{
    auto fs = lintOne(
        "src/runtime/x.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> liveSet();\n"
        "void f() {\n"
        "    // cais-lint: allow(D7) -- order-insensitive sum\n"
        "    for (auto &kv : liveSet()) { (void)kv; }\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D7"), 0);
    EXPECT_EQ(countRule(fs, "X1"), 0);
}

// --------------------------------------------------------------------
// D12: floating-point arithmetic on cycle-typed values in hot paths
// --------------------------------------------------------------------

TEST(LintD12, CastOfDoubleExpressionIsFlagged)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "Cycle f(Cycle c, double mult) {\n"
        "    return static_cast<Cycle>(\n"
        "        static_cast<double>(c) * mult);\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "D12"), 1);
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintD12, CastOverFloatingLiteralIsFlagged)
{
    auto fs = lintOne(
        "src/noc/x.cc",
        "Cycle f(Cycle c) {\n"
        "    return static_cast<Cycle>(c * 1.5);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 1);
}

TEST(LintD12, CastOverExponentLiteralIsFlagged)
{
    // 4e3 has no dot but is still a double literal; 0x1E is not.
    auto fs = lintOne(
        "src/switchcompute/x.cc",
        "Cycle f(Cycle c) {\n"
        "    Cycle a = static_cast<Cycle>(c + 4e3);\n"
        "    Cycle b = static_cast<Cycle>(c + 0x1E);\n"
        "    return a + b;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 1);
}

TEST(LintD12, FloatKeywordInsideCastIsFlagged)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "Cycle f(Cycle c, float scale) {\n"
        "    return static_cast<Cycle>(static_cast<float>(c) *\n"
        "                              scale);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 1);
}

TEST(LintD12, IntegerOnlyCastPasses)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "Cycle f(int n) {\n"
        "    return static_cast<Cycle>(n) * 2;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 0);
}

TEST(LintD12, IntmathHelpersPass)
{
    auto fs = lintOne(
        "src/noc/x.cc",
        "Cycle f(std::uint64_t bytes, const SerDivider &bw) {\n"
        "    return bw.cycles(bytes) + ceilDiv(bytes, 4096);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 0);
}

TEST(LintD12, OutsideHotPathDirectoriesIsNotInScope)
{
    // The bound model and benches legitimately mix doubles with
    // cycle casts; D12 is scoped to the simulation hot paths.
    std::string src = "Cycle f(double v) {\n"
                      "    return static_cast<Cycle>(v);\n"
                      "}\n";
    EXPECT_EQ(countRule(lintOne("src/analysis/x.cc", src), "D12"), 0);
    EXPECT_EQ(countRule(lintOne("src/runtime/x.cc", src), "D12"), 0);
    EXPECT_EQ(countRule(lintOne("bench/x.cc", src), "D12"), 0);
}

TEST(LintD12, SuppressionCommentIsHonored)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "Cycle f(Cycle c, double mult) {\n"
        "    // cais-lint: allow(D12) -- seeded jitter, truncated\n"
        "    return static_cast<Cycle>(\n"
        "        static_cast<double>(c) * mult);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "D12"), 0);
    EXPECT_EQ(countRule(fs, "X1"), 0);
}

// --------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------

TEST(LintSuppress, SameLineSuppressionDropsTheFinding)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "int g = 0; // cais-lint: allow(D4) -- test fixture\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 0);
    EXPECT_EQ(countRule(fs, "X1"), 0);
}

TEST(LintSuppress, OwnLineSuppressionCoversNextCodeLine)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "// cais-lint: allow(D4) -- spans a comment\n"
                      "// block that keeps explaining the exemption\n"
                      "int g = 0;\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 0);
}

TEST(LintSuppress, WrongRuleDoesNotSuppress)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "int g = 0; // cais-lint: allow(D1) -- wrong rule\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 1);
}

TEST(LintSuppress, MissingJustificationIsReportedAsX1)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "int g = 0; // cais-lint: allow(D4)\n"
                      "}\n");
    EXPECT_EQ(countRule(fs, "D4"), 1) << "must not suppress";
    EXPECT_EQ(countRule(fs, "X1"), 1);
}

TEST(LintSuppress, UnknownRuleIdIsReportedAsX1)
{
    auto fs = lintOne("src/common/x.cc",
                      "int x = 0; // cais-lint: allow(D99) -- nope\n");
    EXPECT_EQ(countRule(fs, "X1"), 1);
}

// --------------------------------------------------------------------
// Baseline diffing
// --------------------------------------------------------------------

TEST(LintBaseline, RoundTripSuppressesKnownFindings)
{
    std::string hazard = "namespace cais {\n"
                         "int g = 0;\n"
                         "}\n";
    auto first = lintOne("src/common/x.cc", hazard);
    ASSERT_EQ(countRule(first, "D4"), 1);

    std::string base = writeBaseline(first);
    auto second = lintOne("src/common/x.cc", hazard);
    int stale = applyBaseline(second, base);
    EXPECT_TRUE(second.empty());
    EXPECT_EQ(stale, 0);
}

TEST(LintBaseline, NewFindingsSurviveTheBaseline)
{
    auto old = lintOne("src/common/x.cc",
                       "namespace cais {\nint g = 0;\n}\n");
    std::string base = writeBaseline(old);

    // Same old hazard plus a new one two lines later.
    auto now = lintOne("src/common/x.cc",
                       "namespace cais {\n"
                       "int g = 0;\n"
                       "int h = 0;\n"
                       "}\n");
    applyBaseline(now, base);
    ASSERT_EQ(now.size(), 1u);
    EXPECT_EQ(now[0].line, 3);
}

TEST(LintBaseline, StaleEntriesAreCountedNotFatal)
{
    auto clean = lintOne("src/common/x.cc", "const int k = 1;\n");
    ASSERT_TRUE(clean.empty());
    int stale = applyBaseline(clean, "# comment\nD4|src/common/x.cc|2\n");
    EXPECT_EQ(stale, 1);
    EXPECT_TRUE(clean.empty());
}

// --------------------------------------------------------------------
// --json output (schema cais-lint-v1)
// --------------------------------------------------------------------

TEST(LintJson, FindingsDocumentParsesAndCarriesCounts)
{
    auto fs = lintOne("src/common/x.cc",
                      "namespace cais {\n"
                      "int g = 0;\n"
                      "}\n");
    ASSERT_EQ(countRule(fs, "D4"), 1);

    std::string doc = cais::lint::writeFindingsJson(fs, 1);
    cais::JsonValue v;
    std::string err;
    ASSERT_TRUE(cais::jsonParse(doc, v, err)) << err;
    EXPECT_EQ(v.getString("schema"), "cais-lint-v1");
    EXPECT_EQ(v.getNumber("filesScanned"), 1.0);
    EXPECT_EQ(v.getNumber("totalFindings"), 1.0);

    const cais::JsonValue *counts = v.find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->getNumber("D4"), 1.0);
    // Every rule of the table appears, zero or not.
    EXPECT_EQ(counts->members.size(), cais::lint::ruleTable().size());

    const cais::JsonValue *findings = v.find("findings");
    ASSERT_NE(findings, nullptr);
    ASSERT_EQ(findings->elems.size(), 1u);
    EXPECT_EQ(findings->elems[0].getString("rule"), "D4");
    EXPECT_EQ(findings->elems[0].getString("file"), "src/common/x.cc");
    EXPECT_EQ(findings->elems[0].getNumber("line"), 2.0);
}

TEST(LintJson, CleanRunEmitsEmptyFindingsArray)
{
    std::vector<Finding> none;
    std::string doc = cais::lint::writeFindingsJson(none, 42);
    cais::JsonValue v;
    std::string err;
    ASSERT_TRUE(cais::jsonParse(doc, v, err)) << err;
    EXPECT_EQ(v.getNumber("filesScanned"), 42.0);
    EXPECT_EQ(v.getNumber("totalFindings"), 0.0);
    const cais::JsonValue *findings = v.find("findings");
    ASSERT_NE(findings, nullptr);
    EXPECT_TRUE(findings->isArray());
    EXPECT_TRUE(findings->elems.empty());
}

// --------------------------------------------------------------------
// Lexer robustness: rules must not fire inside comments or strings
// --------------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsAreInvisible)
{
    auto fs = lintOne(
        "src/gpu/x.cc",
        "// std::random_device in a comment\n"
        "/* rand() in a block comment */\n"
        "const char *s = \"std::random_device rand() time(\";\n"
        "const char *r = R\"(std::random_device)\";\n");
    EXPECT_EQ(fs.size(), 0u) << cais::lint::formatFinding(fs[0]);
}

TEST(LintLexer, RuleTableCoversAllRules)
{
    std::vector<std::string> want = {"D1", "D2", "D3", "D4", "D5",
                                     "D6", "D7", "D12", "X1"};
    const auto &table = cais::lint::ruleTable();
    ASSERT_EQ(table.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(table[i].id, want[i]);
}

} // namespace
