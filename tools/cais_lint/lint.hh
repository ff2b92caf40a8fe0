/**
 * @file
 * cais-lint: determinism-hazard static analysis for the CAIS tree.
 *
 * A token-level analysis (a real lexer that strips comments, string
 * literals and preprocessor noise — not grep) that enforces the
 * determinism contract of DESIGN.md §6c. Rules:
 *
 *  - D1  range-for / iterator loops over std::unordered_map /
 *        std::unordered_set in src/ (iteration order leaks into
 *        events and stats);
 *  - D2  containers keyed on raw pointers (allocation-order
 *        nondeterminism);
 *  - D3  wall-clock time and unseeded randomness outside
 *        src/common/rng.* and the bench/ timing harnesses;
 *  - D4  mutable namespace-scope or function-static state outside an
 *        explicit whitelist;
 *  - D5  <cmath> / ceil / floor reintroduced into src/noc/ or
 *        src/gpu/ hot paths (use common/intmath.hh);
 *  - D6  std::function passed where an EventQueue callback
 *        (InlineEvent) is required;
 *  - D7  iteration over an unordered container *returned by a
 *        function* in src/ (the shape D1's variable pass misses);
 *  - D12 static_cast<Cycle>(...) over floating-point operands in
 *        src/noc/, src/gpu/ or src/switchcompute/ hot paths.
 *
 * (D8-D11 guarded the sharded event core's shard ownership; they
 * were retired with it and their ids are not reused.)
 *
 * Any finding is suppressible at its site with
 *
 *     // cais-lint: allow(D4) -- one-line justification
 *
 * on the same line or alone on the line directly above. A
 * suppression without a justification (or naming an unknown rule)
 * does not suppress and is itself reported as rule X1.
 */

#ifndef CAIS_TOOLS_CAIS_LINT_LINT_HH
#define CAIS_TOOLS_CAIS_LINT_LINT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace cais::lint
{

/** One rule violation at a source location. */
struct Finding
{
    std::string file; ///< path relative to the repo root, '/'-separated
    int line = 0;
    std::string rule;    ///< "D1".."D12" or "X1"
    std::string message; ///< what was found
    std::string hint;    ///< one-line fix hint
};

/** Static description of one rule (for --list-rules and docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
    const char *hint;
};

/** All rules the linter knows, in id order. */
const std::vector<RuleInfo> &ruleTable();

/** Tuning knobs of one lint run. */
struct Options
{
    /**
     * Path substrings exempt from rule D4 (the explicit whitelist of
     * files allowed to hold mutable namespace-scope state). Empty by
     * default: the tree uses inline suppressions instead, so every
     * exemption carries a visible justification.
     */
    std::vector<std::string> d4Whitelist;
};

/**
 * A lint run over an explicit set of (path, content) sources.
 *
 * Paths are interpreted relative to the repo root regardless of
 * where the files physically live, so tests can lint inline fixture
 * snippets under virtual paths like "src/fixture.cc".
 */
class Linter
{
  public:
    /** Queue one source file for analysis. */
    void addSource(std::string path, std::string content);

    /** Analyze all queued sources; findings sorted by (file, line, rule). */
    std::vector<Finding> run(const Options &opts = Options{});

  private:
    struct Source
    {
        std::string path;
        std::string content;
    };

    std::vector<Source> sources;
};

/** Serialize findings to the baseline format ("rule|file|line"). */
std::string writeBaseline(const std::vector<Finding> &findings);

/**
 * Serialize findings as a cais-lint-v1 JSON document: schema tag,
 * files scanned, per-rule counts over the full rule table, and one
 * record per finding. Deterministic byte-stable output (findings are
 * already sorted by Linter::run).
 */
std::string writeFindingsJson(const std::vector<Finding> &findings,
                              std::size_t files_scanned);

/**
 * Drop findings present in @p baseline_text (emitted by
 * writeBaseline; '#' comments and blank lines are ignored), leaving
 * only *new* findings. Returns the number of baseline entries that
 * matched nothing (stale entries, informational).
 */
int applyBaseline(std::vector<Finding> &findings,
                  const std::string &baseline_text);

/** "file:line: [rule] message (fix: hint)" */
std::string formatFinding(const Finding &f);

} // namespace cais::lint

#endif // CAIS_TOOLS_CAIS_LINT_LINT_HH
