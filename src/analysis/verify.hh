/**
 * @file
 * cais-verify: static model checker (DESIGN.md §6e).
 *
 * Runs over a fully constructed System *before* any event executes
 * and checks the structural invariants the paper's correctness story
 * rests on. The pass is read-only — a verified run is bit-identical
 * to an unverified one — and every rule is individually suppressible.
 *
 *  - V1  deadlock-freedom: the channel-dependency graph over every
 *        (link, virtual channel) pair, with edges derived from the
 *        switch forwarding paths and the protocol couplings of the
 *        in-switch compute units, must be acyclic (Dally & Seitz);
 *        a violation is reported as the offending port/VC cycle.
 *        The per-(link family, VC) class graph is checked first; an
 *        acyclic one proves the channel graph acyclic.
 *  - V2  credit conservation: initial link credits must equal the
 *        receiver-side buffer capacity per (link, VC), and no credits
 *        or packets may be in flight before the first event, so the
 *        batched credit-return invariant holds over the run.
 *  - V3  routing coverage: every mergeable address class maps to
 *        exactly one switch (no session chunk may straddle an
 *        interleave block) and all GPUs agree on the session's
 *        expected participant count.
 *  - V4  TB-group / Group-Sync-Table consistency: every synchronized
 *        group has exactly one TB per participating GPU on all GPUs,
 *        group masks fit the 64-bit sync-table entries, and the
 *        merge-unit throttle threshold is reachable.
 *  - V5  kernel-graph sanity: kernel and tile-level producer/consumer
 *        dependencies are acyclic, and asymmetric-overlap pairs have
 *        complementary traffic directions.
 *  (V6 and V7 checked the sharded event core's domain model; they
 *  were retired with it and their ids are not reused.)
 *  - V8  bound soundness (post-run): the simulated makespan must be
 *        at least the static analytical bound of every resource class
 *        (analysis/bound_model.hh); a violation names the resource
 *        and the concrete cycle counts — a makespan below what SM
 *        compute, HBM, link serialization, merge service, or the
 *        kernel critical path permit is a simulator bug.
 *  - V9  slack attribution (post-run, opt-in via a slack ratio): when
 *        sim/bound exceeds the configured ratio, the causal profiler
 *        must be able to explain the slack; runs without attribution
 *        or with coverage below 95% are flagged, cross-referencing
 *        the profiler's dominant WaitClass.
 *
 * Diagnostics are structured: renderable as human-readable text with
 * a fix-it hint per rule, or as a schema-versioned cais-verify-v1
 * JSON document for CI artifacts (tools/cais_verify).
 */

#ifndef CAIS_ANALYSIS_VERIFY_HH
#define CAIS_ANALYSIS_VERIFY_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "runtime/simulation_driver.hh"

namespace cais
{

class JsonWriter;
struct Attribution;
struct BoundResult;

namespace verify
{

/** Schema tag written into every JSON diagnostics document. */
inline constexpr const char *verifySchemaVersion = "cais-verify-v1";

/** One rule violation with its structured payload. */
struct Diagnostic
{
    std::string id;      ///< "V1".."V9"
    std::string message; ///< what is wrong, with concrete values
    std::string hint;    ///< one-line fix-it

    /**
     * Structured payload: for V1/V5 the offending cycle as a
     * port/VC (or kernel) path in traversal order; for the other
     * rules the offending objects (link, VC, session address, group).
     */
    std::vector<std::string> path;
};

/** Static description of one rule (for --list-rules and docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
    const char *hint;
};

/** All rules the checker knows, in id order. */
const std::vector<RuleInfo> &ruleTable();

/**
 * A hypothetical protocol coupling injected into V1's channel-
 * dependency graph: "receiving a class-`from` packet makes the node
 * emit a class-`to` packet while still holding the receive buffer".
 * Used to validate the checker against seeded deadlock cycles and to
 * explore protocol extensions before implementing them.
 */
struct ExtraCoupling
{
    bool atGpu = true; ///< GPU turn (down->up) vs switch turn (up->down)
    VcClass from = VcClass::request;
    VcClass to = VcClass::request;
};

/** Tuning knobs of one verification pass. */
struct Options
{
    /** Rule ids to skip ("V1".."V9"); unknown ids are ignored. */
    std::set<std::string> suppress;

    /** Context echoed into the JSON document (may stay empty). */
    std::string strategy;
    std::string workload;

    /** Injected CDG couplings (testing / protocol exploration). */
    std::vector<ExtraCoupling> extraCouplings;

    /**
     * V9 slack threshold: a post-run check fires when the simulated
     * makespan exceeds v9SlackRatio times the composite bound and the
     * causal profiler cannot explain the slack. 0 (the default)
     * disables V9 — the ratio is workload-dependent, so it is opt-in.
     */
    double v9SlackRatio = 0.0;
};

/** Outcome of one verification pass. */
struct VerifyResult
{
    std::vector<Diagnostic> diagnostics;

    /** Context echo (copied from Options). */
    std::string strategy;
    std::string workload;

    bool ok() const { return diagnostics.empty(); }

    /** Human-readable rendering, one diagnostic per paragraph with
     *  its fix-it hint and path payload. */
    std::string text() const;

    /** cais-verify-v1 JSON document (common/json.hh writer). */
    std::string json() const;

    /** Write this result as one JSON object into @p w (used by
     *  json() and by cais_verify's aggregate document). */
    void writeJson(JsonWriter &w) const;
};

/**
 * Verify a constructed (lowered, not yet run) System. Read-only:
 * never schedules events or mutates state, so a gated run stays
 * bit-identical to an ungated one.
 */
VerifyResult verifySystem(const System &sys, const Options &opts = {});

/**
 * V1's two graphs for one fabric, for tests that hold the class-graph
 * check to the channel DFS it stands in for. A class-graph row is a
 * node f * 6 + v (link family f on VC class v; flat families up,
 * down; tiered U1, D1, U2, D2), and its bit f' * 6 + v' is set when
 * such a channel feeds one of family f' on VC v'.
 */
struct V1Graphs
{
    std::vector<std::uint32_t> fromRepresentatives; ///< what V1 builds
    std::vector<std::uint32_t> fromEveryChannel;    ///< OR over all
    bool classCyclic = false;   ///< V1 runs the DFS
    bool channelCyclic = false; ///< the DFS finds a cycle
};

/** Build @p fabric's V1 graphs under @p opts' injected couplings. */
V1Graphs v1Graphs(const FabricParams &fabric, const Options &opts = {});

/**
 * Convenience for tools: build the System for (spec, graph, cfg),
 * lower the graph, and verify — without executing a single event.
 */
VerifyResult verifyRun(const StrategySpec &spec, const OpGraph &graph,
                       const RunConfig &cfg, const Options &opts = {});

/**
 * Post-run rules V8/V9: check the finished run's makespan against the
 * precomputed static bound (V8) and, when opts.v9SlackRatio > 0,
 * require the causal profiler attribution @p attr to explain any
 * slack beyond the ratio (V9). @p attr may be null — a run without
 * profiling; V9 then flags unexplained slack outright. Read-only, so
 * a gated run stays bit-identical to a suppressed one.
 */
VerifyResult verifyPostRun(const System &sys, const BoundResult &bound,
                           Cycle makespan, const Attribution *attr,
                           const Options &opts = {});

} // namespace verify
} // namespace cais

#endif // CAIS_ANALYSIS_VERIFY_HH
