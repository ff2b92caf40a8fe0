/** @file Tests for the experiment driver: config mapping and the
 *  harvested metrics. */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/metrics.hh"
#include "common/nodemask.hh"
#include "noc/topology.hh"
#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/llm_config.hh"
#include "workload/transformer.hh"
#include "run_result_equality.hh"

using namespace cais;

TEST(Driver, ConfigMapsIntoSystemConfig)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.gpu.chunkBytes = 8192;
    cfg.mergeTableEntriesPerPort = 100;
    StrategySpec spec = strategyByName("CAIS");
    SystemConfig sc = cfg.toSystemConfig(spec);

    EXPECT_EQ(sc.fabric.numGpus, 4);
    EXPECT_EQ(sc.fabric.numSwitches, 2);
    EXPECT_EQ(sc.gpu.chunkBytes, 8192u);
    EXPECT_EQ(sc.inswitch.merge.chunkBytes, 8192u);
    // entries x chunk bytes.
    EXPECT_EQ(sc.inswitch.merge.tableBytesPerPort, 100u * 8192u);
    // Deterministic routing interleave matches the chunk.
    EXPECT_EQ(sc.fabric.interleaveBytes, 8192u);
    // Throttling is a coordination feature.
    EXPECT_TRUE(sc.inswitch.merge.throttleEnabled);
    EXPECT_FALSE(cfg.toSystemConfig(strategyByName("CAIS-Base"))
                     .inswitch.merge.throttleEnabled);
}

TEST(Driver, ExplicitTableBytesOverrideEntries)
{
    RunConfig cfg;
    cfg.mergeTableBytesPerPort = 12345 * 4096ull;
    SystemConfig sc = cfg.toSystemConfig(strategyByName("CAIS"));
    EXPECT_EQ(sc.inswitch.merge.tableBytesPerPort, 12345u * 4096u);

    RunConfig unbounded;
    unbounded.unboundedMergeTable = true;
    EXPECT_EQ(unbounded.toSystemConfig(strategyByName("CAIS"))
                  .inswitch.merge.tableBytesPerPort,
              0u);
}

TEST(Driver, UnifiedVcFlagReachesTheSwitch)
{
    RunConfig cfg;
    EXPECT_TRUE(cfg.toSystemConfig(strategyByName("CAIS-Partial"))
                    .fabric.sw.unifiedDataVc);
    EXPECT_FALSE(cfg.toSystemConfig(strategyByName("CAIS"))
                     .fabric.sw.unifiedDataVc);
}

TEST(Driver, ResultCarriesKernelTimeline)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r = runGraph(strategyByName("SP-NVLS"), g, cfg, "L1");

    ASSERT_EQ(r.kernels.size(), 5u);
    int comm = 0;
    for (const KernelTiming &k : r.kernels) {
        EXPECT_LE(k.start, k.finish);
        EXPECT_LE(k.finish, r.makespan);
        comm += k.comm;
    }
    EXPECT_EQ(comm, 2);
    EXPECT_GT(r.commKernelCycles, 0u);
    EXPECT_GT(r.computeKernelCycles, 0u);
    EXPECT_EQ(r.strategy, "SP-NVLS");
    EXPECT_EQ(r.workload, "L1");
    EXPECT_EQ(r.utilBinWidth, cfg.utilBinWidth);
    EXPECT_NEAR(r.makespanUs() * 1000.0,
                static_cast<double>(r.makespan), 1.0);
}

TEST(Driver, BarrierBaselineCommComputeDontOverlap)
{
    // For the serialized baseline, comm + compute kernel time covers
    // nearly the whole makespan (phases are disjoint).
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r = runGraph(strategyByName("SP-NVLS"), g, cfg, "L1");
    Cycle covered = r.commKernelCycles + r.computeKernelCycles;
    EXPECT_GT(static_cast<double>(covered),
              0.85 * static_cast<double>(r.makespan));
    EXPECT_LE(covered, r.makespan + 10);
}

namespace
{

/**
 * runGraph's harvest, read off the System, against the '*' pattern
 * queries it stands for and the report's fabric.utilSeries, evaluated
 * on the snapshot of an identical run driven step by step (runs are
 * deterministic, so both see the same counters).
 */
void
expectHarvestMatchesPatterns(const RunConfig &cfg, const LlmConfig &m,
                             const char *strategy)
{
    SCOPED_TRACE(strategy);
    StrategySpec spec = strategyByName(strategy);
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r = runGraph(spec, g, cfg, "L1");

    System sys(cfg.toSystemConfig(spec));
    MetricRegistry reg;
    sys.registerMetrics(reg);
    OpGraph g2 = buildSubLayer(m, SubLayerId::L1);
    GraphLowering lowering(sys, g2, spec.opts);
    lowering.lower();
    sys.run();
    MetricSnapshot snap = reg.snapshot();

    EXPECT_EQ(r.makespan, sys.makespan());
    EXPECT_EQ(r.eventsExecuted, snap.sumU64("eventq.executed"));
    EXPECT_EQ(r.wireBytes, snap.sumU64("link.*.wireBytes"));
    EXPECT_EQ(r.mergeLoadReqs, snap.sumU64("*.merge.loadReqs"));
    EXPECT_EQ(r.mergeRedReqs, snap.sumU64("*.merge.redReqs"));
    EXPECT_EQ(r.mergeLoadHits, snap.sumU64("*.merge.loadHits"));
    EXPECT_EQ(r.mergeRedHits, snap.sumU64("*.merge.redHits"));
    EXPECT_EQ(r.mergeFetches, snap.sumU64("*.merge.fetches"));
    EXPECT_EQ(r.sessionsClosed, snap.sumU64("*.merge.sessionsClosed"));
    EXPECT_EQ(r.lruEvictions, snap.sumU64("*.merge.evictions.lru"));
    EXPECT_EQ(r.timeoutEvictions,
              snap.sumU64("*.merge.evictions.timeout"));
    EXPECT_EQ(r.throttleHints,
              snap.sumU64("*.merge.throttle.hintsSent"));
    EXPECT_EQ(r.peakMergeBytes, snap.maxU64("*.merge.peakTableBytes"));

    double weighted = 0.0;
    std::uint64_t n = 0;
    snap.forEach("*.merge.stagger",
                 [&](const std::string &, const MetricValue &v) {
        weighted += v.mean * static_cast<double>(v.count);
        n += v.count;
    });
    EXPECT_EQ(r.staggerSamples, n);
    EXPECT_EQ(r.staggerUs,
              n ? weighted / static_cast<double>(n) /
                      static_cast<double>(cyclesPerUs)
                : 0.0);

    const MetricValue *ts = snap.find("fabric.utilSeries");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(r.utilBinWidth, ts->binWidth);
    EXPECT_EQ(r.utilSeries, ts->bins);

    // The run moved data, and CAIS exercised the merge path, so the
    // equalities are not all 0 == 0.
    EXPECT_GT(r.eventsExecuted, 0u);
    EXPECT_GT(r.wireBytes, 0u);
    EXPECT_FALSE(r.utilSeries.empty());
    if (spec.name == "CAIS") {
        EXPECT_GT(r.mergeLoadReqs + r.mergeRedReqs, 0u);
        EXPECT_GT(r.staggerSamples, 0u);
    }
}

/** expectHarvestMatchesPatterns under CAIS and under T3-NVLS. */
void
expectHarvestMatchesPatterns(const RunConfig &cfg, const LlmConfig &m)
{
    for (const char *strategy : {"CAIS", "T3-NVLS"})
        expectHarvestMatchesPatterns(cfg, m, strategy);
}

/** RunConfig of preset @p topology at its full GPU count. */
RunConfig
presetConfig(const std::string &topology)
{
    RunConfig cfg;
    cfg.topology = topology;
    cfg.numGpus = FabricParams::preset(topology).numGpus;
    return cfg;
}

/** perfbench's tier72 job sizes, for the tiered presets. */
LlmConfig
tieredModel()
{
    return llama7B().scaled(0.0625, 0.03125);
}

} // namespace

TEST(Driver, HarvestMatchesPatternQueriesFlat)
{
    RunConfig cfg;
    expectHarvestMatchesPatterns(cfg, megaGpt4B().scaled(0.25, 0.125));
}

TEST(Driver, HarvestMatchesPatternQueriesDgxH100)
{
    expectHarvestMatchesPatterns(presetConfig("dgx-h100"),
                                 megaGpt4B().scaled(0.25, 0.125));
}

TEST(Driver, HarvestMatchesPatternQueriesNvl72)
{
    expectHarvestMatchesPatterns(presetConfig("nvl72"), tieredModel());
}

TEST(Driver, HarvestMatchesPatternQueriesRailOptimized2Node)
{
    expectHarvestMatchesPatterns(presetConfig("rail-optimized-2node"),
                                 tieredModel());
}

TEST(Driver, HarvestMatchesPatternQueriesRailOptimized4Node)
{
    expectHarvestMatchesPatterns(presetConfig("rail-optimized-4node"),
                                 tieredModel());
}

TEST(Driver, MetricsReportLeavesResultUnchanged)
{
    // runGraph builds the metric registry only to write the report;
    // the result is read off the System either way, field for field.
    struct Case
    {
        const char *name;
        RunConfig cfg;
        LlmConfig model;
    };
    const Case cases[] = {
        {"flat", RunConfig{}, megaGpt4B().scaled(0.25, 0.125)},
        {"nvl72", presetConfig("nvl72"), tieredModel()},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const StrategySpec spec = strategyByName("CAIS");
        const OpGraph g = buildSubLayer(c.model, SubLayerId::L1);
        const RunResult plain = runGraph(spec, g, c.cfg, "L1");
        RunConfig with_report = c.cfg;
        with_report.metricsPath = testing::TempDir() +
                                  "driver_report_" + c.name + ".json";
        const RunResult reported = runGraph(spec, g, with_report, "L1");
        test::expectIdentical(plain, reported);
        std::ifstream in(with_report.metricsPath);
        const std::string doc((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        EXPECT_NE(doc.find("\"fabric.utilSeries\""), std::string::npos);
        std::remove(with_report.metricsPath.c_str());
    }
}

namespace
{

/** Run @p cfg's CAIS L1 job step by step; its eventq.peakPending. */
std::uint64_t
peakPendingOf(const RunConfig &cfg, const LlmConfig &m)
{
    System sys(cfg.toSystemConfig(strategyByName("CAIS")));
    MetricRegistry reg;
    sys.registerMetrics(reg);
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    GraphLowering lowering(sys, g, strategyByName("CAIS").opts);
    lowering.lower();
    sys.run();
    MetricSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("eventq.peakPending");
    EXPECT_NE(v, nullptr);
    return v ? v->u64 : 0;
}

} // namespace

TEST(Driver, PeakPendingGaugeIsDeterministic)
{
    RunConfig cfg;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.125);
    std::uint64_t first = peakPendingOf(cfg, m);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(first, peakPendingOf(cfg, m));
}

namespace
{

/** FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(MetricsReport, TieredSnapshotsMatchGoldenDigest)
{
    // Locks every byte of the "metrics" object of two tiered CAIS
    // runs: path set, path order and every value. How the registry
    // collects its paths may change; none of these bytes may.
    struct Case
    {
        const char *preset;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"nvl72", 0x4714c35a130d59f0ull},
        {"rail-optimized-2node", 0x0016ea5cd3406ba1ull},
    };
    const StrategySpec spec = strategyByName("CAIS");
    for (const Case &c : cases) {
        System sys(presetConfig(c.preset).toSystemConfig(spec));
        MetricRegistry reg;
        sys.registerMetrics(reg);
        OpGraph g = buildSubLayer(llama7B().scaled(0.0625, 0.03125),
                                  SubLayerId::L1);
        GraphLowering lowering(sys, g, spec.opts);
        lowering.lower();
        sys.run();
        JsonWriter w;
        reg.snapshot().writeJson(w);
        const std::uint64_t digest = fnv1a(w.str());
        EXPECT_EQ(digest, c.digest) << c.preset << " metrics digest is 0x"
                                    << std::hex << digest;
    }
}

namespace
{

/** Reference '*' glob by plain recursion: shares no code with the
 *  snapshot's split-pattern matcher. */
bool
referenceGlob(std::string_view pattern, std::string_view path)
{
    if (pattern.empty())
        return path.empty();
    if (pattern[0] == '*')
        return referenceGlob(pattern.substr(1), path) ||
               (!path.empty() && referenceGlob(pattern, path.substr(1)));
    return !path.empty() && pattern[0] == path[0] &&
           referenceGlob(pattern.substr(1), path.substr(1));
}

} // namespace

TEST(MetricSnapshot, PatternQueriesMatchReferenceGlobOnNvl72)
{
    // Every pattern runGraph's harvest stands for and perfbench
    // queries, plus edge shapes (no literal head, no tail, adjacent
    // stars, middle literals that must not overlap, no match), over
    // every path of a finished nvl72 CAIS job.
    const StrategySpec spec = strategyByName("CAIS");
    System sys(presetConfig("nvl72").toSystemConfig(spec));
    MetricRegistry reg;
    sys.registerMetrics(reg);
    OpGraph g = buildSubLayer(llama7B().scaled(0.0625, 0.03125),
                              SubLayerId::L1);
    GraphLowering lowering(sys, g, spec.opts);
    lowering.lower();
    sys.run();
    const MetricSnapshot snap = reg.snapshot();
    ASSERT_GT(snap.size(), 10000u);

    const std::vector<std::string> patterns = {
        "eventq.executed", "fabric.utilSeries", "link.*.packets",
        "link.*.wireBytes", "link.*.busyCycles", "*.chip.forwarded",
        "gpu*.hub.chunksInjected", "*.merge.loadReqs", "*.merge.redReqs",
        "*.merge.loadHits", "*.merge.redHits", "*.merge.fetches",
        "*.merge.sessionsClosed", "*.merge.evictions.lru",
        "*.merge.evictions.timeout", "*.merge.throttle.hintsSent",
        "*.merge.peakTableBytes", "*.merge.stagger", "*.nvls.multicasts",
        "*.nvls.gatherReduces", "*.nvls.pushReduces", "*.sync.requests",
        "gpu*.sync.requests", "gpu*.sched.dispatched", "gpu*.hbm.bytes",
        "*", "**", "switch*", "*Reqs", "gpu1*.hbm.*", "link.*.*.packets",
        "switch*.merge.*Stagger*", "gpu**bytes", "*.merge.*", "no.such*",
        "eventq.executed*", "*eventq.executed", "link.*.packets.*",
        "*.*.*.packets", "gpu*.*.*.*",
    };
    for (const std::string &pat : patterns) {
        std::vector<std::string> want;
        std::uint64_t sum = 0, max = 0;
        for (std::size_t i = 0; i < snap.size(); ++i) {
            EXPECT_EQ(MetricSnapshot::matches(pat, snap.path(i)),
                      referenceGlob(pat, snap.path(i)))
                << pat << " on " << snap.path(i);
            if (!referenceGlob(pat, snap.path(i)))
                continue;
            want.emplace_back(snap.path(i));
            sum += integerReading(snap.value(i));
            max = std::max(max, integerReading(snap.value(i)));
        }
        std::vector<std::string> got;
        snap.forEach(pat, [&](const std::string &path, const MetricValue &) {
            got.push_back(path);
        });
        EXPECT_EQ(got, want) << pat;
        EXPECT_EQ(snap.sumU64(pat), sum) << pat;
        EXPECT_EQ(snap.maxU64(pat), max) << pat;
    }
    // The queries above are not vacuous.
    for (const char *pat : {"eventq.executed", "link.*.packets",
                            "*.merge.loadReqs", "gpu*.hbm.bytes"})
        EXPECT_GT(snap.sumU64(pat), 0u) << pat;
}

TEST(MetricRegistry, SystemRegistersInPathOrder)
{
    // The registry panics on a path that is not above its predecessor,
    // so System::registerMetrics must add in path order on every shape
    // the front door accepts: flat fabrics and every preset at 2 to
    // maxFabricGpus GPUs, under CAIS (merge throttle on) and TP-NVLS
    // (no CAIS coordination).
    std::vector<RunConfig> shapes;
    for (int gpus = 2; gpus <= maxFabricGpus; ++gpus) {
        for (int switches : {1, 2, 3, 4, 7, 8, 11, 16}) {
            RunConfig cfg;
            cfg.numGpus = gpus;
            cfg.numSwitches = switches;
            shapes.push_back(cfg);
        }
        for (const std::string &name : FabricParams::presetNames()) {
            RunConfig cfg;
            cfg.topology = name;
            cfg.numGpus = gpus;
            shapes.push_back(cfg);
        }
    }
    int checked = 0;
    for (const RunConfig &cfg : shapes) {
        if (!cfg.validationError().empty())
            continue;
        for (const char *strategy : {"CAIS", "TP-NVLS"}) {
            System sys(cfg.toSystemConfig(strategyByName(strategy)));
            MetricRegistry reg;
            sys.registerMetrics(reg);
            const MetricSnapshot snap = reg.snapshot();
            ASSERT_EQ(snap.size(), reg.size());
            std::size_t i = 1;
            while (i < snap.size() && snap.path(i - 1) < snap.path(i))
                ++i;
            ASSERT_EQ(i, snap.size())
                << snap.path(i) << " after " << snap.path(i - 1) << ", "
                << strategy << " on "
                << (cfg.topology.empty() ? "flat" : cfg.topology)
                << " with " << cfg.numGpus << " GPUs, "
                << cfg.numSwitches << " switches";
            ++checked;
        }
    }
    // The front door accepts 1153 of these shapes; a change to its
    // rules updates this count rather than silently shrinking the sweep.
    EXPECT_EQ(checked, 2 * 1153);
}
