/** @file Tests for the experiment driver: config mapping and the
 *  harvested metrics. */

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/llm_config.hh"
#include "workload/transformer.hh"

using namespace cais;

TEST(Driver, ConfigMapsIntoSystemConfig)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.chunkBytes = 8192;
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
 * runGraph's counter fields against the '*' pattern queries they
 * stand for, evaluated on the snapshot of an identical run driven
 * step by step (runs are deterministic, so both see the same
 * counters).
 */
void
expectHarvestMatchesPatterns(const RunConfig &cfg, const LlmConfig &m)
{
    StrategySpec spec = strategyByName("CAIS");
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

    // The run exercised the merge path, so the equalities are not
    // all 0 == 0.
    EXPECT_GT(r.eventsExecuted, 0u);
    EXPECT_GT(r.wireBytes, 0u);
    EXPECT_GT(r.mergeLoadReqs + r.mergeRedReqs, 0u);
    EXPECT_GT(r.staggerSamples, 0u);
}

} // namespace

TEST(Driver, HarvestMatchesPatternQueriesFlat)
{
    RunConfig cfg;
    expectHarvestMatchesPatterns(cfg, megaGpt4B().scaled(0.25, 0.125));
}

TEST(Driver, HarvestMatchesPatternQueriesNvl72)
{
    RunConfig cfg;
    cfg.topology = "nvl72";
    cfg.numGpus = FabricParams::preset("nvl72").numGpus;
    expectHarvestMatchesPatterns(cfg, llama7B().scaled(0.0625, 0.03125));
}
