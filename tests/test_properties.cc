/**
 * @file
 * Property-based (parameterized) sweeps over simulator invariants:
 * conservation of merged traffic, routing determinism across fabric
 * shapes, completion across GPU counts and chunk sizes.
 */

#include <gtest/gtest.h>

#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

// --------------------------------------------------------------------
// Fabric-shape sweep: the sub-layer completes and conserves traffic
// for every (gpus, switches) combination.
// --------------------------------------------------------------------

class FabricShape
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FabricShape, SubLayerCompletesAndMergesFully)
{
    auto [gpus, switches] = GetParam();
    RunConfig cfg;
    cfg.numGpus = gpus;
    cfg.numSwitches = switches;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 2;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r = runGraph(strategyByName("CAIS"), g, cfg, "L1");

    EXPECT_GT(r.makespan, 0u);
    // Load-merge conservation: one fetch per (G-1) requests.
    EXPECT_EQ(r.mergeFetches + r.mergeLoadHits, r.mergeLoadReqs);
    if (r.mergeLoadReqs > 0) {
        double per_fetch = static_cast<double>(r.mergeLoadReqs) /
                           static_cast<double>(r.mergeFetches);
        EXPECT_NEAR(per_fetch, static_cast<double>(gpus - 1), 0.6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricShape,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(4, 2),
                      std::make_tuple(4, 4), std::make_tuple(8, 4),
                      std::make_tuple(8, 2)));

// --------------------------------------------------------------------
// Chunk-granularity sweep: payload conservation is granularity-
// independent (coarser chunks = fewer, larger packets).
// --------------------------------------------------------------------

class ChunkSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ChunkSweep, PayloadVolumeIsGranularityInvariant)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.gpu.chunkBytes = GetParam();
    cfg.gpu.jitterSigma = 0.0;
    cfg.gpu.maxStartSkew = 0;
    // Tensor bases align to the chunk size, so even the 8-16 KiB
    // chunks run with V3 on: no session chunk straddles two
    // interleave blocks.
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 2;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r = runGraph(strategyByName("CAIS"), g, cfg, "L1");

    // The payload the fabric must move is set by the workload, not
    // the packetization: gemm pushes + merged writes + stage loads.
    // cais-lint: allow(D4) -- intra-suite reference captured on the
    // first param; gtest runs value-params in declaration order
    static std::uint64_t reference = 0;
    std::uint64_t payload = r.wireBytes;
    if (reference == 0)
        reference = payload;
    EXPECT_NEAR(static_cast<double>(payload),
                static_cast<double>(reference),
                0.15 * static_cast<double>(reference));
}

INSTANTIATE_TEST_SUITE_P(Granularity, ChunkSweep,
                         ::testing::Values(2048u, 4096u, 8192u,
                                           16384u));

// --------------------------------------------------------------------
// Strategy sweep: determinism — identical runs produce identical
// makespans (the simulator is seeded and event-ordered).
// --------------------------------------------------------------------

class StrategyDeterminism
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StrategyDeterminism, RepeatRunsAreBitIdentical)
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L2);
    StrategySpec spec = strategyByName(GetParam());
    RunResult a = runGraph(spec, g, cfg, "L2");
    RunResult b = runGraph(spec, g, cfg, "L2");
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.mergeLoadReqs, b.mergeLoadReqs);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyDeterminism,
                         ::testing::Values("TP-NVLS", "SP-NVLS",
                                           "CoCoNet", "FuseLib", "T3",
                                           "T3-NVLS", "LADM",
                                           "CAIS-Base", "CAIS"));

// --------------------------------------------------------------------
// Merge-table capacity sweep: smaller tables must never break
// correctness (eviction keeps forward progress), only performance.
// --------------------------------------------------------------------

class TableSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TableSweep, BoundedTablesPreserveCompletion)
{
    RunConfig cfg;
    cfg.numGpus = 8;
    cfg.numSwitches = 4;
    cfg.mergeTableEntriesPerPort = GetParam();
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 2;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunResult r =
        runGraph(strategyByName("CAIS-w/o-Coord"), g, cfg, "L1");
    EXPECT_GT(r.makespan, 0u);
    // Capacity in bytes is respected.
    EXPECT_LE(r.peakMergeBytes,
              static_cast<std::uint64_t>(GetParam()) * cfg.gpu.chunkBytes);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TableSweep,
                         ::testing::Values(2, 4, 16, 64, 320));
