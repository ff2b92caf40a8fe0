/**
 * @file
 * End-to-end runs on the tiered fabric presets: every strategy
 * completes on nvl72 and both rail-optimized shapes with the exact
 * deterministic makespan/wire-bytes locked in, the static verifier
 * stays clean, the verify gate stays read-only, and repeated runs are
 * bit-identical. The locked numbers double as the hierarchical-merge
 * correctness witness: a leaf that dropped or double-counted a
 * partial reduction would shift them.
 */

#include <gtest/gtest.h>

#include "analysis/verify.hh"
#include "noc/topology.hh"
#include "nvl72_ladm_golden.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

LlmConfig
fastModel()
{
    return llama7B().scaled(0.25, 0.125);
}

RunConfig
presetConfig(const char *preset)
{
    RunConfig cfg;
    cfg.topology = preset;
    cfg.numGpus = FabricParams::preset(preset).numGpus;
    return cfg;
}

struct Golden
{
    const char *name;
    Cycle makespan;
    std::uint64_t wireBytes;
};

/** llama7B().scaled(0.25, 0.125), SubLayer L1, preset defaults. */
const Golden kNvl72[] = {
    {"TP-NVLS", 51083ull, 579115008ull},
    {"SP-NVLS", 53516ull, 579115008ull},
    {"CoCoNet", 196782ull, 1916006400ull},
    {"FuseLib", 180171ull, 1916006400ull},
    {"T3", 148925ull, 1597501440ull},
    {"CoCoNet-NVLS", 48414ull, 579115008ull},
    {"FuseLib-NVLS", 48405ull, 579115008ull},
    {"T3-NVLS", 43674ull, 481628160ull},
    {"CAIS-Base", 42463ull, 389191680ull},
    {"CAIS", 41678ull, 389776016ull},
};

const Golden kRail2Node[] = {
    {"TP-NVLS", 48815ull, 131466240ull},
    {"SP-NVLS", 50605ull, 131466240ull},
    {"CoCoNet", 79084ull, 326430720ull},
    {"FuseLib", 62140ull, 326430720ull},
    {"T3", 54164ull, 272166912ull},
    {"CoCoNet-NVLS", 49226ull, 131466240ull},
    {"FuseLib-NVLS", 43875ull, 131466240ull},
    {"T3-NVLS", 41480ull, 108877824ull},
    {"LADM", 190560ull, 1750007808ull},
    {"CAIS-Base", 40844ull, 90178560ull},
    {"CAIS", 41770ull, 90306064ull},
};

const Golden kRail4Node[] = {
    {"TP-NVLS", 50538ull, 259365888ull},
    {"SP-NVLS", 52783ull, 259365888ull},
    {"CoCoNet", 110238ull, 780595200ull},
    {"FuseLib", 95061ull, 780595200ull},
    {"T3", 82226ull, 650833920ull},
    {"CoCoNet-NVLS", 48859ull, 259365888ull},
    {"FuseLib-NVLS", 46515ull, 259365888ull},
    {"T3-NVLS", 43420ull, 215377920ull},
    {"LADM", 563268ull, 8369602560ull},
    {"CAIS-Base", 42124ull, 175610880ull},
    {"CAIS", 43017ull, 175869104ull},
};

template <std::size_t N>
void
expectGolden(const char *preset, const Golden (&table)[N])
{
    RunConfig cfg = presetConfig(preset);
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const Golden &gold : table) {
        RunResult r =
            runGraph(strategyByName(gold.name), g, cfg, "L1");
        EXPECT_EQ(r.makespan, gold.makespan)
            << preset << " / " << gold.name;
        EXPECT_EQ(r.wireBytes, gold.wireBytes)
            << preset << " / " << gold.name;
    }
}

} // namespace

TEST(MultiTierRun, Nvl72StrategiesMatchGolden)
{
    expectGolden("nvl72", kNvl72);
}

// LADM floods the fabric with read-modify-write traffic and is by far
// the slowest 72-GPU run; keep it in its own test so ctest -j can
// overlap it with the rest of the suite.
TEST(MultiTierRun, Nvl72LadmMatchesGolden)
{
    RunConfig cfg = presetConfig("nvl72");
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    RunResult r = runGraph(strategyByName("LADM"), g, cfg, "L1");
    EXPECT_EQ(r.makespan, nvl72LadmMakespan);
    EXPECT_EQ(r.wireBytes, 46223032320ull);
}

TEST(MultiTierRun, Nvl72MergeTablesAreBackedOnlyWhereSessionsOpen)
{
    // Every switch keeps one bounded table per home GPU (42 x 72 on
    // nvl72); none holds entry storage until it opens a session.
    RunConfig cfg = presetConfig("nvl72");
    const StrategySpec spec = strategyByName("CAIS");
    System sys(cfg.toSystemConfig(spec));
    std::size_t capacity = 0;
    for (SwitchId s = 0; s < sys.numSwitches(); ++s) {
        const MergeUnit &mu = sys.switchCompute(s).merge();
        EXPECT_EQ(mu.storageEntries(), 0u) << "switch " << s;
        const MergeParams &mp = mu.params();
        capacity += static_cast<std::size_t>(sys.numGpus()) *
                    (mp.tableBytesPerPort / mp.chunkBytes);
    }
    ASSERT_GT(capacity, 0u);

    OpGraph g = buildSubLayer(llama7B().scaled(0.0625, 0.03125),
                              SubLayerId::L1);
    GraphLowering lowering(sys, g, spec.opts);
    lowering.lower();
    sys.run();
    std::size_t backed = 0;
    for (SwitchId s = 0; s < sys.numSwitches(); ++s)
        backed += sys.switchCompute(s).merge().storageEntries();
    EXPECT_GT(backed, 0u);
    EXPECT_LT(backed, capacity);
}

TEST(MultiTierRun, RailOptimized2NodeStrategiesMatchGolden)
{
    expectGolden("rail-optimized-2node", kRail2Node);
}

TEST(MultiTierRun, RailOptimized4NodeStrategiesMatchGolden)
{
    expectGolden("rail-optimized-4node", kRail4Node);
}

TEST(MultiTierRun, TieredRunsAreDeterministic)
{
    RunConfig cfg = presetConfig("nvl72");
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    RunResult a = runGraph(strategyByName("CAIS"), g, cfg, "L1");
    RunResult b = runGraph(strategyByName("CAIS"), g, cfg, "L1");
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.mergeRedReqs, b.mergeRedReqs);
    EXPECT_EQ(a.sessionsClosed, b.sessionsClosed);
}

TEST(MultiTierRun, VerifyGateStaysReadOnlyOnTieredFabric)
{
    RunConfig on = presetConfig("rail-optimized-2node");
    on.verify = true;
    RunConfig off = on;
    off.verify = false;
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    RunResult a = runGraph(strategyByName("CAIS"), g, on, "L1");
    RunResult b = runGraph(strategyByName("CAIS"), g, off, "L1");
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

TEST(MultiTierRun, HierarchicalMergingEngagesOnTieredFabrics)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const char *preset :
         {"nvl72", "rail-optimized-2node", "rail-optimized-4node"}) {
        SCOPED_TRACE(preset);
        RunConfig cfg = presetConfig(preset);
        RunResult r = runGraph(strategyByName("CAIS"), g, cfg, "L1");
        // In-switch merging carried real traffic and every reduction
        // session retired (a stuck leaf/spine handoff would leave
        // sessions open or deadlock the run outright).
        EXPECT_GT(r.mergeRedReqs, 0u);
        EXPECT_GT(r.mergeLoadReqs, 0u);
        EXPECT_GT(r.sessionsClosed, 0u);
    }
}

TEST(MultiTierRun, StaticVerifierIsCleanOnEveryTieredPreset)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const char *preset :
         {"nvl72", "rail-optimized-2node", "rail-optimized-4node"}) {
        RunConfig cfg = presetConfig(preset);
        for (const StrategySpec &spec : allStrategies()) {
            verify::Options o;
            o.workload = "L1";
            verify::VerifyResult res =
                verify::verifyRun(spec, g, cfg, o);
            EXPECT_TRUE(res.ok()) << preset << " / " << spec.name
                                  << "\n" << res.text();
        }
    }
}
