/**
 * @file
 * Tests for the cais-bound static performance-bound model (§6h) and
 * the V8/V9 post-run verification gate. The golden tables lock the
 * exact composite bound of every strategy on the flat fabric and on
 * nvl72 (the paper's Fig. 12 matrix), double-checking soundness:
 * every simulated makespan stays at or above its bound. Property
 * tests assert the bound is monotone in the machine resources it
 * models — giving the machine more link bandwidth, more SMs or more
 * HBM bandwidth can only lower (never raise) the floor.
 */

#include <gtest/gtest.h>

#include "analysis/bound_model.hh"
#include "analysis/causal_profile.hh"
#include "analysis/verify.hh"
#include "noc/topology.hh"
#include "nvl72_ladm_golden.hh"
#include "runtime/simulation_driver.hh"
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
presetConfig(const std::string &preset)
{
    RunConfig cfg;
    cfg.topology = preset;
    if (!preset.empty())
        cfg.numGpus = FabricParams::preset(preset).numGpus;
    return cfg;
}

/** Flat plus every tiered preset. */
std::vector<std::string>
allShapes()
{
    std::vector<std::string> shapes = {""};
    for (const std::string &n : FabricParams::presetNames())
        shapes.push_back(n);
    return shapes;
}

/** Bound of a constructed-and-lowered (but never run) System. */
BoundResult
staticBound(const StrategySpec &spec, const OpGraph &graph,
            const RunConfig &cfg, const BoundOptions &opts = {})
{
    System sys(cfg.toSystemConfig(spec));
    GraphLowering lowering(sys, graph, spec.opts);
    lowering.lower();
    return computeBound(sys, opts);
}

struct Golden
{
    const char *name;
    Cycle makespan;
    Cycle bound;
};

/** llama7B().scaled(0.25, 0.125), SubLayer L1, default RunConfig. */
const Golden kFlat[] = {
    {"TP-NVLS", 44454ull, 13339ull},
    {"SP-NVLS", 49329ull, 15339ull},
    {"CoCoNet", 65018ull, 24231ull},
    {"FuseLib", 50608ull, 12282ull},
    {"T3", 44861ull, 12282ull},
    {"CoCoNet-NVLS", 47062ull, 23909ull},
    {"FuseLib-NVLS", 41711ull, 10909ull},
    {"T3-NVLS", 38836ull, 7398ull},
    {"LADM", 89330ull, 36987ull},
    {"CAIS-Base", 37374ull, 7898ull},
    {"CAIS", 35113ull, 5441ull},
};

/** Same workload on the nvl72 preset. LADM, the slowest 72-GPU
 *  simulation, has its own test below, which checks its bound
 *  without simulating it. */
const Golden kNvl72[] = {
    {"TP-NVLS", 51083ull, 12956ull},
    {"SP-NVLS", 53516ull, 14956ull},
    {"CoCoNet", 196782ull, 46201ull},
    {"FuseLib", 180171ull, 46201ull},
    {"T3", 148925ull, 46201ull},
    {"CoCoNet-NVLS", 48414ull, 23909ull},
    {"FuseLib-NVLS", 48405ull, 10909ull},
    {"T3-NVLS", 43674ull, 7015ull},
    {"CAIS-Base", 42463ull, 7515ull},
    {"CAIS", 41678ull, 5441ull},
};

template <std::size_t N>
void
expectGoldenBounds(const std::string &preset,
                   const Golden (&table)[N])
{
    RunConfig cfg = presetConfig(preset);
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const Golden &gold : table) {
        RunResult r =
            runGraph(strategyByName(gold.name), g, cfg, "L1");
        EXPECT_EQ(r.makespan, gold.makespan)
            << preset << " / " << gold.name;
        EXPECT_EQ(r.boundComposite, gold.bound)
            << preset << " / " << gold.name;
        // Soundness: the run never beats its own floor (V8 would
        // also have aborted the run, but state it explicitly).
        EXPECT_GE(r.makespan, r.boundComposite)
            << preset << " / " << gold.name;
        EXPECT_FALSE(r.boundBinding.empty())
            << preset << " / " << gold.name;
        // The RunResult mirror is the max of its own classes.
        Cycle mx = std::max(
            {r.boundCompute, r.boundHbm, r.boundLink, r.boundMerge,
             r.boundCritPath});
        EXPECT_EQ(r.boundComposite, mx)
            << preset << " / " << gold.name;
    }
}

} // namespace

// ---------------------------------------------------------------
// Golden sim-vs-bound tables (Fig. 12 matrix, flat and nvl72).
// ---------------------------------------------------------------

TEST(BoundModel, FlatStrategiesMatchGoldenBounds)
{
    expectGoldenBounds("", kFlat);
}

TEST(BoundModel, Nvl72StrategiesMatchGoldenBounds)
{
    expectGoldenBounds("nvl72", kNvl72);
}

TEST(BoundModel, Nvl72LadmMatchesGoldenBound)
{
    // MultiTierRun.Nvl72LadmMatchesGolden simulates this ~20 s job
    // and locks its makespan. The static bound equals the run's
    // (StaticBoundMatchesRunResult proves it on flat and nvl72), so
    // the bound is checked here against that makespan without a
    // second simulation.
    RunConfig cfg = presetConfig("nvl72");
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    BoundResult b = staticBound(strategyByName("LADM"), g, cfg);
    EXPECT_EQ(b.composite, 375153ull);
    EXPECT_EQ(b.binding, "linkSerialization");
    EXPECT_LE(b.composite, nvl72LadmMakespan);
}

// ---------------------------------------------------------------
// Static analyzer properties (no simulation involved).
// ---------------------------------------------------------------

TEST(BoundModel, StaticBoundMatchesRunResultAndIsRunInvariant)
{
    // computeBound is read-only over descriptors/config, so the
    // pre-run static value must equal what runGraph reports, on the
    // flat fabric and on a tiered one.
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const char *preset : {"", "nvl72"}) {
        StrategySpec spec = strategyByName("CAIS");
        RunConfig cfg = presetConfig(preset);
        BoundResult b = staticBound(spec, g, cfg);
        RunResult r = runGraph(spec, g, cfg, "L1");
        EXPECT_EQ(b.composite, r.boundComposite) << preset;
        EXPECT_EQ(b.smCompute, r.boundCompute) << preset;
        EXPECT_EQ(b.hbm, r.boundHbm) << preset;
        EXPECT_EQ(b.linkSerialization, r.boundLink) << preset;
        EXPECT_EQ(b.mergeService, r.boundMerge) << preset;
        EXPECT_EQ(b.criticalPath, r.boundCritPath) << preset;
        EXPECT_EQ(b.binding, r.boundBinding) << preset;
    }
}

TEST(BoundModel, CompositeIsMaxOfClassesAndBindingNamesIt)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const char *name : {"CAIS", "LADM", "TP-NVLS"}) {
        StrategySpec spec = strategyByName(name);
        BoundResult b = staticBound(spec, g, RunConfig{});
        Cycle mx = std::max({b.smCompute, b.hbm, b.linkSerialization,
                             b.mergeService, b.criticalPath});
        EXPECT_EQ(b.composite, mx) << name;
        EXPECT_EQ(b.byName(b.binding), b.composite) << name;
        EXPECT_GT(b.composite, 0ull) << name;
    }
}

TEST(BoundModel, ByNameResolvesEveryClassAndRejectsUnknown)
{
    BoundResult b;
    b.smCompute = 1;
    b.hbm = 2;
    b.linkSerialization = 3;
    b.mergeService = 4;
    b.criticalPath = 5;
    EXPECT_EQ(b.byName("smCompute"), 1ull);
    EXPECT_EQ(b.byName("hbm"), 2ull);
    EXPECT_EQ(b.byName("linkSerialization"), 3ull);
    EXPECT_EQ(b.byName("mergeService"), 4ull);
    EXPECT_EQ(b.byName("criticalPath"), 5ull);
    EXPECT_EQ(b.byName("nonesuch"), 0ull);
}

TEST(BoundModel, JsonCarriesSchemaAndEveryClass)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    BoundResult b = staticBound(strategyByName("CAIS"), g,
                                RunConfig{});
    std::string j = b.json();
    EXPECT_NE(j.find(boundSchemaVersion), std::string::npos);
    for (const char *key :
         {"smCompute", "hbm", "linkSerialization", "mergeService",
          "criticalPath", "composite", "binding"})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------
// Monotonicity: more machine never raises the floor. Checked on the
// flat fabric and on every tiered preset.
// ---------------------------------------------------------------

TEST(BoundModel, BoundIsMonotoneInLinkBandwidthAcrossPresets)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const std::string &shape : allShapes()) {
        for (const char *name : {"CAIS", "CoCoNet"}) {
            StrategySpec spec = strategyByName(name);
            RunConfig cfg = presetConfig(shape);
            BoundResult base = staticBound(spec, g, cfg);
            cfg.perGpuBwPerDir *= 2.0;
            BoundResult faster = staticBound(spec, g, cfg);
            EXPECT_LE(faster.composite, base.composite)
                << "shape '" << shape << "' / " << name;
            EXPECT_LE(faster.linkSerialization,
                      base.linkSerialization)
                << "shape '" << shape << "' / " << name;
            EXPECT_LE(faster.mergeService, base.mergeService)
                << "shape '" << shape << "' / " << name;
        }
    }
}

TEST(BoundModel, BoundIsMonotoneInSmThroughputAcrossPresets)
{
    // SM-count monotonicity is an analyzer property over a FIXED
    // kernel set, so it is varied through the throughput scale
    // (slots x2 == twice the SMs serving the same TBs). Raising
    // cfg.gpu.numSms instead re-lowers the workload: the memory-
    // bound TB cost model splits hbmBytesPerCycle over the resident
    // TBs, so more SMs legitimately slow individual TBs down and
    // both the simulated makespan and its floor may rise together.
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const std::string &shape : allShapes()) {
        for (const char *name : {"CAIS", "CoCoNet"}) {
            StrategySpec spec = strategyByName(name);
            RunConfig cfg = presetConfig(shape);
            BoundResult base = staticBound(spec, g, cfg);
            BoundOptions more;
            more.smThroughputScale = 2.0;
            BoundResult bigger = staticBound(spec, g, cfg, more);
            EXPECT_LE(bigger.composite, base.composite)
                << "shape '" << shape << "' / " << name;
            EXPECT_LE(bigger.smCompute, base.smCompute)
                << "shape '" << shape << "' / " << name;
            EXPECT_LE(bigger.criticalPath, base.criticalPath)
                << "shape '" << shape << "' / " << name;
        }
    }
}

TEST(BoundModel, BoundIsMonotoneInHbmBandwidthAcrossPresets)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    for (const std::string &shape : allShapes()) {
        for (const char *name : {"CAIS", "CoCoNet"}) {
            StrategySpec spec = strategyByName(name);
            RunConfig cfg = presetConfig(shape);
            BoundResult base = staticBound(spec, g, cfg);
            cfg.gpu.hbmBytesPerCycle *= 2.0;
            BoundResult faster = staticBound(spec, g, cfg);
            EXPECT_LE(faster.composite, base.composite)
                << "shape '" << shape << "' / " << name;
            EXPECT_LE(faster.hbm, base.hbm)
                << "shape '" << shape << "' / " << name;
        }
    }
}

TEST(BoundModel, DefectScalesOnlyEverInflateTheBound)
{
    // The seeded-defect hooks shrink the modelled throughput; the
    // bound must move the other way (up), and a scale of exactly 1
    // must be a no-op.
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");
    RunConfig cfg;
    BoundResult base = staticBound(spec, g, cfg);
    BoundResult same = staticBound(spec, g, cfg, BoundOptions{});
    EXPECT_EQ(same.composite, base.composite);

    BoundOptions slow_sm;
    slow_sm.smThroughputScale = 0.25;
    BoundResult sm = staticBound(spec, g, cfg, slow_sm);
    EXPECT_GE(sm.smCompute, base.smCompute);
    EXPECT_GE(sm.composite, base.composite);

    BoundOptions slow_link;
    slow_link.linkBandwidthScale = 0.25;
    BoundResult ln = staticBound(spec, g, cfg, slow_link);
    EXPECT_GE(ln.linkSerialization, base.linkSerialization);
    EXPECT_GE(ln.composite, base.composite);
}

// ---------------------------------------------------------------
// V8: seeded bound defects trip the post-run gate.
// ---------------------------------------------------------------

TEST(BoundModel, V8TripsOnInflatedSmThroughputBound)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");
    RunConfig cfg;
    RunResult r = runGraph(spec, g, cfg, "L1");

    BoundOptions defect;
    defect.smThroughputScale = 0.01; // modelled SMs 100x too slow
    BoundResult bad = staticBound(spec, g, cfg, defect);
    ASSERT_GT(bad.composite, r.makespan);

    System sys(cfg.toSystemConfig(spec));
    verify::VerifyResult v = verify::verifyPostRun(
        sys, bad, r.makespan, nullptr, {});
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.diagnostics[0].id, "V8");
    // The diagnostic names the violating resource and carries the
    // concrete numbers.
    bool named = false;
    for (const verify::Diagnostic &d : v.diagnostics)
        for (const std::string &p : d.path)
            if (p.find("resource:") == 0)
                named = true;
    EXPECT_TRUE(named);
    EXPECT_NE(v.diagnostics[0].message.find(
                  std::to_string(r.makespan)),
              std::string::npos);
}

TEST(BoundModel, V8TripsOnLoweredLinkBandwidthBound)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("LADM"); // link-bound already
    RunConfig cfg;
    RunResult r = runGraph(spec, g, cfg, "L1");

    BoundOptions defect;
    defect.linkBandwidthScale = 0.01; // modelled wires 100x too slow
    BoundResult bad = staticBound(spec, g, cfg, defect);
    ASSERT_GT(bad.composite, r.makespan);

    System sys(cfg.toSystemConfig(spec));
    verify::VerifyResult v = verify::verifyPostRun(
        sys, bad, r.makespan, nullptr, {});
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.diagnostics[0].id, "V8");
    bool link = false;
    for (const verify::Diagnostic &d : v.diagnostics)
        for (const std::string &p : d.path)
            if (p == "resource:linkSerialization")
                link = true;
    EXPECT_TRUE(link);
}

TEST(BoundModel, V8StaysQuietOnHealthyBoundAndHonorsSuppression)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");
    RunConfig cfg;
    RunResult r = runGraph(spec, g, cfg, "L1");
    BoundResult good = staticBound(spec, g, cfg);
    System sys(cfg.toSystemConfig(spec));

    EXPECT_TRUE(
        verify::verifyPostRun(sys, good, r.makespan, nullptr, {})
            .ok());

    BoundOptions defect;
    defect.smThroughputScale = 0.01;
    BoundResult bad = staticBound(spec, g, cfg, defect);
    verify::Options suppress;
    suppress.suppress = {"V8"};
    EXPECT_TRUE(verify::verifyPostRun(sys, bad, r.makespan, nullptr,
                                      suppress)
                    .ok());
}

// ---------------------------------------------------------------
// V9: unexplained slack over the configured ratio.
// ---------------------------------------------------------------

TEST(BoundModel, V9FiresWhenSlackIsUnexplained)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");
    RunConfig cfg;
    RunResult r = runGraph(spec, g, cfg, "L1");
    BoundResult b = staticBound(spec, g, cfg);
    ASSERT_GT(static_cast<double>(r.makespan),
              1.01 * static_cast<double>(b.composite));
    System sys(cfg.toSystemConfig(spec));

    verify::Options o;
    o.v9SlackRatio = 1.01;

    // No attribution at all: the slack cannot be explained.
    verify::VerifyResult none =
        verify::verifyPostRun(sys, b, r.makespan, nullptr, o);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.diagnostics[0].id, "V9");
    EXPECT_NE(none.diagnostics[0].message.find("no profiler"),
              std::string::npos);

    // A low-coverage attribution: V9 fires and names the dominant
    // wait class.
    Attribution thin;
    thin.makespan = r.makespan;
    thin.byClass[static_cast<std::size_t>(
        WaitClass::creditStall)] = r.makespan / 10;
    verify::VerifyResult low =
        verify::verifyPostRun(sys, b, r.makespan, &thin, o);
    ASSERT_FALSE(low.ok());
    EXPECT_EQ(low.diagnostics[0].id, "V9");
    EXPECT_NE(low.diagnostics[0].message.find("creditStall"),
              std::string::npos);
}

TEST(BoundModel, V9AcceptsExplainedSlackAndHonorsControls)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");
    RunConfig cfg;
    RunResult r = runGraph(spec, g, cfg, "L1");
    BoundResult b = staticBound(spec, g, cfg);
    System sys(cfg.toSystemConfig(spec));

    verify::Options o;
    o.v9SlackRatio = 1.01;

    // Full attribution: the profiler explains the slack, no V9.
    Attribution full;
    full.makespan = r.makespan;
    full.byClass[static_cast<std::size_t>(WaitClass::smCompute)] =
        r.makespan;
    EXPECT_TRUE(
        verify::verifyPostRun(sys, b, r.makespan, &full, o).ok());

    // Ratio 0 disables the rule entirely.
    verify::Options off;
    EXPECT_TRUE(
        verify::verifyPostRun(sys, b, r.makespan, nullptr, off)
            .ok());

    // A generous ratio the run stays under: no diagnostic.
    verify::Options generous;
    generous.v9SlackRatio = 1000.0;
    EXPECT_TRUE(
        verify::verifyPostRun(sys, b, r.makespan, nullptr, generous)
            .ok());

    // Explicit suppression wins even when the ratio would fire.
    verify::Options suppressed;
    suppressed.v9SlackRatio = 1.01;
    suppressed.suppress = {"V9"};
    EXPECT_TRUE(verify::verifyPostRun(sys, b, r.makespan, nullptr,
                                      suppressed)
                    .ok());
}

// ---------------------------------------------------------------
// The gate is read-only: gated and suppressed runs are bit-identical.
// ---------------------------------------------------------------

TEST(BoundModel, GatedRunIsBitIdenticalToSuppressedRun)
{
    OpGraph g = buildSubLayer(fastModel(), SubLayerId::L1);
    StrategySpec spec = strategyByName("CAIS");

    RunConfig gated; // verify on, V8 armed, V9 armed via the ratio
    gated.boundSlackRatio = 1000.0;

    RunConfig suppressed;
    suppressed.verifySuppress = {"V8", "V9"};

    RunResult a = runGraph(spec, g, gated, "L1");
    RunResult b = runGraph(spec, g, suppressed, "L1");
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.boundComposite, b.boundComposite);
}

// ---------------------------------------------------------------
// Mergeable range union (§6h): the home port is charged once per
// unique byte, however the ranges arrive.
// ---------------------------------------------------------------

TEST(BoundModel, RangeCoalescingKeepsUnion)
{
    SystemConfig c;
    c.fabric.numGpus = 4;
    c.fabric.numSwitches = 2;
    c.gpu.numSms = 8;
    c.gpu.jitterSigma = 0.0;
    const std::uint64_t u = c.gpu.chunkBytes;

    // [begin, end) in chunks, in issue order on GPUs 1 and 2: reversed
    // (10-12 then 8-10 then 6-7), overlapping (20-24, 22-26, 21-23),
    // adjacent (30-31, 31-32), disjoint (40-41, 50-51) and a repeat.
    const std::pair<int, int> gpu1[] = {{10, 12}, {8, 10}, {6, 7},
                                        {20, 24}, {22, 26}, {21, 23},
                                        {30, 31}, {31, 32}, {40, 41},
                                        {50, 51}, {40, 41}};
    const std::pair<int, int> gpu2[] = {{24, 30}, {5, 6}, {51, 52},
                                        {7, 8}};
    struct Want
    {
        RemoteOpKind kind;
        Cycle hbm;
        Cycle mergeService;
    };
    const Want wants[] = {
        {RemoteOpKind::caisLoad, 27ull, 201ull},
        {RemoteOpKind::caisRed, 27ull, 201ull},
    };
    for (const Want &w : wants) {
        System sys(c);
        KernelDesc k;
        k.name = "ranges";
        k.grids.resize(4);
        auto issue = [&](GpuId g, std::span<const std::pair<int, int>> rs) {
            TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
            for (const auto &[b, e] : rs) {
                grid.add().computeCycles = 10;
                RemoteOp op;
                op.kind = w.kind;
                op.base = makeAddr(0, static_cast<Addr>(b) * u);
                op.bytes = static_cast<std::uint64_t>(e - b) * u;
                op.expected = 2;
                if (isPullKind(w.kind))
                    grid.addPull(op);
                else
                    grid.addPush(op);
            }
        };
        issue(1, gpu1);
        issue(2, gpu2);
        sys.addKernel(std::move(k));
        BoundResult b = computeBound(sys);
        EXPECT_EQ(b.hbm, w.hbm) << static_cast<int>(w.kind);
        EXPECT_EQ(b.mergeService, w.mergeService)
            << static_cast<int>(w.kind);
    }
}

TEST(BoundModel, StaticGatesMatrixMatchesGolden)
{
    // Every bound class of the 330 static_gates configurations (flat
    // plus four presets, 11 strategies, six graphs) at dim=0.25
    // tok=0.125, folded into one FNV-1a digest.
    const LlmConfig m = megaGpt4B().scaled(0.25, 0.125);
    const std::vector<OpGraph> graphs = {
        buildSubLayer(m, SubLayerId::L1),
        buildSubLayer(m, SubLayerId::L2),
        buildSubLayer(m, SubLayerId::L3),
        buildSubLayer(m, SubLayerId::L4),
        buildTransformerLayer(m, Pass::forward),
        buildTransformerLayer(m, Pass::backward),
    };
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    int configs = 0;
    for (const std::string &shape : allShapes()) {
        const RunConfig cfg = presetConfig(shape);
        for (const StrategySpec &spec : allStrategies()) {
            for (const OpGraph &g : graphs) {
                BoundResult b = staticBound(spec, g, cfg);
                for (Cycle v : {b.smCompute, b.hbm, b.linkSerialization,
                                b.mergeService, b.criticalPath,
                                b.composite})
                    mix(v);
                ++configs;
            }
        }
    }
    EXPECT_EQ(configs, 330);
    EXPECT_EQ(h, 0x5a118b9afbf1a9ccull) << std::hex << h;
}
