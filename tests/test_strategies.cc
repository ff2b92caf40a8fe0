/** @file Tests for strategy presets and graph lowering. */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>

#include "noc/topology.hh"
#include "runtime/simulation_driver.hh"
#include "workload/collectives.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

/** FNV-1a over everything a lowering hands to the System. */
struct Fingerprint
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void byte(unsigned char b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void u(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void i(std::int64_t v) { u(static_cast<std::uint64_t>(v)); }
    void f(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        u(b);
    }
    void s(const std::string &v)
    {
        u(v.size());
        for (char c : v)
            byte(static_cast<unsigned char>(c));
    }

    void ops(std::span<const RemoteOp> v)
    {
        u(v.size());
        for (const RemoteOp &op : v) {
            u(static_cast<std::uint64_t>(op.kind));
            u(op.base);
            u(op.bytes);
            i(op.expected);
            u(op.protocolPad);
        }
    }

    /** @p t as GPU @p gpu runs it: selfGpu deps resolve to @p gpu. */
    void tb(const TbGrid &grid, const TbDesc &t, GpuId gpu)
    {
        u(t.computeCycles);
        ops(grid.pullOps(t));
        ops(grid.pushOps(t));
        i(t.group);
        i(t.producesTile);
        u(t.produceBytes);
        u(grid.deps(t).size());
        for (const TileRef &d : grid.deps(t)) {
            i(d.tracker);
            i(d.tile);
            i(d.atGpu == selfGpu ? gpu : d.atGpu);
        }
    }

    /** Each GPU's view of @p k, shared grid or not. */
    void kernel(const KernelDesc &k, int num_gpus)
    {
        s(k.name);
        u(k.preLaunchSync);
        u(k.preAccessSync);
        u(k.commKernel);
        f(k.smFrom);
        f(k.smTo);
        u(k.launchOverhead);
        i(k.schedPriority);
        u(k.kernelDeps.size());
        for (KernelId d : k.kernelDeps)
            i(d);
        i(k.producesTracker);
        u(static_cast<std::uint64_t>(num_gpus));
        for (GpuId g = 0; g < num_gpus; ++g) {
            const TbGrid &grid = k.grid(g);
            u(grid.size());
            for (const TbDesc &t : grid.tbs)
                tb(grid, t, g);
        }
    }

    void system(const System &sys)
    {
        u(sys.numKernels());
        for (std::size_t k = 0; k < sys.numKernels(); ++k)
            kernel(sys.kernel(static_cast<KernelId>(k)), sys.numGpus());
        u(sys.numTensors());
        for (std::size_t t = 0; t < sys.numTensors(); ++t) {
            const TensorInfo &ti = sys.tensor(t);
            s(ti.name);
            u(static_cast<std::uint64_t>(ti.layout));
            i(ti.numTiles);
        }
    }
};

/** Per strategy: one digest over the six workloads' lowerings. */
struct LoweringGolden
{
    const char *strategy;
    std::uint64_t digest;
};

/**
 * Lower every strategy (the 11 presets plus CAIS-Partial and
 * CAIS-w/o-Coord) over L1-L4, layer_fwd and layer_bwd at dim=0.25
 * tok=0.125 on @p cfg and compare each strategy's fingerprint with
 * @p golden. A refactor of the lowering engine must leave every
 * kernel, thread block and tensor exactly as it was.
 */
void
expectLoweringDigests(const RunConfig &cfg,
                      const std::vector<LoweringGolden> &golden)
{
    const LlmConfig model = megaGpt4B().scaled(0.25, 0.125);
    const std::vector<OpGraph> graphs = {
        buildSubLayer(model, SubLayerId::L1),
        buildSubLayer(model, SubLayerId::L2),
        buildSubLayer(model, SubLayerId::L3),
        buildSubLayer(model, SubLayerId::L4),
        buildTransformerLayer(model, Pass::forward),
        buildTransformerLayer(model, Pass::backward),
    };
    std::vector<StrategySpec> specs = allStrategies();
    specs.push_back(makeCaisPartial());
    specs.push_back(makeCaisNoCoord());
    ASSERT_EQ(specs.size(), golden.size());

    for (std::size_t s = 0; s < specs.size(); ++s) {
        Fingerprint fp;
        for (const OpGraph &g : graphs) {
            System sys(cfg.toSystemConfig(specs[s]));
            GraphLowering(sys, g, specs[s].opts).lower();
            fp.system(sys);
        }
        EXPECT_EQ(specs[s].name, golden[s].strategy);
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", fp.h);
        EXPECT_EQ(fp.h, golden[s].digest)
            << specs[s].name << " lowers to digest " << hex;
    }
}

SystemConfig
tinyConfig()
{
    SystemConfig c;
    c.fabric.numGpus = 4;
    c.fabric.numSwitches = 2;
    c.gpu.numSms = 8;
    c.gpu.jitterSigma = 0.0;
    c.gpu.maxStartSkew = 0;
    return c;
}

LlmConfig
tinyModel()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.5);
    m.batch = 1;
    return m;
}

} // namespace

TEST(Strategies, RegistryContainsPaperBaselines)
{
    auto all = allStrategies();
    ASSERT_EQ(all.size(), 11u);
    EXPECT_EQ(all[0].name, "TP-NVLS");
    EXPECT_EQ(all[1].name, "SP-NVLS");
    EXPECT_EQ(all[8].name, "LADM");
    EXPECT_EQ(all[9].name, "CAIS-Base");
    EXPECT_EQ(all[10].name, "CAIS");
}

TEST(Strategies, LookupByNameIncludesAblations)
{
    EXPECT_EQ(strategyByName("CAIS-Partial").unifiedDataVc, true);
    EXPECT_FALSE(strategyByName("CAIS-w/o-Coord").opts.caisCoordination);
    EXPECT_TRUE(strategyByName("CAIS-w/o-Coord").opts.graphOptimizer);
    EXPECT_DEATH(strategyByName("NoSuch"), "unknown strategy");
}

TEST(Strategies, PresetFlagsMatchDescriptions)
{
    EXPECT_TRUE(makeTpNvls().opts.reassociateToAllReduce);
    EXPECT_FALSE(makeSpNvls().opts.reassociateToAllReduce);
    EXPECT_EQ(makeT3(true).opts.collectives, CollectiveImpl::t3);
    EXPECT_TRUE(makeT3(true).opts.t3Nvls);
    EXPECT_FALSE(makeT3(false).opts.t3Nvls);
    EXPECT_GT(makeCoconet(false).opts.perCommTbOverhead, 0u);
    EXPECT_EQ(makeFuselib(false).opts.perCommTbOverhead, 0u);
    EXPECT_TRUE(makeCais().opts.caisCoordination);
    EXPECT_FALSE(makeCaisBase().opts.graphOptimizer);
}

TEST(Lowering, CaisFoldsCollectivesIntoComputeKernels)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeCais().opts);
    low.lower();

    // CAIS: gemm-rs, ln, stage, ag-gemm -> 4 kernels, no standalone
    // collective kernels with multimem ops.
    EXPECT_EQ(sys.numKernels(), 4u);
    // The RS op's kernel is the producing GEMM (folded).
    EXPECT_EQ(low.opKernel(1), low.opKernel(0));
    // AG materializes as the stage kernel feeding the consumer.
    EXPECT_NE(low.opTensor(3), nullptr);

    // GEMM-RS TBs push red.cais; no kernel-level barriers anywhere.
    for (std::size_t k = 0; k < sys.numKernels(); ++k)
        EXPECT_TRUE(sys.kernel(static_cast<KernelId>(k))
                        .kernelDeps.empty());
}

TEST(Lowering, CaisCoordinationAddsGroupsAndSync)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeCais().opts);
    low.lower();

    const KernelDesc &gemm_rs = sys.kernel(low.opKernel(0));
    EXPECT_TRUE(gemm_rs.preLaunchSync);
    EXPECT_TRUE(gemm_rs.preAccessSync);
    bool any_group = false;
    for (const TbDesc &tb : gemm_rs.grids[0].tbs)
        any_group |= tb.group != invalidId;
    EXPECT_TRUE(any_group);

    // CAIS-Base: no groups, no sync, but barriers between operators.
    System sys2(tinyConfig());
    GraphLowering low2(sys2, g, makeCaisBase().opts);
    low2.lower();
    const KernelDesc &base_rs = sys2.kernel(low2.opKernel(0));
    EXPECT_FALSE(base_rs.preLaunchSync);
    for (const TbDesc &tb : base_rs.grids[0].tbs)
        EXPECT_EQ(tb.group, invalidId);
    const KernelDesc &base_ln = sys2.kernel(low2.opKernel(2));
    EXPECT_FALSE(base_ln.kernelDeps.empty());
}

TEST(Lowering, NvlsStrategyEmitsCollectiveKernels)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeSpNvls().opts);
    low.lower();

    // gemm, nvls-rs, ln, nvls-ag, gemm -> 5 kernels with barriers.
    EXPECT_EQ(sys.numKernels(), 5u);
    int comm = 0;
    for (std::size_t k = 0; k < sys.numKernels(); ++k)
        comm += sys.kernel(static_cast<KernelId>(k)).commKernel;
    EXPECT_EQ(comm, 2);
}

TEST(Lowering, ReassociationCollapsesRsAgIntoAllReduce)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeTpNvls().opts);
    low.lower();

    // gemm, nvls-ar, ln, gemm (AG is a no-op on replicated data).
    EXPECT_EQ(sys.numKernels(), 4u);
    EXPECT_EQ(low.opKernel(3), low.opKernel(2));
    EXPECT_EQ(low.opTensor(3), low.opTensor(2));
}

TEST(Lowering, T3FusesReductionIntoGemm)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeT3(false).opts);
    low.lower();

    const KernelDesc &gemm = sys.kernel(low.opKernel(0));
    bool has_dma_push = false;
    for (const RemoteOp &op : gemm.grids[1].allPushes())
        has_dma_push |= op.kind == RemoteOpKind::plainWrite;
    EXPECT_TRUE(has_dma_push);
    // T3-NVLS routes the DMA through the switch reducer instead.
    System sys2(tinyConfig());
    GraphLowering low2(sys2, g, makeT3(true).opts);
    low2.lower();
    bool has_red = false;
    for (const RemoteOp &op :
         sys2.kernel(low2.opKernel(0)).grids[1].allPushes())
        has_red |= op.kind == RemoteOpKind::caisRed;
    EXPECT_TRUE(has_red);
}

TEST(Lowering, LadmPullsEveryPeerPartial)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeLadm().opts);
    low.lower();

    // Find the LADM AR kernel and check each TB pulls G-1 partials.
    bool found = false;
    for (std::size_t k = 0; k < sys.numKernels(); ++k) {
        const KernelDesc &kd = sys.kernel(static_cast<KernelId>(k));
        if (kd.name.find("ladm") == std::string::npos)
            continue;
        found = true;
        for (const TbDesc &tb : kd.grids[0].tbs)
            EXPECT_EQ(kd.grids[0].pullOps(tb).size(), 3u);
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, GpuInvariantKernelsShareOneGrid)
{
    // GEMM, attention and layer-norm kernels whose TBs, ops and deps
    // are the same on every GPU hold one grid; collectives and CAIS's
    // fused gemm-rs (each GPU pushes off its own home shard) hold G.
    const OpGraph g = buildTransformerLayer(
        megaGpt4B().scaled(0.25, 0.125), Pass::forward);
    RunConfig nvl72;
    nvl72.topology = "nvl72";
    nvl72.numGpus = 72;
    for (const RunConfig &cfg : {RunConfig{}, nvl72}) {
        for (const StrategySpec &spec :
             {makeTpNvls(), makeLadm(), makeCoconet(false)}) {
            System sys(cfg.toSystemConfig(spec));
            GraphLowering low(sys, g, spec.opts);
            low.lower();
            const auto G = static_cast<std::size_t>(sys.numGpus());
            int shared = 0;
            for (OpId id = 0; id < static_cast<OpId>(g.size()); ++id) {
                if (isCommOp(g.node(id).kind))
                    continue;
                EXPECT_EQ(sys.kernel(low.opKernel(id)).grids.size(), 1u)
                    << spec.name << "@" << cfg.topology << " "
                    << g.node(id).name;
                ++shared;
            }
            EXPECT_GT(shared, 0);
            for (std::size_t k = 0; k < sys.numKernels(); ++k) {
                const KernelDesc &kd = sys.kernel(static_cast<KernelId>(k));
                if (!kd.commKernel)
                    continue;
                EXPECT_EQ(kd.grids.size(), G)
                    << spec.name << "@" << cfg.topology << " " << kd.name;
            }
        }

        System sys(cfg.toSystemConfig(makeCais()));
        GraphLowering low(sys, g, makeCais().opts);
        low.lower();
        int fused = 0;
        for (OpId id = 0; id < static_cast<OpId>(g.size()); ++id) {
            if (g.node(id).kind != OpKind::gemmRowParallel)
                continue;
            EXPECT_EQ(sys.kernel(low.opKernel(id)).grids.size(),
                      static_cast<std::size_t>(sys.numGpus()))
                << "CAIS@" << cfg.topology << " " << g.node(id).name;
            ++fused;
        }
        EXPECT_GT(fused, 0);
    }
}

TEST(Lowering, AsymmetricOverlapAssignsSmHalves)
{
    System sys(tinyConfig());
    OpGraph g = buildSubLayer(tinyModel(), SubLayerId::L1);
    GraphLowering low(sys, g, makeCais().opts);
    low.lower();

    const KernelDesc &rs = sys.kernel(low.opKernel(0));
    const KernelDesc &ag = sys.kernel(low.opKernel(4));
    EXPECT_DOUBLE_EQ(rs.smFrom, 0.0);
    EXPECT_DOUBLE_EQ(rs.smTo, 0.5);
    EXPECT_DOUBLE_EQ(ag.smFrom, 0.5);
    EXPECT_DOUBLE_EQ(ag.smTo, 1.0);
}

TEST(LoweringFingerprint, Flat8GpuMatchesGolden)
{
    expectLoweringDigests(RunConfig{},
                          {
                              {"TP-NVLS", 0xd3a20d141a86d93dull},
                              {"SP-NVLS", 0x1a6ab26fc3163ec9ull},
                              {"CoCoNet", 0x77f69c72aff1c65dull},
                              {"FuseLib", 0x5a09d93f77aa8985ull},
                              {"T3", 0x4d920f85f7074085ull},
                              {"CoCoNet-NVLS", 0x8d90df7288af3b3dull},
                              {"FuseLib-NVLS", 0x799ab44395db472dull},
                              {"T3-NVLS", 0xb8de713f2e47ef81ull},
                              {"LADM", 0x6b45d754fc8ec9adull},
                              {"CAIS-Base", 0xadaabb8ba1da9d35ull},
                              {"CAIS", 0x87fe6fdab21f43c5ull},
                              {"CAIS-Partial", 0x87fe6fdab21f43c5ull},
                              {"CAIS-w/o-Coord", 0xcda3e40e7ca328e5ull},
                          });
}

TEST(LoweringFingerprint, Nvl72MatchesGolden)
{
    RunConfig cfg;
    cfg.topology = "nvl72";
    cfg.numGpus = 72;
    expectLoweringDigests(cfg,
                          {
                              {"TP-NVLS", 0xc4ef970a0270351dull},
                              {"SP-NVLS", 0x29dcd2f1f96d7359ull},
                              {"CoCoNet", 0x2a29c9564bbe15b5ull},
                              {"FuseLib", 0xd2e292a2cea28245ull},
                              {"T3", 0xd844b7a6cc378145ull},
                              {"CoCoNet-NVLS", 0x9d8ba1b4a109e1bdull},
                              {"FuseLib-NVLS", 0x394d28455ff898edull},
                              {"T3-NVLS", 0xf7b3add60a4305e1ull},
                              {"LADM", 0xc7dd96f6a0f046cdull},
                              {"CAIS-Base", 0x54349e53e056efe5ull},
                              {"CAIS", 0xff50713c2623b835ull},
                              {"CAIS-Partial", 0xff50713c2623b835ull},
                              {"CAIS-w/o-Coord", 0xee58ed183d7d2d95ull},
                          });
}

TEST(LoweringFingerprint, DgxH100MatchesGolden)
{
    RunConfig cfg;
    cfg.topology = "dgx-h100";
    cfg.numGpus = FabricParams::preset(cfg.topology).numGpus;
    // The preset is the default flat machine: same digests as flat-8.
    expectLoweringDigests(cfg,
                          {
                              {"TP-NVLS", 0xd3a20d141a86d93dull},
                              {"SP-NVLS", 0x1a6ab26fc3163ec9ull},
                              {"CoCoNet", 0x77f69c72aff1c65dull},
                              {"FuseLib", 0x5a09d93f77aa8985ull},
                              {"T3", 0x4d920f85f7074085ull},
                              {"CoCoNet-NVLS", 0x8d90df7288af3b3dull},
                              {"FuseLib-NVLS", 0x799ab44395db472dull},
                              {"T3-NVLS", 0xb8de713f2e47ef81ull},
                              {"LADM", 0x6b45d754fc8ec9adull},
                              {"CAIS-Base", 0xadaabb8ba1da9d35ull},
                              {"CAIS", 0x87fe6fdab21f43c5ull},
                              {"CAIS-Partial", 0x87fe6fdab21f43c5ull},
                              {"CAIS-w/o-Coord", 0xcda3e40e7ca328e5ull},
                          });
}

TEST(LoweringFingerprint, RailOptimized2NodeMatchesGolden)
{
    RunConfig cfg;
    cfg.topology = "rail-optimized-2node";
    cfg.numGpus = FabricParams::preset(cfg.topology).numGpus;
    expectLoweringDigests(cfg,
                          {
                              {"TP-NVLS", 0x19304e356e359e7dull},
                              {"SP-NVLS", 0x7255221591100c19ull},
                              {"CoCoNet", 0x051ed938bdd2d275ull},
                              {"FuseLib", 0x27e95a80c39e18c5ull},
                              {"T3", 0xe6e3a8f0f7a1c6c5ull},
                              {"CoCoNet-NVLS", 0x3423d17c17e6373dull},
                              {"FuseLib-NVLS", 0x37b42e32a06740adull},
                              {"T3-NVLS", 0x7326c9b5a088c1c1ull},
                              {"LADM", 0x481c9bc456b1c2bdull},
                              {"CAIS-Base", 0x5fd4e0e9d4363865ull},
                              {"CAIS", 0x01b16af62cc7dc05ull},
                              {"CAIS-Partial", 0x01b16af62cc7dc05ull},
                              {"CAIS-w/o-Coord", 0xfd61289d00cc6fc5ull},
                          });
}

TEST(LoweringFingerprint, RailOptimized4NodeMatchesGolden)
{
    RunConfig cfg;
    cfg.topology = "rail-optimized-4node";
    cfg.numGpus = FabricParams::preset(cfg.topology).numGpus;
    expectLoweringDigests(cfg,
                          {
                              {"TP-NVLS", 0x3a257e39531284ddull},
                              {"SP-NVLS", 0xcb16efb86ada0319ull},
                              {"CoCoNet", 0x7ea2a250694784f5ull},
                              {"FuseLib", 0x48a88c2cc26052c5ull},
                              {"T3", 0x6b46e4cb6b54ef05ull},
                              {"CoCoNet-NVLS", 0xcd0949f1bbadb2ddull},
                              {"FuseLib-NVLS", 0x704feeafc06a258dull},
                              {"T3-NVLS", 0xbd3cd26e59f7c861ull},
                              {"LADM", 0x8c2d775adc2d8eddull},
                              {"CAIS-Base", 0x1810aecf466805a5ull},
                              {"CAIS", 0x3121cb3227d56d85ull},
                              {"CAIS-Partial", 0x3121cb3227d56d85ull},
                              {"CAIS-w/o-Coord", 0x41a2904779044e25ull},
                          });
}

TEST(LoweringReserve, GridsHaveNoSlack)
{
    // Every emitter reserves its grids' exact final sizes: after
    // lowering, no TbGrid array holds a spare (or regrown) slot.
    const LlmConfig model = megaGpt4B().scaled(0.25, 0.125);
    const std::vector<OpGraph> graphs = {
        buildSubLayer(model, SubLayerId::L1),
        buildSubLayer(model, SubLayerId::L2),
        buildSubLayer(model, SubLayerId::L3),
        buildSubLayer(model, SubLayerId::L4),
        buildTransformerLayer(model, Pass::forward),
        buildTransformerLayer(model, Pass::backward),
    };
    std::vector<StrategySpec> specs = allStrategies();
    specs.push_back(makeCaisPartial());
    specs.push_back(makeCaisNoCoord());
    RunConfig nvl72;
    nvl72.topology = "nvl72";
    nvl72.numGpus = 72;
    auto expectExact = [](const System &sys, const std::string &what) {
        for (std::size_t k = 0; k < sys.numKernels(); ++k) {
            const KernelDesc &kd = sys.kernel(static_cast<KernelId>(k));
            for (std::size_t g = 0; g < kd.grids.size(); ++g)
                EXPECT_EQ(kd.grids[g].slack(), 0u)
                    << what << " kernel " << kd.name << " gpu " << g;
        }
    };
    for (const RunConfig &cfg : {RunConfig{}, nvl72}) {
        for (const StrategySpec &spec : specs) {
            for (const OpGraph &g : graphs) {
                System sys(cfg.toSystemConfig(spec));
                GraphLowering(sys, g, spec.opts).lower();
                expectExact(sys, spec.name + "@" + cfg.topology);
            }
        }
        // The standalone collective builders size their grids too.
        System sys(cfg.toSystemConfig(makeTpNvls()));
        buildNvlsAllReduce(sys, 1ull << 20, 16);
        buildSoftwareAllReduce(sys, 1ull << 20, 16);
        expectExact(sys, "collectives@" + cfg.topology);
    }
}
