/** @file Tests for the System assembly and kernel execution engine. */

#include <gtest/gtest.h>

#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

SystemConfig
smallConfig(int gpus = 2, int switches = 1)
{
    SystemConfig c;
    c.fabric.numGpus = gpus;
    c.fabric.numSwitches = switches;
    c.gpu.numSms = 4;
    c.gpu.jitterSigma = 0.0;
    c.gpu.maxStartSkew = 0;
    c.gpu.kernelLaunchOverhead = 0;
    return c;
}

} // namespace

TEST(System, TensorLayouts)
{
    System sys(smallConfig(4));

    TensorInfo &sharded = sys.defineTensor(
        "s", TensorLayout::rowShardedHome, 10 * 128, 256, 2, 128, 4);
    EXPECT_EQ(sharded.numTiles, 10);
    // Balanced shards: 3,3,2,2.
    EXPECT_EQ(sharded.tileOwner(0), 0);
    EXPECT_EQ(sharded.tileOwner(2), 0);
    EXPECT_EQ(sharded.tileOwner(3), 1);
    EXPECT_EQ(sharded.tileOwner(6), 2);
    EXPECT_EQ(sharded.tileOwner(7), 2);
    EXPECT_EQ(sharded.tileOwner(8), 3);
    EXPECT_EQ(sharded.tileOwner(9), 3);
    EXPECT_EQ(addrHomeGpu(sharded.tileAddr(7)), 2);

    TensorInfo &rep = sys.defineTensor(
        "r", TensorLayout::replicated, 4 * 128, 64, 2, 128, 1);
    EXPECT_EQ(rep.tileAddr(1) - rep.tileAddr(0), rep.bytesPerTile);

    TensorInfo &priv = sys.defineTensor(
        "p", TensorLayout::perGpuPrivate, 2 * 128, 64, 2, 128, 1);
    EXPECT_NE(priv.tileAddrAt(0, 0), priv.tileAddrAt(1, 0));
    EXPECT_EQ(addrHomeGpu(priv.tileAddrAt(3, 0)), 3);
}

namespace
{

/** The linear scan tileOwner used before its binary search. */
GpuId
linearScanOwner(const TensorInfo &t, int tile)
{
    for (GpuId g = 0; g + 1 < static_cast<GpuId>(t.shardStart.size());
         ++g)
        if (tile >= t.shardStart[static_cast<std::size_t>(g)] &&
            tile < t.shardStart[static_cast<std::size_t>(g) + 1])
            return g;
    return invalidId;
}

} // namespace

TEST(TensorInfo, TileOwnerMatchesLinearScan)
{
    for (int gpus : {8, 72}) {
        System sys(smallConfig(gpus, 2));
        // Fewer tiles than GPUs (empty shards), one per GPU, uneven.
        for (int tiles : {gpus / 2 - 1, gpus, 3 * gpus + 5}) {
            TensorInfo &t = sys.defineTensor(
                strfmt("s%d", tiles), TensorLayout::rowShardedHome,
                tiles * 128, 64, 2, 128, 1);
            ASSERT_EQ(t.numTiles, tiles);
            for (int i = 0; i < tiles; ++i)
                EXPECT_EQ(t.tileOwner(i), linearScanOwner(t, i))
                    << gpus << " GPUs, " << tiles << " tiles, tile "
                    << i;
            // Relevance marks exactly each tile's owner.
            TileTracker &tr = sys.tracker(t.tracker);
            for (int i = 0; i < tiles; ++i)
                tr.contribute(t.tileOwner(i), i, t.bytesPerTile);
            EXPECT_TRUE(tr.complete());
        }
    }
}

TEST(TensorInfoDeathTest, TileOwnerRejectsOutOfRangeTiles)
{
    System sys(smallConfig(4));
    TensorInfo &t = sys.defineTensor(
        "s", TensorLayout::rowShardedHome, 2 * 128, 64, 2, 128, 1);
    EXPECT_DEATH(t.tileOwner(2), "out of range");
    EXPECT_DEATH(t.tileOwner(-1), "out of range");
}

TEST(TensorInfo, TileOwnerFromWalksShardsInOrder)
{
    // The emitters' ascending walk: owner stepped forward from the
    // previous tile's, and the home address formed from the shard's
    // local index, agree with the searching accessors.
    for (int gpus : {8, 72}) {
        System sys(smallConfig(gpus, 2));
        for (int tiles : {gpus / 2 - 1, gpus, 3 * gpus + 5}) {
            TensorInfo &t = sys.defineTensor(
                strfmt("w%d", tiles), TensorLayout::rowShardedHome,
                tiles * 128, 64, 2, 128, 1);
            GpuId owner = 0;
            for (int i = 0; i < tiles; ++i) {
                owner = t.tileOwnerFrom(i, owner);
                EXPECT_EQ(owner, linearScanOwner(t, i))
                    << gpus << " GPUs, " << tiles << " tiles, tile "
                    << i;
                EXPECT_EQ(t.tileAddrAt(owner, i - t.shardBegin(owner)),
                          t.tileAddr(i));
                EXPECT_GE(i, t.shardBegin(owner));
                EXPECT_LT(i, t.shardBegin(owner + 1));
            }
        }
    }
}

TEST(TensorInfoDeathTest, TileOwnerFromRejectsOutOfRangeTiles)
{
    System sys(smallConfig(4));
    TensorInfo &t = sys.defineTensor(
        "s", TensorLayout::rowShardedHome, 2 * 128, 64, 2, 128, 1);
    EXPECT_DEATH(t.tileOwnerFrom(2, 0), "out of range");
    EXPECT_DEATH(t.tileOwnerFrom(-1, 0), "out of range");
}

TEST(System, LocalAllocationsAreDisjoint)
{
    System sys(smallConfig());
    Addr a = sys.allocLocal(0, 10000);
    Addr b = sys.allocLocal(0, 10000);
    EXPECT_GE(b - a, 10000u);
    EXPECT_EQ(addrHomeGpu(a), 0);
    Addr s1 = sys.allocShared(5000);
    Addr s2 = sys.allocShared(5000);
    EXPECT_GE(s2 - s1, 5000u);
}

TEST(System, GroupIdsAreUnique)
{
    System sys(smallConfig());
    GroupId a = sys.allocGroups(10);
    GroupId b = sys.allocGroups(5);
    EXPECT_EQ(b, a + 10);
}

TEST(System, RunsComputeOnlyKernel)
{
    System sys(smallConfig());
    KernelDesc k;
    k.name = "compute";
    k.grids.resize(2);
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 16; ++i)
            k.grids[g].add().computeCycles = 1000;
    sys.addKernel(std::move(k));
    sys.run();
    // 16 TBs over 8 slots = 2 waves of 1000 cycles.
    EXPECT_EQ(sys.makespan(), 2000u);
}

TEST(System, KernelBarrierOrdersExecution)
{
    System sys(smallConfig());
    auto make = [&](const char *name) {
        KernelDesc k;
        k.name = name;
        k.grids.resize(2);
        k.grids[0].add().computeCycles = 500;
        k.grids[1].add().computeCycles = 500;
        return k;
    };
    KernelDesc a = make("a");
    KernelId ka = sys.addKernel(std::move(a));
    KernelDesc b = make("b");
    b.kernelDeps = {ka};
    KernelId kb = sys.addKernel(std::move(b));
    sys.run();
    EXPECT_EQ(sys.kernelStartTime(kb), sys.kernelFinishTime(ka));
    EXPECT_EQ(sys.makespan(), 1000u);
}

TEST(System, TileDepsLaunchConsumersEarly)
{
    System sys(smallConfig());
    TensorInfo &t = sys.defineTensor(
        "x", TensorLayout::perGpuPrivate, 2 * 128, 64, 2, 128, 1);

    // Producer: tile 0 fast (100 cyc), tile 1 slow (1000 cyc).
    KernelDesc prod;
    prod.name = "prod";
    prod.grids.resize(2);
    prod.producesTracker = t.tracker;
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 2; ++i) {
            TbDesc &tb = prod.grids[g].add();
            tb.computeCycles = i == 0 ? 100 : 1000;
            tb.producesTile = i;
            tb.produceBytes = t.bytesPerTile;
        }
    sys.addKernel(std::move(prod));

    // Consumer with per-tile deps: its tile-0 TB must not wait for
    // the slow producer tile.
    KernelDesc cons;
    cons.name = "cons";
    cons.grids.resize(2);
    for (GpuId g = 0; g < 2; ++g)
        for (int i = 0; i < 2; ++i) {
            cons.grids[g].add().computeCycles = 10;
            cons.grids[g].addDep(TileRef{t.tracker, i, g});
        }
    sys.addKernel(std::move(cons));
    sys.run();
    // Pipeline: 1000 (slow tile) + 10 (its consumer), not 1010+100.
    EXPECT_EQ(sys.makespan(), 1010u);
}

TEST(System, SelfDepWaitsOnExecutingGpu)
{
    System sys(smallConfig());
    TensorInfo &t = sys.defineTensor(
        "x", TensorLayout::perGpuPrivate, 128, 64, 2, 128, 1);

    // Producer: GPU 0's tile is slow (1000 cyc), GPU 1's fast (100).
    KernelDesc prod;
    prod.name = "prod";
    prod.grids.resize(2);
    prod.producesTracker = t.tracker;
    for (GpuId g = 0; g < 2; ++g) {
        TbDesc &tb = prod.grids[g].add();
        tb.computeCycles = g == 0 ? 1000 : 100;
        tb.producesTile = 0;
        tb.produceBytes = t.bytesPerTile;
    }
    sys.addKernel(std::move(prod));

    // Consumer: one grid for both GPUs, its dep on the executing
    // GPU's tile. Each GPU's TB waits on its own producer only.
    KernelDesc cons;
    cons.name = "cons";
    cons.grids.resize(1);
    cons.grids[0].add().computeCycles = 10;
    cons.grids[0].addDep(TileRef{t.tracker, 0, selfGpu});
    const KernelId kc = sys.addKernel(std::move(cons));
    sys.run();
    EXPECT_EQ(sys.kernelGpuSpan(kc, 0).second, 1010u);
    EXPECT_EQ(sys.kernelGpuSpan(kc, 1).second, 110u);
    EXPECT_EQ(sys.makespan(), 1010u);
}

TEST(System, PushedDataCompletesTrackerRemotely)
{
    System sys(smallConfig());
    TensorInfo &out = sys.defineTensor(
        "o", TensorLayout::rowShardedHome, 2 * 128, 64, 2, 128, 2);

    // Each GPU owns one tile; the peer pushes its contribution.
    KernelDesc k;
    k.name = "push";
    k.grids.resize(2);
    k.producesTracker = out.tracker;
    for (GpuId g = 0; g < 2; ++g) {
        for (int i = 0; i < 2; ++i) {
            TbDesc &tb = k.grids[g].add();
            tb.computeCycles = 50;
            if (out.tileOwner(i) == g) {
                tb.producesTile = i;
                tb.produceBytes = out.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.base = out.tileAddr(i);
                op.bytes = out.bytesPerTile;
                k.grids[g].addPush(op);
            }
        }
    }
    sys.addKernel(std::move(k));
    sys.run();
    EXPECT_TRUE(sys.tracker(out.tracker).complete());
    EXPECT_GT(sys.makespan(), 500u); // link latency is on the path
}

TEST(System, StartSkewStaggersUncoordinatedSources)
{
    SystemConfig cfg = smallConfig();
    cfg.gpu.maxStartSkew = 10 * cyclesPerUs;
    System sys(cfg);
    KernelDesc k;
    k.name = "src";
    k.grids.resize(2);
    k.grids[0].add().computeCycles = 10;
    k.grids[1].add().computeCycles = 10;
    sys.addKernel(std::move(k));
    sys.run();
    // The straggling GPU delays completion well beyond the compute.
    EXPECT_GT(sys.makespan(), 1000u);
}

TEST(System, HandBuiltConfigSeedMatchesRunConfig)
{
    // An uncoordinated job with the default jitter and start skew, so
    // both the per-GPU jitter streams and the skew stream are drawn.
    const StrategySpec spec = strategyByName("TP-NVLS");
    ASSERT_FALSE(spec.opts.caisCoordination);
    const OpGraph g =
        buildSubLayer(megaGpt4B().scaled(0.25, 0.125), SubLayerId::L1);

    // The RunConfig defaults, set field by field: only the master
    // seed reaches the RNG streams.
    SystemConfig sc;
    sc.fabric.utilBinWidth = 2000;
    sc.inswitch.merge.tableBytesPerPort =
        320ull * sc.inswitch.merge.chunkBytes;
    sc.inswitch.merge.throttleEnabled = false;
    sc.seed = 3;
    System sys(sc);
    GraphLowering lowering(sys, g, spec.opts);
    lowering.lower();
    sys.run();

    RunConfig cfg;
    cfg.seed = 3;
    RunResult seeded = runGraph(spec, g, cfg, "L1");
    EXPECT_EQ(sys.makespan(), seeded.makespan);
    EXPECT_EQ(sys.eq().executed(), seeded.eventsExecuted);

    cfg.seed = 1;
    RunResult base = runGraph(spec, g, cfg, "L1");
    EXPECT_NE(seeded.makespan, base.makespan);

    // Without jitter only the skew stream is left to follow the seed.
    cfg.gpu.jitterSigma = 0.0;
    RunResult unjittered = runGraph(spec, g, cfg, "L1");
    cfg.seed = 3;
    EXPECT_NE(runGraph(spec, g, cfg, "L1").makespan, unjittered.makespan);
}

TEST(SystemDeathTest, UnsatisfiableDependencyReportsDeadlock)
{
    System sys(smallConfig());
    TensorInfo &t = sys.defineTensor(
        "never", TensorLayout::perGpuPrivate, 128, 64, 2, 128, 1);
    KernelDesc k;
    k.name = "waiter";
    k.grids.resize(2);
    k.grids[0].add().computeCycles = 10;
    k.grids[0].addDep(TileRef{t.tracker, 0, 0});
    sys.addKernel(std::move(k));
    EXPECT_DEATH(sys.run(), "deadlock");
}
