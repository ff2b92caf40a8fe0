/**
 * @file
 * Tests for the thread-block state machine: compute/pull overlap,
 * pre-access gating, push retirement semantics, and jitter bounds.
 */

#include <gtest/gtest.h>

#include "fake_tb_listener.hh"
#include "runtime/system.hh"

using namespace cais;
using cais::test::FakeTbListener;

namespace
{

/** A 2-GPU machine whose GPU-0 TB context reports to a fake. */
struct TbRig
{
    SystemConfig sc;
    std::unique_ptr<System> sys;
    FakeTbListener listener;
    TbRunContext ctx;

    TbRig()
    {
        sc.fabric.numGpus = 2;
        sc.fabric.numSwitches = 1;
        sc.gpu.numSms = 2;
        sc.gpu.jitterSigma = 0.0;
        sc.gpu.maxStartSkew = 0;
        sys = std::make_unique<System>(sc);
        ctx = sys->gpu(0).tbContext(2);
        ctx.listener = &listener;
    }
};

} // namespace

TEST(ThreadBlock, ComputeOnlyFinishesAfterDuration)
{
    TbRig rig;
    KernelDesc k;
    k.name = "t";
    k.grids.resize(2);
    TbDesc &tb = k.grids[0].add();
    tb.computeCycles = 500;

    bool produced = false, finished = false;
    Cycle at = 0;
    rig.listener.produced = [&](TbRecId) { produced = true; };
    rig.listener.finished = [&](TbRecId) {
        finished = true;
        at = rig.sys->eq().now();
    };
    TbRun run(rig.ctx, 0, k, tb, 0, 0);
    run.start();
    rig.sys->eq().runAll();
    EXPECT_TRUE(produced);
    EXPECT_TRUE(finished);
    EXPECT_EQ(at, 500u);
}

TEST(ThreadBlock, PullsOverlapCompute)
{
    // A TB with 500 cycles of compute and a remote pull finishing
    // later must take max(compute, pull), not the sum.
    TbRig rig;
    KernelDesc k;
    k.name = "t";
    k.grids.resize(2);
    RemoteOp op;
    op.kind = RemoteOpKind::plainLoad;
    op.base = makeAddr(1, 0x1000);
    op.bytes = 64 * 1024; // ~1.3 us round trip
    for (Cycle compute : {500, 0}) { // TB 0 computes, TB 1 only pulls
        k.grids[0].add().computeCycles = compute;
        k.grids[0].addPull(op);
    }
    const TbDesc &tb = k.grids[0].tbs[0];

    Cycle at = 0;
    rig.listener.finished = [&](TbRecId) { at = rig.sys->eq().now(); };
    TbRun run(rig.ctx, 0, k, tb, 0, 0);
    run.start();
    rig.sys->eq().runAll();
    // Far less than compute+transfer serialized, and at least the
    // transfer itself.
    EXPECT_GT(at, 1000u);
    EXPECT_LT(at, 4000u);

    // Reference: the same pull alone takes nearly the same time.
    TbRig rig2;
    const TbDesc &tb2 = k.grids[0].tbs[1];
    Cycle at2 = 0;
    rig2.listener.finished = [&](TbRecId) {
        at2 = rig2.sys->eq().now();
    };
    TbRun run2(rig2.ctx, 0, k, tb2, 0, 0);
    run2.start();
    rig2.sys->eq().runAll();
    EXPECT_NEAR(static_cast<double>(at),
                static_cast<double>(at2), 600.0);
}

TEST(ThreadBlock, PushesArePostedWrites)
{
    // The CTA retires before its pushes are delivered; delivery still
    // happens afterwards.
    TbRig rig;
    TensorInfo &t = rig.sys->defineTensor(
        "o", TensorLayout::rowShardedHome, 2 * 128, 16, 2, 128, 1);
    KernelDesc k;
    k.name = "t";
    k.grids.resize(2);
    TbDesc &tb = k.grids[0].add();
    tb.computeCycles = 10;
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    op.base = t.tileAddr(1); // homed on GPU 1
    op.bytes = t.bytesPerTile;
    k.grids[0].addPush(op);

    Cycle finished_at = 0;
    rig.listener.finished = [&](TbRecId) {
        finished_at = rig.sys->eq().now();
    };
    TbRun run(rig.ctx, 0, k, tb, 0, 0);
    run.start();
    rig.sys->eq().runAll();
    EXPECT_LT(finished_at, 200u); // retired right after compute
    EXPECT_TRUE(rig.sys->tracker(t.tracker).ready(1, 1)); // delivered
}

TEST(ThreadBlock, PreAccessSyncGatesCaisLoads)
{
    // Two GPUs' TBs in one group: the first to arrive waits at the
    // pre-access rendezvous for the peer (expected = G-1 = 1 means a
    // single requester releases immediately; use both TBs pulling).
    TbRig rig;
    KernelDesc k;
    k.name = "t";
    k.preAccessSync = true;
    k.grids.resize(2);
    TbDesc &tb = k.grids[1].add();
    tb.computeCycles = 0;
    tb.group = 3;
    RemoteOp op;
    op.kind = RemoteOpKind::caisLoad;
    op.base = makeAddr(0, 0x9000);
    op.bytes = 4096;
    op.expected = 1;
    k.grids[1].addPull(op);

    int done = 0;
    TbRunContext c1 = rig.sys->gpu(1).tbContext(2);
    c1.listener = &rig.listener;
    rig.listener.finished = [&](TbRecId) { ++done; };
    TbRun r1(c1, 1, k, tb, 0, 0);
    // The release reaches the TB through the synchronizer's listener.
    rig.sys->gpu(1).synchronizer().setListener(&rig.listener);
    rig.listener.syncReleased = [&](TbRecId) { r1.onSyncReleased(); };
    r1.start();
    // Alone, GPU 1's TB waits: pre-access expects G-1 = 1 requester —
    // it IS the single requester, so it releases and completes.
    rig.sys->eq().runAll();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(rig.sys->gpu(1).synchronizer().releases(), 1u);
}

TEST(ThreadBlock, JitterStaysWithinClampBounds)
{
    SystemConfig sc;
    sc.fabric.numGpus = 2;
    sc.fabric.numSwitches = 1;
    sc.gpu.jitterSigma = 0.3;
    sc.gpu.maxStartSkew = 0;
    System sys(sc);
    KernelDesc k;
    k.name = "t";
    k.grids.resize(2);
    TbDesc &tb = k.grids[0].add();
    tb.computeCycles = 1000;

    FakeTbListener listener;
    for (int i = 0; i < 50; ++i) {
        Cycle start = sys.eq().now();
        Cycle end = 0;
        TbRunContext ctx = sys.gpu(0).tbContext(2);
        ctx.listener = &listener;
        listener.finished = [&](TbRecId) { end = sys.eq().now(); };
        TbRun run(ctx, 0, k, tb, i, static_cast<TbRecId>(i));
        run.start();
        sys.eq().runAll();
        Cycle dur = end - start;
        EXPECT_GE(dur, 500u);  // clamp floor 0.5x
        EXPECT_LE(dur, 1800u); // clamp ceiling 1.8x
    }
}
