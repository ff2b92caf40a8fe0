/**
 * @file
 * Tests for the GPU hub through a real 2-GPU fabric: chunking, job
 * completion semantics, read service, write landing + tracking,
 * injection windows, the CAIS load cap, and throttle-hint pauses.
 */

#include <gtest/gtest.h>

#include "fake_tb_listener.hh"
#include "gpu/gpu_core.hh"
#include "runtime/system.hh"

using namespace cais;
using cais::test::FakeTbListener;

namespace
{

struct HubRig
{
    SystemConfig sc;
    std::unique_ptr<System> sys;

    explicit HubRig(int gpus = 2)
    {
        sc.fabric.numGpus = gpus;
        sc.fabric.numSwitches = 1;
        sc.gpu.numSms = 2;
        sc.gpu.jitterSigma = 0.0;
        sc.gpu.maxStartSkew = 0;
        sys = std::make_unique<System>(sc);
    }

    GpuHub &hub(GpuId g) { return sys->gpu(g).hub(); }
    EventQueue &eq() { return sys->eq(); }
};

/** A TB waiting on a pull job. It is never started, so the hub's
 *  onLoadsDone() only marks its loads done. */
struct LoadWaiter
{
    FakeTbListener listener;
    KernelDesc kernel;
    TbDesc tb; // no ops: its grid is never read
    std::unique_ptr<TbRun> run;

    explicit LoadWaiter(HubRig &rig)
    {
        TbRunContext ctx = rig.sys->gpu(0).tbContext(rig.sc.fabric.numGpus);
        ctx.listener = &listener;
        run = std::make_unique<TbRun>(ctx, 0, kernel, tb, 0, 0);
    }

    bool
    done() const
    {
        return run->stateStr().find("loads=1") != std::string::npos;
    }
};

/** Every chunk submitted to @p hub is on the wire. */
bool
allInjected(const GpuHub &hub)
{
    return hub.queuedJobs() == 0 && hub.inflight() == 0;
}

/** Responses and acks @p hub has received so far. */
std::uint64_t
responses(const GpuHub &hub)
{
    MetricRegistry reg;
    hub.registerMetrics(reg, "hub");
    return reg.snapshot().find("hub.responses")->u64;
}

} // namespace

TEST(Hub, ChunkifySplitsAtGranularity)
{
    HubRig rig;
    RemoteOp op;
    op.kind = RemoteOpKind::plainLoad;
    op.base = makeAddr(1, 0x1000);
    op.bytes = 3 * 4096 + 100;
    rig.hub(0).submit({.ops = {&op, 1}});
    // The window takes all four chunks at once: three full, one short.
    EXPECT_EQ(rig.hub(0).chunksInjected(), 4u);
    rig.eq().runAll();
    EXPECT_EQ(rig.hub(1).bytesServed(), 3u * 4096 + 100);
    EXPECT_EQ(responses(rig.hub(0)), 4u);
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, EmptyJobCompletesImmediately)
{
    HubRig rig;
    LoadWaiter waiter(rig);
    rig.hub(0).submit({.ops = {}, .waiter = waiter.run.get()});
    EXPECT_TRUE(allInjected(rig.hub(0)));
    EXPECT_TRUE(waiter.done());
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, MultiOpJobKeepsOpOrderAndSkipsEmptyOps)
{
    HubRig rig;
    LoadWaiter waiter(rig);
    RemoteOp ops[3];
    for (RemoteOp &op : ops)
        op.kind = RemoteOpKind::plainLoad;
    ops[0].base = makeAddr(1, 0x4000);
    ops[0].bytes = 5000;
    ops[1].base = makeAddr(1, 0x8000); // sends nothing
    ops[2].base = makeAddr(1, 0xc000);
    ops[2].bytes = 128;
    rig.hub(0).submit({.ops = ops, .waiter = waiter.run.get()});
    EXPECT_EQ(rig.hub(0).chunksInjected(), 3u);

    // The peer sees the chunks in op order, and the waiter fires at
    // the last response, when the job is freed.
    std::vector<std::uint64_t> served;
    std::uint64_t seen = 0;
    std::uint64_t responses_at_done = 0;
    while (rig.eq().runOne()) {
        if (rig.hub(1).bytesServed() > seen) {
            served.push_back(rig.hub(1).bytesServed() - seen);
            seen = rig.hub(1).bytesServed();
        }
        if (waiter.done() && responses_at_done == 0) {
            responses_at_done = responses(rig.hub(0));
            EXPECT_TRUE(rig.hub(0).idle());
        }
    }
    EXPECT_EQ(served, (std::vector<std::uint64_t>{4096, 904, 128}));
    EXPECT_EQ(responses_at_done, 3u);
    EXPECT_EQ(responses(rig.hub(0)), 3u);

    // A job whose ops are all empty finishes inside submit, like a
    // job with no ops.
    LoadWaiter empty_waiter(rig);
    RemoteOp empty_ops[2];
    empty_ops[0].kind = RemoteOpKind::caisLoad;
    empty_ops[1].kind = RemoteOpKind::plainWrite;
    rig.hub(0).submit({.ops = empty_ops, .waiter = empty_waiter.run.get()});
    EXPECT_TRUE(allInjected(rig.hub(0)));
    EXPECT_EQ(rig.hub(0).chunksInjected(), 3u);
    EXPECT_TRUE(empty_waiter.done());
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, PlainLoadRoundTrip)
{
    HubRig rig;
    LoadWaiter waiter(rig);
    RemoteOp op;
    op.kind = RemoteOpKind::plainLoad;
    op.base = makeAddr(1, 0x2000);
    op.bytes = 8192;
    rig.hub(0).submit({.ops = {&op, 1}, .waiter = waiter.run.get()});
    EXPECT_FALSE(waiter.done());
    rig.eq().runAll();
    EXPECT_TRUE(waiter.done());
    EXPECT_TRUE(rig.hub(0).idle());
    // The peer served the data from its HBM.
    EXPECT_EQ(rig.hub(1).bytesServed(), 8192u);
}

TEST(Hub, PlainWriteLandsAndTracks)
{
    HubRig rig;
    TensorInfo &t = rig.sys->defineTensor(
        "dst", TensorLayout::rowShardedHome, 2 * 128, 16, 2, 128, 1);
    // Tile 1 is homed on GPU 1; write it from GPU 0.
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    op.base = t.tileAddr(1);
    op.bytes = t.bytesPerTile;
    rig.hub(0).submit({.ops = {&op, 1}});
    rig.eq().runAll();
    EXPECT_TRUE(rig.sys->tracker(t.tracker).ready(1, 1));
    EXPECT_FALSE(rig.sys->tracker(t.tracker).ready(0, 1));
}

TEST(Hub, InjectionWindowBacklogsJobs)
{
    HubRig rig;
    // A burst far larger than the window queues but still drains.
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    op.base = makeAddr(1, 0x10000);
    op.bytes = static_cast<std::uint64_t>(
                   rig.sc.gpu.maxInflightChunks + 64) *
               4096;
    rig.hub(0).submit({.ops = {&op, 1}});
    // The window holds part of the burst back.
    EXPECT_FALSE(allInjected(rig.hub(0)));
    EXPECT_LE(rig.hub(0).inflight(), rig.sc.gpu.maxInflightChunks);
    rig.eq().runAll();
    EXPECT_TRUE(allInjected(rig.hub(0)));
    EXPECT_TRUE(rig.hub(0).idle());
}

TEST(Hub, CaisLoadCapLimitsOutstanding)
{
    HubRig rig;
    int cap = rig.sc.gpu.maxCaisLoadOutstanding;
    RemoteOp op;
    op.kind = RemoteOpKind::caisLoad;
    op.base = makeAddr(1, 0x20000);
    op.bytes = static_cast<std::uint64_t>(cap + 100) * 4096;
    op.expected = 1;
    LoadWaiter waiter(rig);
    rig.hub(0).submit(
        {.group = 1, .ops = {&op, 1}, .waiter = waiter.run.get()});
    // Before any response can arrive, at most `cap` loads are out.
    rig.eq().runUntil(100);
    EXPECT_LE(rig.hub(0).chunksInjected(),
              static_cast<std::uint64_t>(cap));
    rig.eq().runAll();
    EXPECT_TRUE(waiter.done());
}

TEST(Hub, CappedLoadsLetOtherKindsThrough)
{
    // While the CAIS-load cap holds, queued jobs whose next op is a
    // caisLoad wait, and a job queued behind them still sends the
    // write it starts with, then waits at its own caisLoad.
    HubRig rig;
    GpuHub &hub = rig.hub(0);
    const auto cap = static_cast<std::uint64_t>(
        rig.sc.gpu.maxCaisLoadOutstanding);
    const std::uint64_t chunk = rig.sc.gpu.chunkBytes;
    RemoteOp loads;
    loads.kind = RemoteOpKind::caisLoad;
    loads.base = makeAddr(1, 0x100000);
    loads.bytes = (cap + 100) * chunk;
    loads.expected = 1;
    LoadWaiter waiter(rig);
    hub.submit({.group = 1, .ops = {&loads, 1}, .waiter = waiter.run.get()});
    EXPECT_EQ(hub.chunksInjected(), cap);

    RemoteOp more = loads;
    more.base = makeAddr(1, 0x800000);
    more.bytes = 4 * chunk;
    LoadWaiter waiter2(rig);
    hub.submit({.group = 2, .ops = {&more, 1}, .waiter = waiter2.run.get()});
    EXPECT_EQ(hub.chunksInjected(), cap);

    RemoteOp mixed[2];
    mixed[0].kind = RemoteOpKind::plainWrite;
    mixed[0].base = makeAddr(1, 0x900000);
    mixed[0].bytes = 3 * chunk;
    mixed[1] = more;
    mixed[1].base = makeAddr(1, 0xa00000);
    mixed[1].bytes = 2 * chunk;
    LoadWaiter waiter3(rig);
    hub.submit({.group = 3, .ops = {mixed, 2}, .waiter = waiter3.run.get()});
    // No response is back before two link latencies; uplink dequeues
    // pump the write's chunks out meanwhile.
    rig.eq().runUntil(100);
    EXPECT_EQ(hub.chunksInjected(), cap + 3);
    EXPECT_EQ(hub.queuedJobs(), 3u);

    rig.eq().runAll();
    EXPECT_EQ(hub.chunksInjected(), cap + 100 + 4 + 3 + 2);
    EXPECT_TRUE(waiter.done());
    EXPECT_TRUE(waiter2.done());
    EXPECT_TRUE(waiter3.done());
    EXPECT_TRUE(hub.idle());
}

TEST(Hub, ThrottleHintPausesGroupTraffic)
{
    HubRig rig;
    GpuHub &hub = rig.hub(0);

    // Deliver a synthetic throttle hint for group 7, then submit
    // mergeable traffic of that group: it must not inject before the
    // pause deadline.
    PacketIdAllocator ids;
    Packet hint = makePacket(ids, PacketType::throttleHint, 2, 0);
    hint.group = 7;
    hint.cookie = 5000; // pause cycles
    rig.sys->fabric().switchChip(0).sendToGpu(std::move(hint));
    rig.eq().runUntil(2000);
    EXPECT_EQ(hub.throttlePauses(), 1u);

    RemoteOp op;
    op.kind = RemoteOpKind::caisRed;
    op.base = makeAddr(1, 0x30000);
    op.bytes = 4096;
    op.expected = 1;
    hub.submit({.group = 7, .ops = {&op, 1}});

    std::uint64_t before = hub.chunksInjected();
    rig.eq().runUntil(4000); // still inside the pause window
    EXPECT_EQ(hub.chunksInjected(), before);
    rig.eq().runAll();
    EXPECT_GT(hub.chunksInjected(), before);
}

TEST(Hub, SyncPacketsBypassTheWindow)
{
    HubRig rig;
    Synchronizer &sync = rig.sys->gpu(0).synchronizer();
    Synchronizer &sync1 = rig.sys->gpu(1).synchronizer();
    FakeTbListener l;
    sync.setListener(&l);
    sync1.setListener(&l);
    int released = 0;
    l.syncReleased = [&](TbRecId) { ++released; };
    sync.requestSync(42, SyncPhase::preLaunch, 2, 0);
    sync1.requestSync(42, SyncPhase::preLaunch, 2, 1);
    rig.eq().runAll();
    EXPECT_EQ(released, 2);
    EXPECT_EQ(sync.pendingCount(), 0u);
}
