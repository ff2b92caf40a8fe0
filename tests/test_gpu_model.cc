/** @file Tests for GPU-side components: SM pool, scheduler, HBM,
 *  synchronizer, hub chunking, cost models. */

#include <gtest/gtest.h>

#include "fake_tb_listener.hh"
#include "common/rng.hh"
#include "gpu/gpu_core.hh"
#include "workload/gemm_model.hh"

using namespace cais;
using cais::test::FakeTbListener;

TEST(SmPool, AcquireReleaseAndPartition)
{
    EventQueue eq;
    SmPool pool(eq, 4, 2); // 8 slots
    EXPECT_EQ(pool.freeCount(), 8);

    // Restrict to the lower half: SMs 0-1 -> 4 slots.
    std::vector<int> slots;
    for (int i = 0; i < 4; ++i) {
        int s = pool.acquire(0.0, 0.5);
        ASSERT_GE(s, 0);
        slots.push_back(s);
    }
    EXPECT_EQ(pool.acquire(0.0, 0.5), -1);
    EXPECT_TRUE(pool.hasFree(0.5, 1.0));
    pool.release(slots[0]);
    EXPECT_GE(pool.acquire(0.0, 0.5), 0);
}

TEST(SmPool, UtilizationAccounting)
{
    EventQueue eq;
    SmPool pool(eq, 2, 1); // 2 slots
    int s = pool.acquire(0.0, 1.0);
    eq.schedule(100, [&] { pool.release(s); });
    eq.runAll();
    eq.runUntil(200);
    // One of two slots busy for 100 of 200 cycles -> 25%.
    EXPECT_NEAR(pool.utilization(200), 0.25, 1e-9);
}

TEST(SmPool, AcquireMatchesLinearScan)
{
    // Reference: the lowest free slot whose SM (slot % sms) lies in
    // [lo, hi), with an empty range widened to the one SM at lo.
    struct Scan
    {
        int sms;
        std::vector<bool> busy;

        int
        find(double from, double to) const
        {
            int lo = static_cast<int>(from * sms);
            int hi = static_cast<int>(to * sms);
            if (hi <= lo)
                hi = lo + 1;
            for (std::size_t slot = 0; slot < busy.size(); ++slot) {
                int sm = static_cast<int>(slot) % sms;
                if (sm >= lo && sm < hi && !busy[slot])
                    return static_cast<int>(slot);
            }
            return -1;
        }
    };
    const double fracs[] = {0.0, 0.25, 0.5, 0.8, 1.0};
    const std::pair<int, int> shapes[] = {{1, 1}, {3, 1}, {4, 2},
                                          {7, 3}, {66, 2}, {132, 4}};
    for (const auto &[sms, ctas] : shapes) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            EventQueue eq;
            SmPool pool(eq, sms, ctas);
            Scan ref{sms, std::vector<bool>(
                              static_cast<std::size_t>(sms * ctas))};
            std::vector<int> held;
            Rng rng(seed);
            for (int step = 0; step < 2000; ++step) {
                // Mostly the fractions the lowering uses; some random
                // ones, and to <= from for the widened range.
                auto frac = [&] {
                    return rng.uniform() < 0.7
                               ? fracs[rng.uniformInt(0, 4)]
                               : rng.uniform();
                };
                double from = frac(), to = frac();
                if (rng.uniform() < 0.1)
                    to = from;
                const std::string at = "sms=" + std::to_string(sms) +
                                       " seed=" + std::to_string(seed) +
                                       " step=" + std::to_string(step);
                if (!held.empty() && rng.uniform() < 0.45) {
                    std::size_t i = static_cast<std::size_t>(
                        rng.uniformInt(0, static_cast<std::int64_t>(
                                              held.size()) - 1));
                    pool.release(held[i]);
                    ref.busy[static_cast<std::size_t>(held[i])] = false;
                    held[i] = held.back();
                    held.pop_back();
                    continue;
                }
                int want = ref.find(from, to);
                ASSERT_EQ(pool.hasFree(from, to), want >= 0) << at;
                ASSERT_EQ(pool.acquire(from, to), want) << at;
                if (want >= 0) {
                    ref.busy[static_cast<std::size_t>(want)] = true;
                    held.push_back(want);
                }
                ASSERT_EQ(pool.freeCount(),
                          sms * ctas - static_cast<int>(held.size()))
                    << at;
            }
        }
    }
}

TEST(TbScheduler, DispatchesFifoWithinBucket)
{
    EventQueue eq;
    SmPool pool(eq, 1, 1); // single slot
    FakeTbListener l;
    TbScheduler sched(pool, &l);
    std::vector<int> order;
    l.slotGranted = [&](TbRecId rec, int slot) {
        order.push_back(static_cast<int>(rec));
        // Hold the slot; released below.
        eq.scheduleAfter(10, [&, slot] {
            pool.release(slot);
            sched.pump();
        });
    };
    for (TbRecId i = 0; i < 3; ++i)
        sched.enqueue(0.0, 1.0, 1, i);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TbScheduler, ReentrantEnqueueKeepsBucketFifo)
{
    // A grant that readies another TB enqueues from inside pump(): the
    // new TB joins the bucket's tail and is granted by the running
    // pump after the grant returns, never by a nested one.
    EventQueue eq;
    SmPool pool(eq, 3, 1);
    FakeTbListener l;
    TbScheduler sched(pool, &l);
    std::vector<int> held;
    for (int i = 0; i < 3; ++i)
        held.push_back(pool.acquire(0.0, 1.0));
    std::vector<int> order;
    l.slotGranted = [&](TbRecId rec, int) {
        order.push_back(static_cast<int>(rec));
        if (rec == 0) {
            sched.enqueue(0.0, 1.0, 1, 2);
            order.push_back(-1); // the nested enqueue returned
        }
    };
    sched.enqueue(0.0, 1.0, 1, 0);
    sched.enqueue(0.0, 1.0, 1, 1);
    for (int s : held)
        pool.release(s);
    sched.pump();
    EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2}));
}

TEST(TbScheduler, PriorityDispatchesCommFirst)
{
    EventQueue eq;
    SmPool pool(eq, 1, 1);
    FakeTbListener l;
    TbScheduler sched(pool, &l);
    // Occupy the slot so both queue up.
    int held = pool.acquire(0.0, 1.0);
    std::vector<std::string> order;
    l.slotGranted = [&](TbRecId rec, int) {
        order.push_back(rec == 0 ? "compute" : "comm");
    };
    sched.enqueue(0.0, 1.0, 1, 0);
    sched.enqueue(0.0, 1.0, 0, 1);
    pool.release(held);
    sched.pump();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], "comm");
}

TEST(TbScheduler, SpillsIntoIdlePartnerPartition)
{
    EventQueue eq;
    SmPool pool(eq, 4, 1);
    FakeTbListener l;
    TbScheduler sched(pool, &l);
    int dispatched = 0;
    l.slotGranted = [&](TbRecId, int) { ++dispatched; };
    // 4 TBs confined to the upper half (2 slots) spill into the idle
    // lower half under the work-conserving second pass.
    for (TbRecId i = 0; i < 4; ++i)
        sched.enqueue(0.5, 1.0, 1, i);
    EXPECT_EQ(dispatched, 4);
}

TEST(HbmModel, SerializesBandwidth)
{
    EventQueue eq;
    HbmModel hbm(eq, 100.0, 50);
    std::vector<Cycle> done;
    hbm.access(1000, [&] { done.push_back(eq.now()); }); // 10 cyc
    hbm.access(1000, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 60u);  // 10 + 50 latency
    EXPECT_EQ(done[1], 70u);  // starts at 10, +10 +50
    EXPECT_EQ(hbm.totalBytes(), 2000u);
}

TEST(GemmModel, TbCostScalesWithK)
{
    GpuParams gp;
    GemmTiling t;
    Cycle c1 = gemmTbCycles(gp, t, 1024);
    Cycle c2 = gemmTbCycles(gp, t, 2048);
    EXPECT_NEAR(static_cast<double>(c2) / static_cast<double>(c1),
                2.0, 0.01);
    // 2*128*128*2048 FLOP at ~4875 effective FLOP/cycle ~ 13.8 us.
    EXPECT_NEAR(static_cast<double>(c2), 13800.0, 600.0);
}

TEST(GemmModel, MemBoundCost)
{
    GpuParams gp;
    Cycle c = memBoundTbCycles(gp, 1 << 20, 2.0);
    EXPECT_GT(c, 1000u);
    EXPECT_LT(c, 20000u);
    EXPECT_GE(memBoundTbCycles(gp, 1, 1.0), 1u);
}

TEST(GpuParams, ValidationCatchesBadConfigs)
{
    GpuParams p;
    p.validate();
    EXPECT_EQ(fullScaleH100().numSms, 132);
    EXPECT_EQ(halfScaleH100().numSms, 66);
    GpuParams bad = p;
    bad.chunkBytes = 64;
    EXPECT_DEATH(bad.validate(), "128");
}

TEST(Kernel, HelpersAndValidation)
{
    KernelDesc k;
    k.name = "t";
    k.grids.resize(2);
    k.grids[0].add().computeCycles = 10;
    k.grids[0].add().computeCycles = 10;
    k.grids[1].add().computeCycles = 10;
    EXPECT_EQ(k.totalTbs(2), 3u);
    EXPECT_EQ(k.computeWork(0), 20u);
    k.validate(2);

    // One grid is every GPU's grid.
    k.grids.resize(1);
    EXPECT_EQ(k.totalTbs(4), 8u);
    EXPECT_EQ(&k.grid(3), &k.grids.front());
    EXPECT_EQ(k.computeWork(3), 20u);
    k.validate(4);

    EXPECT_TRUE(isPullKind(RemoteOpKind::caisLoad));
    EXPECT_TRUE(isPullKind(RemoteOpKind::nvlsLdReduce));
    EXPECT_FALSE(isPullKind(RemoteOpKind::caisRed));
    EXPECT_TRUE(isCaisKind(RemoteOpKind::caisRed));
    EXPECT_FALSE(isCaisKind(RemoteOpKind::plainWrite));
}

TEST(Kernel, TbGridSlicesItsFlatArrays)
{
    TbGrid grid;
    RemoteOp op;
    op.kind = RemoteOpKind::plainLoad;
    for (int i = 0; i < 3; ++i) {
        TbDesc &tb = grid.add();
        tb.producesTile = i;
        for (int j = 0; j < i; ++j) {
            op.base = static_cast<Addr>(16 * i + j);
            grid.addPull(op);
            grid.addDep(TileRef{0, i, j});
        }
    }
    op.kind = RemoteOpKind::plainWrite;
    grid.addPush(op); // extends the newest TB only

    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid.allPulls().size(), 3u);
    EXPECT_EQ(grid.allDeps().size(), 3u);
    for (int i = 0; i < 3; ++i) {
        const TbDesc &tb = grid.tbs[static_cast<std::size_t>(i)];
        auto pulls = grid.pullOps(tb);
        auto deps = grid.deps(tb);
        ASSERT_EQ(pulls.size(), static_cast<std::size_t>(i));
        ASSERT_EQ(deps.size(), static_cast<std::size_t>(i));
        for (int j = 0; j < i; ++j) {
            EXPECT_EQ(pulls[static_cast<std::size_t>(j)].base,
                      static_cast<Addr>(16 * i + j));
            EXPECT_EQ(deps[static_cast<std::size_t>(j)].atGpu, j);
        }
        EXPECT_EQ(grid.pushOps(tb).size(), i == 2 ? 1u : 0u);
    }
}

TEST(KernelDeathTest, ValidateRejectsPullKindInPushList)
{
    // The grid checks op kinds as they are added, so a wrong-kind op
    // never reaches validate.
    TbGrid grid;
    grid.add();
    RemoteOp op;
    op.kind = RemoteOpKind::caisLoad;
    EXPECT_DEATH(grid.addPush(op), "pull op in push list");
}

TEST(KernelDeathTest, ValidateRejectsPushKindInPullList)
{
    TbGrid grid;
    grid.add();
    RemoteOp op;
    op.kind = RemoteOpKind::plainWrite;
    EXPECT_DEATH(grid.addPull(op), "push op in pull list");
}

TEST(KernelDeathTest, ValidateRejectsGridCountNeitherOneNorGpuCount)
{
    KernelDesc k;
    k.name = "t";
    k.grids.resize(3);
    EXPECT_DEATH(k.validate(4),
                 "grid count 3 is neither 1 nor the GPU count 4");
}
