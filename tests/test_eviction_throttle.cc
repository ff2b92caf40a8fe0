/** @file Tests for eviction policy, merging table, CAM and throttle. */

#include <vector>

#include <gtest/gtest.h>

#include "switchcompute/cam_table.hh"
#include "switchcompute/eviction.hh"
#include "switchcompute/throttle.hh"

using namespace cais;

TEST(CamTable, LookupInsertErase)
{
    CamLookupTable cam;
    EXPECT_EQ(cam.lookup(0x1000, true), CamLookupTable::noSlot);
    cam.insert(0x1000, true, 3);
    cam.insert(0x1000, false, 5); // same addr, other type
    EXPECT_EQ(cam.lookup(0x1000, true), 3);
    EXPECT_EQ(cam.lookup(0x1000, false), 5);
    cam.erase(0x1000, true);
    EXPECT_EQ(cam.lookup(0x1000, true), CamLookupTable::noSlot);
    EXPECT_EQ(cam.size(), 1u);
}

TEST(CamTableDeathTest, DuplicateInsertPanics)
{
    CamLookupTable cam;
    cam.insert(0x10, true, 0);
    EXPECT_DEATH(cam.insert(0x10, true, 1), "duplicate");
}

TEST(MergingTable, CapacityInEntries)
{
    MergingTable tbl(3 * 4096, 4096);
    EXPECT_EQ(tbl.capacityEntries(), 3u);
    EXPECT_NE(tbl.allocate(1 << 12, true), nullptr);
    EXPECT_NE(tbl.allocate(2 << 12, true), nullptr);
    EXPECT_NE(tbl.allocate(3 << 12, false), nullptr);
    EXPECT_TRUE(tbl.full());
    EXPECT_EQ(tbl.allocate(4 << 12, true), nullptr);
}

TEST(MergingTable, ReleaseRecyclesSlots)
{
    MergingTable tbl(2 * 4096, 4096);
    MergeEntry *a = tbl.allocate(0x1000, true);
    tbl.allocate(0x2000, true);
    EXPECT_TRUE(tbl.full());
    tbl.release(a);
    EXPECT_FALSE(tbl.full());
    EXPECT_EQ(tbl.liveEntries(), 1u);
    EXPECT_NE(tbl.allocate(0x3000, false), nullptr);
    EXPECT_EQ(tbl.peakEntries(), 2u);
}

TEST(MergingTable, UnboundedNeverFull)
{
    MergingTable tbl(0, 4096);
    for (int i = 0; i < 1000; ++i)
        ASSERT_NE(tbl.allocate(static_cast<Addr>(i) << 12, false),
                  nullptr);
    EXPECT_FALSE(tbl.full());
    EXPECT_EQ(tbl.peakBytes(), 1000u * 4096u);
}

TEST(MergingTable, StorageIsBackedOnFirstSessionAndNeverMoves)
{
    MergingTable tbl(8 * 4096, 4096);
    EXPECT_EQ(tbl.storageEntries(), 0u); // nothing until a session opens
    std::vector<MergeEntry *> entries;
    for (int i = 0; i < 8; ++i) {
        const Addr addr = static_cast<Addr>(i + 1) << 12;
        entries.push_back(tbl.allocate(addr, i % 2 == 0));
        ASSERT_NE(entries.back(), nullptr);
        EXPECT_EQ(tbl.storageEntries(), 8u);
    }
    EXPECT_TRUE(tbl.full());
    // Filling to capacity moved no earlier entry.
    for (int i = 0; i < 8; ++i) {
        const Addr addr = static_cast<Addr>(i + 1) << 12;
        EXPECT_EQ(tbl.find(addr, i % 2 == 0), entries[i]);
        EXPECT_EQ(entries[i]->addr, addr);
    }
    // A recycled slot reuses the same storage.
    tbl.release(entries[3]);
    EXPECT_EQ(tbl.allocate(0x100000, false), entries[3]);
    EXPECT_EQ(tbl.storageEntries(), 8u);

    MergingTable unbounded(0, 4096);
    EXPECT_EQ(unbounded.storageEntries(), 0u);
}

TEST(EvictionPolicy, PicksLruAmongEvictable)
{
    // Bounded table: slots are reserved at the first allocation, so
    // entry pointers stay valid across allocations.
    MergingTable tbl(16 * 4096, 4096);
    EvictionPolicy pol(1000);

    MergeEntry *a = tbl.allocate(0x1000, false);
    a->lastAccess = 100;
    MergeEntry *b = tbl.allocate(0x2000, false);
    b->lastAccess = 50;
    MergeEntry *c = tbl.allocate(0x3000, true); // loadWait: protected
    c->lastAccess = 10;

    EXPECT_EQ(pol.pickLruVictim(tbl), b);
    b->lastAccess = 200;
    EXPECT_EQ(pol.pickLruVictim(tbl), a);
}

TEST(EvictionPolicy, LoadWaitNeverEvicted)
{
    MergingTable tbl(16 * 4096, 4096);
    EvictionPolicy pol(1000);
    tbl.allocate(0x1000, true); // loadWait
    EXPECT_EQ(pol.pickLruVictim(tbl), nullptr);
    EXPECT_TRUE(pol.expired(tbl, 1u << 20).empty());
}

TEST(EvictionPolicy, TimeoutCollectsStaleSessions)
{
    MergingTable tbl(16 * 4096, 4096);
    EvictionPolicy pol(1000);
    MergeEntry *a = tbl.allocate(0x1000, false);
    a->lastAccess = 0;
    MergeEntry *b = tbl.allocate(0x2000, false);
    b->lastAccess = 900;
    auto victims = pol.expired(tbl, 1500);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], a);
}

TEST(Throttle, HintsWhenGpuRunsAhead)
{
    ThrottleController tc(4, 3, 2000, 100);
    std::vector<GpuId> hinted;

    // GPU 0 opens 4 unmatched contributions in group 1.
    for (int i = 0; i < 4; ++i)
        if (tc.onContribution(1, 0, static_cast<Cycle>(i) * 200))
            hinted.push_back(0);
    EXPECT_EQ(tc.pause(), 2000u);
    EXPECT_EQ(tc.hintsSent(), 1u);
    ASSERT_EQ(hinted.size(), 1u);
    EXPECT_EQ(hinted[0], 0);
    EXPECT_EQ(tc.unmatched(1, 0), 4);
}

TEST(Throttle, SessionCloseDecrementsContributors)
{
    ThrottleController tc(4, 100, 2000, 100);
    tc.onContribution(2, 0, 0);
    tc.onContribution(2, 1, 0);
    EXPECT_EQ(tc.unmatched(2, 0), 1);
    NodeMask closed;
    closed.set(0);
    closed.set(1);
    tc.onSessionClose(2, closed);
    EXPECT_EQ(tc.unmatched(2, 0), 0);
    EXPECT_EQ(tc.unmatched(2, 1), 0);
}

TEST(Throttle, HintIntervalRateLimits)
{
    ThrottleController tc(2, 1, 500, 1000);
    int hints = 0;
    for (int i = 0; i < 10; ++i)
        hints += tc.onContribution(0, 0, 100 + static_cast<Cycle>(i));
    EXPECT_EQ(hints, 1); // within one interval
    hints += tc.onContribution(0, 0, 5000);
    EXPECT_EQ(hints, 2);
}

TEST(Throttle, IgnoresUngroupedTraffic)
{
    ThrottleController tc(2, 1, 500, 10);
    int hints = 0;
    for (int i = 0; i < 10; ++i)
        hints += tc.onContribution(invalidId, 0,
                                   static_cast<Cycle>(i) * 100);
    EXPECT_EQ(hints, 0);
}
