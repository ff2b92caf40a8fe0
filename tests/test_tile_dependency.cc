/** @file Tests for tile trackers and the address map. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataflow/tile_dependency.hh"
#include "fake_tb_listener.hh"

using namespace cais;
using cais::test::FakeTbListener;

TEST(TileTracker, ReadyAtNeedThreshold)
{
    TileTracker t("x", 2, 4, 1000);
    EXPECT_FALSE(t.ready(0, 0));
    t.contribute(0, 0, 999);
    EXPECT_FALSE(t.ready(0, 0));
    t.contribute(0, 0, 1);
    EXPECT_TRUE(t.ready(0, 0));
    EXPECT_FALSE(t.ready(1, 0)); // per-GPU readiness
}

TEST(TileTracker, WaitersFireOnceOnReadiness)
{
    TileTracker t("x", 1, 2, 100);
    FakeTbListener l;
    t.setListener(&l);
    int fired = 0;
    l.tileReady = [&](TbRecId) { ++fired; };
    t.waitFor(0, 1, 0);
    t.contribute(0, 1, 50);
    EXPECT_EQ(fired, 0);
    t.contribute(0, 1, 50);
    EXPECT_EQ(fired, 1);
    t.contribute(0, 1, 100); // over-contribution: no re-fire
    EXPECT_EQ(fired, 1);
}

TEST(TileTracker, ImmediateCallbackWhenAlreadyReady)
{
    TileTracker t("x", 1, 1, 10);
    FakeTbListener l;
    t.setListener(&l);
    t.contribute(0, 0, 10);
    int fired = 0;
    l.tileReady = [&](TbRecId) { ++fired; };
    t.waitFor(0, 0, 0);
    EXPECT_EQ(fired, 1);
}

// The event stream depends on the order waiters fire in: each one
// readies a TB, which queues for a slot in that order.

TEST(TileTracker, WaitersOnOneTileFireInRegistrationOrder)
{
    TileTracker t("x", 1, 2, 100);
    FakeTbListener l;
    t.setListener(&l);
    std::vector<TbRecId> order;
    l.tileReady = [&](TbRecId rec) { order.push_back(rec); };
    for (TbRecId rec : {5u, 3u, 9u})
        t.waitFor(0, 1, rec);
    t.contribute(0, 1, 100);
    EXPECT_EQ(order, (std::vector<TbRecId>{5, 3, 9}));
}

TEST(TileTracker, TileWaitersFireBeforeCompleteWaiter)
{
    TileTracker t("x", 1, 1, 100);
    FakeTbListener l;
    t.setListener(&l);
    std::vector<std::string> order;
    l.tileReady = [&](TbRecId rec) {
        order.push_back("tile " + std::to_string(rec));
    };
    l.trackerComplete = [&](KernelId k) {
        order.push_back("complete " + std::to_string(k));
    };
    t.waitComplete(7); // registered first, still fires last
    t.waitFor(0, 0, 1);
    t.contribute(0, 0, 100);
    EXPECT_EQ(order,
              (std::vector<std::string>{"tile 1", "complete 7"}));
}

TEST(TileTracker, WaitOnReadyTileFromFiringWaiterRunsImmediately)
{
    TileTracker t("x", 1, 2, 100);
    FakeTbListener l;
    t.setListener(&l);
    t.contribute(0, 0, 100);
    std::vector<int> order;
    l.tileReady = [&](TbRecId rec) {
        order.push_back(static_cast<int>(rec));
        if (rec == 1) {
            t.waitFor(0, 0, 2); // tile 0 is ready: fires right here
            order.push_back(-1);
        }
    };
    t.waitFor(0, 1, 1);
    t.waitFor(0, 1, 4);
    t.contribute(0, 1, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, -1, 4}));
}

TEST(TileTracker, CompletenessOverRelevantPairs)
{
    TileTracker t("rs", 4, 4, 100);
    // Shard-style relevance: tile t matters only at GPU t.
    const std::vector<int> one_tile_shards = {0, 1, 2, 3, 4};
    t.setRelevance(one_tile_shards);
    FakeTbListener l;
    t.setListener(&l);
    int complete = 0;
    l.trackerComplete = [&](KernelId) { ++complete; };
    t.waitComplete(0);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(complete, 0);
        t.contribute(i, i, 100);
    }
    EXPECT_EQ(complete, 1);
    EXPECT_TRUE(t.complete());
    EXPECT_DOUBLE_EQ(t.progress(), 1.0);
}

TEST(TileTracker, IrrelevantContributionsDontComplete)
{
    TileTracker t("rs", 2, 2, 100);
    const std::vector<int> one_tile_shards = {0, 1, 2}; // tile t at GPU t
    t.setRelevance(one_tile_shards);
    t.contribute(0, 1, 100); // irrelevant pair
    t.contribute(1, 0, 100); // irrelevant pair
    EXPECT_FALSE(t.complete());
    EXPECT_DOUBLE_EQ(t.progress(), 0.0);
}

TEST(TileTracker, ReductionSemanticsViaNeedFactor)
{
    // A reduction output needs G contributions of tile bytes.
    const std::uint64_t tile_bytes = 4096;
    TileTracker t("red", 1, 1, tile_bytes * 4);
    for (int c = 0; c < 3; ++c)
        t.contribute(0, 0, tile_bytes);
    EXPECT_FALSE(t.ready(0, 0));
    t.contribute(0, 0, tile_bytes);
    EXPECT_TRUE(t.ready(0, 0));
}

TEST(AddressMap, DispatchesToCoveringRange)
{
    TileTracker t("x", 2, 4, 4096);
    AddressMap m;
    m.addRange(0x10000, 4 * 4096, &t, 0, 4096);

    EXPECT_TRUE(m.dispatch(0, 0x10000, 4096, 0));
    EXPECT_TRUE(t.ready(0, 0));
    EXPECT_TRUE(m.dispatch(1, 0x10000 + 3 * 4096, 4096, 0));
    EXPECT_TRUE(t.ready(1, 3));
    EXPECT_FALSE(m.dispatch(0, 0x90000, 64, 0));
    EXPECT_EQ(m.unmatchedArrivals(), 1u);
}

TEST(AddressMap, ContribMultiplierScalesBytes)
{
    TileTracker t("red", 1, 1, 4 * 4096);
    AddressMap m;
    m.addRange(0x1000, 4096, &t, 0, 4096);
    // A merged write representing 4 contributions readies the tile.
    EXPECT_TRUE(m.dispatch(0, 0x1000, 4096, 4));
    EXPECT_TRUE(t.ready(0, 0));
}

TEST(AddressMap, PayloadSpanningTilesSplitsBytes)
{
    TileTracker t("x", 1, 2, 2048);
    AddressMap m;
    m.addRange(0, 2 * 2048, &t, 0, 2048);
    // 4096 bytes starting at offset 1024: 1024 into tile 0, 2048 into
    // tile 1 (clamped at range end).
    m.dispatch(0, 1024, 4096, 0);
    EXPECT_FALSE(t.ready(0, 0));
    EXPECT_TRUE(t.ready(0, 1));
    m.dispatch(0, 0, 1024, 0);
    EXPECT_TRUE(t.ready(0, 0));
}

TEST(AddressMap, MultipleRangesBinarySearch)
{
    TileTracker a("a", 1, 1, 64), b("b", 1, 1, 64);
    AddressMap m;
    m.addRange(0x2000, 64, &b, 0, 64);
    m.addRange(0x1000, 64, &a, 0, 64);
    EXPECT_TRUE(m.dispatch(0, 0x1000, 64, 0));
    EXPECT_TRUE(m.dispatch(0, 0x2000, 64, 0));
    EXPECT_TRUE(a.ready(0, 0));
    EXPECT_TRUE(b.ready(0, 0));
}
