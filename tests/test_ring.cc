/** @file Tests for the growable power-of-two ring buffer. */

#include <algorithm>
#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>

#include <gtest/gtest.h>

#include "common/ring.hh"
#include "noc/packet.hh"

using namespace cais;

TEST(Ring, StartsEmptyWithoutStorage)
{
    Ring<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.capacity(), 0u);
    r.push_back(1);
    EXPECT_EQ(r.capacity(), Ring<int>::initialCapacity);
}

TEST(Ring, FifoOrderAcrossWrapAndGrowth)
{
    // Drive the ring against std::deque with a push/pop mix that
    // wraps the head around the buffer before each growth step.
    Ring<int> r;
    std::deque<int> ref;
    int next = 0;
    for (int round = 0; round < 200; ++round) {
        int pushes = 1 + round % 7;
        int pops = round % 5;
        for (int i = 0; i < pushes; ++i) {
            r.push_back(next);
            ref.push_back(next);
            ++next;
        }
        for (int i = 0; i < pops && !ref.empty(); ++i) {
            ASSERT_EQ(r.front(), ref.front());
            r.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(r.size(), ref.size());
        ASSERT_FALSE(r.empty());
        EXPECT_EQ(r[r.size() - 1], ref.back());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(r[i], ref[i]);
        // Capacity stays a power of two.
        EXPECT_EQ(r.capacity() & (r.capacity() - 1), 0u);
    }
    while (!ref.empty()) {
        ASSERT_EQ(r.front(), ref.front());
        r.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, PushFrontAndInsertNearHead)
{
    Ring<int> r;
    for (int i = 0; i < 6; ++i)
        r.push_back(i);        // 0 1 2 3 4 5
    r.pop_front();             // 1 2 3 4 5 (head off slot 0)
    r.push_front(9);           // 9 1 2 3 4 5
    r.insert(3, 7);            // 9 1 2 7 3 4 5
    r.insert(r.size(), 8);     // ... 5 8
    r.insert(0, 6);            // 6 9 1 2 7 3 4 5 8
    const int want[] = {6, 9, 1, 2, 7, 3, 4, 5, 8};
    ASSERT_EQ(r.size(), std::size(want));
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], want[i]) << "at " << i;
}

TEST(Ring, InsertMatchesDequeInsert)
{
    // The hub's issue window inserts at min(window - 1, size).
    Ring<int> r;
    std::deque<int> ref;
    for (int i = 0; i < 300; ++i) {
        std::size_t pos = std::min<std::size_t>(7, ref.size());
        r.insert(pos, int(i));
        ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos), i);
        if (i % 3 == 0) {
            r.pop_front();
            ref.pop_front();
        }
    }
    ASSERT_EQ(r.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(r[i], ref[i]);
}

TEST(Ring, ShrinksAndReleasesBurstStorage)
{
    Ring<Packet> r;
    for (int i = 0; i < 100; ++i) {
        Packet p;
        p.id = static_cast<std::uint64_t>(i);
        r.push_back(std::move(p));
    }
    EXPECT_EQ(r.capacity(), 128u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front().id, static_cast<std::uint64_t>(i));
        r.pop_front();
        // A large buffer halves whenever it falls below a quarter
        // full, so it keeps tracking the occupancy.
        if (r.capacity() > Ring<Packet>::retainCapacity) {
            EXPECT_GE(r.size() * 4, r.capacity()) << "at " << i;
        }
    }
    EXPECT_LE(r.capacity(), Ring<Packet>::retainCapacity);

    // That small buffer survives, so a queue alternating between empty
    // and one element does not allocate per packet.
    std::size_t small = r.capacity();
    r.push_back(Packet{});
    r.pop_front();
    EXPECT_EQ(r.capacity(), small);
}

TEST(Ring, MoveOnlyPayloads)
{
    Ring<std::unique_ptr<int>> r;
    for (int i = 0; i < 20; ++i)
        r.push_back(std::make_unique<int>(i));
    r.insert(2, std::make_unique<int>(100));
    EXPECT_EQ(*r[2], 100);
    r.pop_front();
    std::unique_ptr<int> head = std::move(r.front());
    r.pop_front();
    EXPECT_EQ(*head, 1);

    Ring<std::unique_ptr<int>> moved(std::move(r));
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 0u);
    ASSERT_EQ(moved.size(), 19u);
    EXPECT_EQ(*moved.front(), 100);

    Ring<std::unique_ptr<int>> assigned;
    assigned.push_back(std::make_unique<int>(-1));
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 19u);
    EXPECT_EQ(*assigned[assigned.size() - 1], 19);
    // Remaining elements are destroyed with the ring (ASan checks
    // that nothing leaks or is freed twice).
}

TEST(Ring, DestructorDestroysEveryElement)
{
    auto token = std::make_shared<int>(0);
    {
        Ring<std::shared_ptr<int>> r;
        for (int i = 0; i < 13; ++i)
            r.push_back(token);
        EXPECT_EQ(token.use_count(), 14);
        r.pop_front();
        r.push_back(token); // wrapped: head is off slot 0
        EXPECT_EQ(token.use_count(), 14);
    }
    EXPECT_EQ(token.use_count(), 1);
}
