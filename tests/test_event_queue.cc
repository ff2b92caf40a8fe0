/** @file Unit tests for the discrete-event simulation core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "common/event_queue.hh"
#include "sorted_event_model.hh"

using namespace cais;

namespace
{

/** Counts destructor runs to verify InlineEvent lifetime handling. */
struct DtorCounter
{
    int *count;
    explicit DtorCounter(int *c) : count(c) {}
    DtorCounter(DtorCounter &&o) noexcept : count(o.count)
    {
        o.count = nullptr;
    }
    DtorCounter &operator=(DtorCounter &&) = delete;
    ~DtorCounter()
    {
        if (count)
            ++*count;
    }
    void operator()() const {}
};

} // namespace

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleFurtherEvents)
{
    EventQueue eq;
    int hits = 0;
    std::function<void()> chain = [&] {
        ++hits;
        if (hits < 10)
            eq.scheduleAfter(5, chain);
    };
    eq.schedule(0, chain);
    eq.runAll();
    EXPECT_EQ(hits, 10);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int hits = 0;
    for (Cycle t = 0; t < 100; t += 10)
        eq.schedule(t, [&] { ++hits; });
    std::uint64_t n = eq.runUntil(45);
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(eq.size(), 5u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, RunAllHonorsEventBudget)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.scheduleAfter(1, forever); };
    eq.schedule(0, forever);
    std::uint64_t n = eq.runAll(1000);
    EXPECT_EQ(n, 1000u);
}

TEST(EventQueue, ResetClearsStateAndTime)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// ---------------------------------------------------------------------
// Equivalence with a sorted (when, seq) reference model, and boundary
// behavior of the near ring / far heap split.
// ---------------------------------------------------------------------

namespace
{

/** Execution order of a random schedule on @p Queue. */
template <class Queue>
std::vector<int>
runRandomSchedule(unsigned seed)
{
    Queue eq;
    std::vector<int> order;
    std::mt19937 rng(seed);
    // Mixed same-cycle bursts, in-window deltas, and far-heap deltas.
    std::uniform_int_distribution<Cycle> delta(0, 3 * EventQueue::nearWindow);
    int id = 0;
    for (int i = 0; i < 64; ++i)
        eq.schedule(delta(rng), [&order, tag = id++] {
            order.push_back(tag);
        });
    // Self-scheduling events interleave with the static batch.
    int hops = 0;
    std::function<void()> chain = [&] {
        order.push_back(1000 + hops);
        if (++hops < 256)
            eq.scheduleAfter(1 + static_cast<Cycle>(hops % 97), chain);
    };
    eq.schedule(0, chain);
    eq.runAll();
    return order;
}

} // namespace

/** The two schedulers: the bucketed EventQueue and the sorted model. */
TEST(EventQueue, SchedulerKindsAgreeOnRandomSchedule)
{
    for (unsigned seed : {1u, 2u, 42u}) {
        auto bucketed = runRandomSchedule<EventQueue>(seed);
        auto model = runRandomSchedule<test::SortedEventModel>(seed);
        EXPECT_EQ(bucketed, model) << "seed " << seed;
    }
}

TEST(EventQueue, SameCycleFifoAcrossBucketAndHeap)
{
    // Events landing on one cycle run in insertion order even when
    // some were scheduled via the near ring and some via the far
    // heap (scheduled before time advanced into the window).
    EventQueue eq;
    std::vector<int> order;
    const Cycle target = 2 * EventQueue::nearWindow;
    eq.schedule(target, [&] { order.push_back(0); });            // far heap
    eq.schedule(target - 10, [&] {                               // far heap
        eq.scheduleAfter(10, [&] { order.push_back(1); });       // near ring
        eq.schedule(target, [&] { order.push_back(2); });        // near ring
    });
    eq.schedule(target, [&] { order.push_back(3); });            // far heap
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueue, BucketWindowBoundaryCrossing)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    auto hit = [&] { fired.push_back(eq.now()); };
    // Straddle the near-window edge: in-window, last in-window
    // cycle, first out-of-window cycle, and far beyond.
    eq.schedule(EventQueue::nearWindow - 1, hit);
    eq.schedule(EventQueue::nearWindow, hit);
    eq.schedule(EventQueue::nearWindow + 1, hit);
    eq.schedule(10 * EventQueue::nearWindow, hit);
    eq.runAll();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{EventQueue::nearWindow - 1,
                                  EventQueue::nearWindow,
                                  EventQueue::nearWindow + 1,
                                  10 * EventQueue::nearWindow}));
}

TEST(EventQueue, RunUntilLeavesFarEventsPending)
{
    EventQueue eq;
    int near_hits = 0, far_hits = 0;
    eq.schedule(100, [&] { ++near_hits; });
    eq.schedule(5 * EventQueue::nearWindow, [&] { ++far_hits; });
    eq.runUntil(200);
    EXPECT_EQ(near_hits, 1);
    EXPECT_EQ(far_hits, 0);
    EXPECT_EQ(eq.now(), 200u);
    EXPECT_EQ(eq.size(), 1u);
    eq.runAll();
    EXPECT_EQ(far_hits, 1);
}

TEST(EventQueue, ResetReproducesTieBreaks)
{
    EventQueue eq;
    auto run = [&] {
        std::vector<int> order;
        for (int i = 0; i < 4; ++i)
            eq.schedule(5, [&order, i] { order.push_back(i); });
        eq.schedule(2 * EventQueue::nearWindow,
                    [&order] { order.push_back(99); });
        eq.runAll();
        return order;
    };
    auto first = run();
    eq.reset();
    EXPECT_EQ(eq.executed(), 0u);
    auto second = run();
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// Chunked bucket FIFOs: in-place execution, lifetime, occupancy.
// ---------------------------------------------------------------------

TEST(EventQueue, SameCycleBurstSpanningChunksRunsInSeqOrder)
{
    // A callback appends more than two chunks' worth of events to its
    // own bucket while it runs from that bucket's head chunk: as the
    // bucket's only event, as the last entry of a full chunk, and
    // with a same-cycle event queued behind it. Its chunk must stay
    // out of the pool until it returns.
    const int burst = static_cast<int>(2 * EventQueue::chunkEntries + 3);
    const int fullChunk = static_cast<int>(EventQueue::chunkEntries);
    struct Case
    {
        int before;
        bool behind;
    };
    for (Case c : {Case{0, false}, Case{fullChunk - 1, false},
                   Case{1, true}}) {
        EventQueue eq;
        std::vector<int> order;
        bool captureIntact = false;
        struct Blob
        {
            unsigned char bytes[64];
        } blob;
        for (int i = 0; i < 64; ++i)
            blob.bytes[i] = static_cast<unsigned char>(i * 7 + 1);
        for (int i = 0; i < c.before; ++i)
            eq.schedule(5, [&order, i] { order.push_back(100 + i); });
        eq.schedule(5, [&, blob] {
            order.push_back(-1);
            for (int i = 0; i < burst; ++i)
                eq.schedule(5, [&order, i] { order.push_back(i); });
            captureIntact = true;
            for (int i = 0; i < 64; ++i)
                captureIntact = captureIntact &&
                                blob.bytes[i] ==
                                    static_cast<unsigned char>(i * 7 + 1);
        });
        if (c.behind)
            eq.schedule(5, [&] { order.push_back(-2); });
        eq.runAll();
        std::vector<int> expect;
        for (int i = 0; i < c.before; ++i)
            expect.push_back(100 + i);
        expect.push_back(-1);
        if (c.behind)
            expect.push_back(-2);
        for (int i = 0; i < burst; ++i)
            expect.push_back(i);
        EXPECT_EQ(order, expect) << "before=" << c.before;
        EXPECT_TRUE(captureIntact) << "before=" << c.before;
        EXPECT_EQ(eq.now(), 5u);
        EXPECT_TRUE(eq.empty());
    }
}

TEST(EventQueue, ResetDestroysEveryPendingCaptureOnce)
{
    EventQueue eq;
    int dtors = 0;
    int scheduled = 0;
    // Three multi-chunk buckets plus far-heap events.
    for (Cycle when : {Cycle{3}, Cycle{10}, Cycle{11}})
        for (std::size_t i = 0; i < 3 * EventQueue::chunkEntries + 1;
             ++i, ++scheduled)
            eq.schedule(when, DtorCounter(&dtors));
    for (int i = 0; i < 5; ++i, ++scheduled)
        eq.schedule(3 * EventQueue::nearWindow + i, DtorCounter(&dtors));
    // Leave bucket 3's head chunk partly consumed.
    ASSERT_TRUE(eq.runOne());
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(dtors, 2); // each ran capture is destroyed after it runs
    eq.reset();
    EXPECT_EQ(dtors, scheduled);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.chunkPoolSize(), 0u);

    // The queue is usable again, and its destructor frees the rest.
    {
        EventQueue again;
        for (int i = 0; i < 9; ++i)
            again.schedule(static_cast<Cycle>(i % 2), DtorCounter(&dtors));
        again.schedule(2 * EventQueue::nearWindow, DtorCounter(&dtors));
        again.runOne();
    }
    EXPECT_EQ(dtors, scheduled + 10);
    int hits = 0;
    eq.schedule(1, [&] { ++hits; });
    eq.runAll();
    EXPECT_EQ(hits, 1);
}

namespace
{

/**
 * Execution order of a schedule that keeps more than 100k events
 * pending: a static batch with many same-cycle ties (a few hundred
 * distinct cycles), in-window and far deltas, and events that
 * reschedule follow-ups while the set is full.
 */
template <class Queue>
std::vector<std::uint32_t>
runHighOccupancySchedule(unsigned seed)
{
    Queue eq;
    std::vector<std::uint32_t> order;
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> kind(0, 9);
    std::uniform_int_distribution<Cycle> tie(0, 300);
    std::uniform_int_distribution<Cycle> window(0, EventQueue::nearWindow - 1);
    std::uniform_int_distribution<Cycle> far(EventQueue::nearWindow,
                                             4 * EventQueue::nearWindow);
    auto delta = [&] {
        int k = kind(rng);
        return k < 6 ? tie(rng) : k < 9 ? window(rng) : far(rng);
    };
    std::uint32_t next = 0;
    std::function<void(std::uint32_t)> add = [&](std::uint32_t depth) {
        eq.scheduleAfter(delta(), [&, tag = next++, depth] {
            order.push_back(tag);
            if (depth > 0)
                add(depth - 1);
        });
    };
    for (int i = 0; i < 110000; ++i)
        add(i % 4 == 0 ? 2 : 0);
    eq.runAll();
    return order;
}

} // namespace

TEST(EventQueue, MatchesSortedModelAtHighOccupancy)
{
    for (unsigned seed : {3u, 17u}) {
        auto bucketed = runHighOccupancySchedule<EventQueue>(seed);
        auto model = runHighOccupancySchedule<test::SortedEventModel>(seed);
        ASSERT_EQ(bucketed.size(), model.size());
        EXPECT_GT(bucketed.size(), 160000u);
        EXPECT_TRUE(bucketed == model) << "seed " << seed;
    }
}

namespace
{

/**
 * Execution order of a schedule whose callbacks append same-cycle
 * events while their bucket drains: cycle 5 starts with three events
 * (one short of a chunk), and each appends two more at cycle 5 and
 * one at cycle 6, so the bucket crosses several 4-entry chunk
 * boundaries mid-drain; a far event and a later cycle interleave.
 */
template <class Queue>
std::vector<int>
runSameCycleAppends()
{
    Queue eq;
    std::vector<int> order;
    int next = 0;
    std::function<void(int)> add = [&](int depth) {
        eq.schedule(5, [&, tag = next++, depth] {
            order.push_back(tag);
            if (depth == 0)
                return;
            add(depth - 1);
            eq.scheduleAfter(1, [&order, tag] {
                order.push_back(1000 + tag);
            });
            add(depth - 1);
        });
    };
    for (int i = 0; i < 3; ++i)
        add(3);
    eq.schedule(6, [&order] { order.push_back(-6); });
    eq.schedule(2 * EventQueue::nearWindow,
                [&order] { order.push_back(-9); });
    eq.runAll();
    return order;
}

/** (tag, now, executed) of every event of a mixed schedule. */
struct TraceRow
{
    int tag;
    Cycle now;
    std::uint64_t executed;
    bool operator==(const TraceRow &) const = default;
};

/**
 * Seed @p eq with same-cycle bursts (two of them past a chunk),
 * events that append to their own cycle and the next, and a far
 * event; every event logs a TraceRow to @p trace.
 */
void
seedMixedSchedule(EventQueue &eq, std::vector<TraceRow> &trace)
{
    auto log = [&eq, &trace](int tag) {
        trace.push_back({tag, eq.now(), eq.executed()});
    };
    for (int i = 0; i < 10; ++i)
        eq.schedule(3, [&eq, log, i] {
            log(i);
            if (i % 3 == 0)
                eq.scheduleAfter(0, [log, i] { log(100 + i); });
            eq.scheduleAfter(2, [log, i] { log(200 + i); });
        });
    for (int i = 0; i < 6; ++i)
        eq.schedule(4, [log, i] { log(300 + i); });
    eq.schedule(EventQueue::nearWindow + 3, [log] { log(400); });
}

} // namespace

TEST(EventQueue, SameCycleAppendsAcrossChunksMatchSortedModel)
{
    auto bucketed = runSameCycleAppends<EventQueue>();
    auto model = runSameCycleAppends<test::SortedEventModel>();
    EXPECT_GT(bucketed.size(), 4 * EventQueue::chunkEntries);
    EXPECT_EQ(bucketed, model);
}

TEST(EventQueue, BudgetStopMidBucketResumesLikeOneRun)
{
    std::vector<TraceRow> whole;
    EventQueue once;
    seedMixedSchedule(once, whole);
    const std::uint64_t total = once.runAll();

    // Budgets that stop inside the cycle-3 burst, on a chunk edge and
    // one event at a time.
    for (std::uint64_t k : {1ull, 3ull, 4ull, 7ull}) {
        std::vector<TraceRow> pieces;
        EventQueue eq;
        seedMixedSchedule(eq, pieces);
        std::uint64_t ran = 0;
        while (!eq.empty()) {
            const std::uint64_t n = eq.runAll(k);
            ASSERT_LE(n, k);
            ran += n;
            // A stop leaves time at the cycle of the last event run.
            EXPECT_EQ(eq.now(), pieces.back().now) << "k=" << k;
            EXPECT_EQ(eq.executed(), ran) << "k=" << k;
        }
        EXPECT_EQ(ran, total) << "k=" << k;
        EXPECT_EQ(pieces, whole) << "k=" << k;
        EXPECT_EQ(eq.executed(), once.executed()) << "k=" << k;
        EXPECT_EQ(eq.now(), once.now()) << "k=" << k;
    }
}

TEST(EventQueue, ObserverFiresOncePerSamplePointBeforeItsCycle)
{
    // Bursts on sample points (10, 20), between them, a gap that
    // skips two sample points (30, 40 fire before the event at 45),
    // and a far event; same-cycle appends on a sample point too.
    EventQueue eq;
    std::vector<Cycle> eventAt;
    struct Sample
    {
        Cycle at;
        Cycle now;
        std::uint64_t executed;
    };
    std::vector<Sample> samples;
    eq.setPeriodicObserver(10, [&](Cycle at) {
        samples.push_back({at, eq.now(), eq.executed()});
    });
    auto hit = [&] { eventAt.push_back(eq.now()); };
    for (Cycle t : {Cycle{3}, Cycle{10}, Cycle{10}, Cycle{10}, Cycle{10},
                    Cycle{10}, Cycle{15}, Cycle{20}, Cycle{45}})
        eq.schedule(t, hit);
    eq.schedule(20, [&] {
        hit();
        for (int i = 0; i < 5; ++i)
            eq.scheduleAfter(0, hit);
    });
    const Cycle far = EventQueue::nearWindow + 5;
    eq.schedule(far, hit);
    eq.runAll();

    std::vector<Cycle> points;
    for (Cycle p = 10; p <= far; p += 10)
        points.push_back(p);
    ASSERT_EQ(samples.size(), points.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].at, points[i]);
        // Fired before the first event at or after the sample point:
        // exactly the events of earlier cycles have run.
        const auto before = static_cast<std::uint64_t>(std::count_if(
            eventAt.begin(), eventAt.end(),
            [&](Cycle t) { return t < points[i]; }));
        EXPECT_EQ(samples[i].executed, before) << "sample " << points[i];
        EXPECT_LT(samples[i].now, points[i]);
    }
    EXPECT_EQ(eventAt.size(), 16u);
}

TEST(EventQueue, RedrainingSameScheduleDoesNotGrowChunkPool)
{
    EventQueue eq;
    EXPECT_EQ(eq.chunkPoolSize(), 0u); // nothing before the first schedule
    auto fill = [&] {
        // ~60k pending events over 500 cycles, rescheduling once each.
        for (int i = 0; i < 60000; ++i)
            eq.scheduleAfter(static_cast<Cycle>(i % 500), [&eq, i] {
                eq.scheduleAfter(static_cast<Cycle>(250 + i % 7), [] {});
            });
        eq.runAll();
    };
    fill();
    std::size_t pool = eq.chunkPoolSize();
    EXPECT_GE(pool * EventQueue::chunkEntries, 60000u);
    fill();
    EXPECT_EQ(eq.chunkPoolSize(), pool);
    EXPECT_EQ(eq.executed(), 240000u);
}

TEST(EventQueue, PeakPendingCountsNearAndFarEvents)
{
    EventQueue eq;
    EXPECT_EQ(eq.peakPending(), 0u);
    eq.schedule(1, [] {});
    eq.schedule(1, [] {});
    eq.schedule(2, [&eq] {
        // Four pending after this burst: 3 near + the far one.
        for (int i = 0; i < 3; ++i)
            eq.scheduleAfter(1, [] {});
    });
    eq.schedule(5 * EventQueue::nearWindow, [] {});
    EXPECT_EQ(eq.peakPending(), 4u);
    eq.runUntil(1);
    EXPECT_EQ(eq.size(), 2u);
    eq.runAll();
    EXPECT_EQ(eq.peakPending(), 4u);
    eq.schedule(eq.now() + 1, [] {});
    EXPECT_EQ(eq.peakPending(), 4u);
    for (int i = 0; i < 4; ++i)
        eq.schedule(eq.now() + 10 * EventQueue::nearWindow, [] {});
    EXPECT_EQ(eq.peakPending(), 5u);
    eq.reset();
    EXPECT_EQ(eq.peakPending(), 0u);
}

// ---------------------------------------------------------------------
// InlineEvent: allocation-free move-only callback storage.
// ---------------------------------------------------------------------

TEST(InlineEvent, InvokesStoredCallable)
{
    int hits = 0;
    InlineEvent ev([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(ev));
    ev();
    EXPECT_EQ(hits, 1);
}

TEST(InlineEvent, DefaultConstructedIsEmpty)
{
    InlineEvent ev;
    EXPECT_FALSE(static_cast<bool>(ev));
}

TEST(InlineEvent, MoveTransfersCallableAndEmptiesSource)
{
    int hits = 0;
    InlineEvent a([&hits] { ++hits; });
    InlineEvent b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineEvent, DestroysStoredCallableExactlyOnce)
{
    int dtors = 0;
    {
        InlineEvent ev{DtorCounter(&dtors)};
        InlineEvent moved(std::move(ev));
        EXPECT_EQ(dtors, 0); // moved-from shells don't count
    }
    EXPECT_EQ(dtors, 1);
}

TEST(InlineEvent, RunningDestroysTheCaptureOnce)
{
    int dtors = 0;
    {
        InlineEvent ev{DtorCounter(&dtors)};
        ev();
        EXPECT_EQ(dtors, 1);
        EXPECT_FALSE(static_cast<bool>(ev));
        InlineEvent moved(std::move(ev));
        EXPECT_FALSE(static_cast<bool>(moved));
        EXPECT_EQ(dtors, 1);
    }
    EXPECT_EQ(dtors, 1);
}

TEST(InlineEvent, MoveAssignDestroysPreviousCallable)
{
    int first = 0, second = 0;
    InlineEvent ev{DtorCounter(&first)};
    ev = InlineEvent{DtorCounter(&second)};
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    ev = InlineEvent();
    EXPECT_EQ(second, 1);
}

TEST(InlineEvent, HoldsPacketSizedCaptureInline)
{
    // The whole point: a capture the size of a Packet plus routing
    // context must fit the inline buffer (compile-time checked by
    // the static_asserts in InlineEvent; exercised here at runtime).
    struct Big
    {
        unsigned char blob[96];
    } big = {};
    big.blob[95] = 7;
    int out = 0;
    InlineEvent ev([big, &out] { out = big.blob[95]; });
    ev();
    EXPECT_EQ(out, 7);
}

TEST(InlineEvent, SmallCaptureSharesTheThunksCacheLine)
{
    // The invoke/relocate thunks lead the entry, so a capture of up
    // to 48 bytes (a credit arrival or a drain wake is 16) shares
    // their cache line: running it touches one line, not two.
    struct Small48
    {
        std::vector<const void *> *where;
        unsigned char pad[40];
        void operator()() { where->push_back(this); }
    };
    static_assert(sizeof(Small48) == 48, "capture under test");

    std::vector<const void *> where;
    InlineEvent ev(Small48{&where, {}});
    ev();
    ASSERT_EQ(where.size(), 1u);
    auto off = static_cast<std::size_t>(
        static_cast<const char *>(where[0]) -
        reinterpret_cast<const char *>(&ev));
    EXPECT_EQ(off, sizeof(InlineEvent) - InlineEvent::inlineCapacity);
    EXPECT_LE(off + sizeof(Small48), 64u);

    // Queue entries start on a cache line, so every queued capture of
    // that size sits inside one line, across chunk boundaries too.
    where.clear();
    EventQueue eq;
    for (int i = 0; i < 3 * static_cast<int>(EventQueue::chunkEntries);
         ++i)
        eq.schedule(1 + static_cast<Cycle>(i % 2), Small48{&where, {}});
    eq.runAll();
    ASSERT_EQ(where.size(), 3 * EventQueue::chunkEntries);
    for (const void *w : where) {
        auto line_off = reinterpret_cast<std::uintptr_t>(w) % 64;
        EXPECT_LE(line_off + sizeof(Small48), 64u);
    }
}
