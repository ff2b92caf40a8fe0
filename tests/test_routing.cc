/** @file Tests for deterministic routing and round-robin arbitration. */

#include <cstdint>

#include <gtest/gtest.h>

#include "noc/arbiter.hh"
#include "noc/routing.hh"

using namespace cais;

TEST(Routing, DeterministicPerAddress)
{
    DeterministicRouting r(4, 4096);
    for (Addr a = 0; a < 100 * 4096; a += 4096)
        EXPECT_EQ(r.switchForAddr(a), r.switchForAddr(a));
}

TEST(Routing, SameChunkSameSwitch)
{
    // Addresses within one interleave unit converge on one switch —
    // the property that lets mergeable requests meet (Sec. III-A.5).
    DeterministicRouting r(4, 4096);
    Addr base = makeAddr(3, 1 << 20);
    SwitchId s = r.switchForAddr(base);
    for (Addr off = 0; off < 4096; off += 128)
        EXPECT_EQ(r.switchForAddr(base + off), s);
}

TEST(Routing, SpreadsAcrossSwitches)
{
    DeterministicRouting r(4, 4096);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i)
        ++counts[static_cast<std::size_t>(
            r.switchForAddr(static_cast<Addr>(i) * 4096))];
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(Routing, GroupRoutingInRangeAndDeterministic)
{
    DeterministicRouting r(4, 4096);
    for (GroupId g = 0; g < 1000; ++g) {
        SwitchId s = r.switchForGroup(g);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, 4);
        EXPECT_EQ(r.switchForGroup(g), s);
    }
}

TEST(Arbiter, RoundRobinFairness)
{
    RoundRobinArbiter arb(4);
    const std::uint64_t all_ready = 0xf;
    EXPECT_EQ(arb.pick(all_ready), 0);
    EXPECT_EQ(arb.pick(all_ready), 1);
    EXPECT_EQ(arb.pick(all_ready), 2);
    EXPECT_EQ(arb.pick(all_ready), 3);
    EXPECT_EQ(arb.pick(all_ready), 0);
}

TEST(Arbiter, SkipsNotReady)
{
    RoundRobinArbiter arb(4);
    const std::uint64_t only2 = 1u << 2;
    EXPECT_EQ(arb.pick(only2), 2);
    EXPECT_EQ(arb.pick(only2), 2);
    EXPECT_EQ(arb.pick(0), -1);
}

TEST(Arbiter, ResumesAfterLastGrant)
{
    RoundRobinArbiter arb(3);
    const std::uint64_t all = 0x7;
    EXPECT_EQ(arb.pick(all), 0);
    const std::uint64_t only0 = 1u;
    EXPECT_EQ(arb.pick(only0), 0);
    // After granting 0, input 1 has priority.
    EXPECT_EQ(arb.pick(all), 1);
}

TEST(Arbiter, IgnoresBitsBeyondInputs)
{
    RoundRobinArbiter arb(3);
    EXPECT_EQ(arb.pick(~std::uint64_t(0) << 3), -1);
    EXPECT_EQ(arb.pick(0xff), 0);
}

TEST(Arbiter, MaskPickMatchesPredicateLoopExhaustively)
{
    // Reference: the predicate scan the mask rotate replaced. For
    // every width, starting cursor and ready set, both must grant the
    // same input and leave the same cursor behind.
    for (int n = 1; n <= 8; ++n) {
        for (int cursor = 0; cursor < n; ++cursor) {
            for (std::uint64_t ready = 0; ready < (1u << n); ++ready) {
                RoundRobinArbiter arb(n);
                // Granting the input before the cursor moves it there.
                arb.pick(std::uint64_t(1) << ((cursor + n - 1) % n));
                ASSERT_EQ(arb.cursor(), cursor);

                int expect = -1;
                for (int i = 0; i < n; ++i) {
                    int idx = (cursor + i) % n;
                    if (ready & (std::uint64_t(1) << idx)) {
                        expect = idx;
                        break;
                    }
                }
                int expect_cursor =
                    expect < 0 ? cursor : (expect + 1) % n;
                ASSERT_EQ(arb.pick(ready), expect)
                    << "n=" << n << " cursor=" << cursor
                    << " ready=" << ready;
                ASSERT_EQ(arb.cursor(), expect_cursor);
            }
        }
    }
}

TEST(Arbiter, FullWidthMask)
{
    RoundRobinArbiter arb(RoundRobinArbiter::maxInputs);
    EXPECT_EQ(arb.pick(std::uint64_t(1) << 63), 63);
    EXPECT_EQ(arb.pick(~std::uint64_t(0)), 0);
    EXPECT_EQ(arb.pick(std::uint64_t(1) << 63), 63);
}
