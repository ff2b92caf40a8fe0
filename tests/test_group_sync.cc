/**
 * @file
 * Tests for the Group Sync Table (switch side) and the GPU-side
 * synchronizer handshake.
 */

#include <gtest/gtest.h>

#include <memory>

#include "switchcompute/switch_compute.hh"

using namespace cais;

namespace
{

struct SinkStub : public PacketSink
{
    std::vector<Packet> got;
    std::vector<Cycle> at;
    EventQueue *eq = nullptr;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        from->returnCredit(vc);
        got.push_back(pkt);
        at.push_back(eq->now());
    }
};

struct SyncRig
{
    PacketIdAllocator ids;
    PacketIdAllocator chipIds; ///< the chip's own packet-id source
    EventQueue eq;
    SwitchParams sp;
    std::unique_ptr<SwitchChip> sw;
    std::unique_ptr<SwitchComputeComplex> complex;
    std::vector<std::unique_ptr<CreditLink>> ups, downs;
    SinkStub gpus[4];

    SyncRig()
    {
        sw = std::make_unique<SwitchChip>(eq, chipIds, 0, 4, 4, sp);
        complex = std::make_unique<SwitchComputeComplex>(
            *sw, InSwitchParams{});
        for (GpuId g = 0; g < 4; ++g) {
            ups.push_back(std::make_unique<CreditLink>(
                eq, "up", 450.0, 250, sp.numVcs, 64, 10000));
            sw->attachUplink(g, ups.back().get());
            downs.push_back(std::make_unique<CreditLink>(
                eq, "dn", 450.0, 250, sp.numVcs, 64, 10000));
            sw->attachDownlink(g, downs.back().get());
            gpus[g].eq = &eq;
            downs.back()->setSink(&gpus[g]);
        }
    }

    void
    reg(GpuId g, GroupId grp, SyncPhase phase, int expected)
    {
        Packet p = makePacket(ids, PacketType::groupSyncReq, g, 4);
        p.group = grp;
        p.cookie = static_cast<std::uint64_t>(phase);
        p.expected = expected;
        p.issuerGpu = g;
        ups[static_cast<std::size_t>(g)]->send(std::move(p));
    }
};

} // namespace

TEST(GroupSyncTable, ReleasesWhenAllRegistered)
{
    SyncRig rig;
    for (GpuId g = 0; g < 4; ++g)
        rig.reg(g, 7, SyncPhase::preLaunch, 4);
    rig.eq.runAll();

    EXPECT_EQ(rig.complex->sync().releases(), 1u);
    EXPECT_EQ(rig.complex->sync().pendingGroups(), 0u);
    for (GpuId g = 0; g < 4; ++g) {
        ASSERT_EQ(rig.gpus[g].got.size(), 1u);
        EXPECT_EQ(rig.gpus[g].got[0].type,
                  PacketType::groupSyncRelease);
        EXPECT_EQ(rig.gpus[g].got[0].group, 7);
    }
}

TEST(GroupSyncTable, NoReleaseUntilLastGpu)
{
    SyncRig rig;
    for (GpuId g = 0; g < 3; ++g)
        rig.reg(g, 9, SyncPhase::preLaunch, 4);
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->sync().releases(), 0u);
    EXPECT_EQ(rig.complex->sync().pendingGroups(), 1u);

    rig.reg(3, 9, SyncPhase::preLaunch, 4);
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->sync().releases(), 1u);
}

TEST(GroupSyncTable, PhasesAreIndependentRendezvous)
{
    SyncRig rig;
    for (GpuId g = 0; g < 4; ++g)
        rig.reg(g, 3, SyncPhase::preLaunch, 4);
    // Pre-access for the same group with fewer participants (the
    // home GPU reads locally).
    for (GpuId g = 0; g < 3; ++g)
        rig.reg(g, 3, SyncPhase::preAccess, 3);
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->sync().releases(), 2u);
    // GPU 3 only sees the pre-launch release.
    EXPECT_EQ(rig.gpus[3].got.size(), 1u);
    EXPECT_EQ(rig.gpus[0].got.size(), 2u);
}

TEST(GroupSyncTable, DuplicateRegistrationCountedOnce)
{
    SyncRig rig;
    rig.reg(0, 5, SyncPhase::preLaunch, 2);
    rig.reg(0, 5, SyncPhase::preLaunch, 2);
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->sync().releases(), 0u);
    rig.reg(1, 5, SyncPhase::preLaunch, 2);
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->sync().releases(), 1u);
}

TEST(GroupSyncTable, RoundTripIsAboutOneMicrosecond)
{
    // Link latency 250 ns each way: registration + release should
    // cost ~0.5-1 us, the figure the paper quotes for the handshake.
    SyncRig rig;
    for (GpuId g = 0; g < 4; ++g)
        rig.reg(g, 11, SyncPhase::preLaunch, 4);
    rig.eq.runAll();
    ASSERT_FALSE(rig.gpus[0].at.empty());
    EXPECT_LE(rig.gpus[0].at[0], 1200u);
    EXPECT_GE(rig.gpus[0].at[0], 500u);
}

TEST(GroupSyncTable, WindowHistogramRecordsSpread)
{
    SyncRig rig;
    rig.reg(0, 13, SyncPhase::preLaunch, 2);
    rig.eq.runUntil(10000);
    rig.reg(1, 13, SyncPhase::preLaunch, 2);
    rig.eq.runAll();
    ASSERT_EQ(rig.complex->sync().windowHist().count(), 1u);
    EXPECT_NEAR(rig.complex->sync().windowHist().mean(), 10000.0,
                600.0);
}
