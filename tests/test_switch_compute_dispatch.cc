/** @file Tests for the in-switch compute complex dispatch rules. */

#include <gtest/gtest.h>

#include <memory>

#include "switchcompute/switch_compute.hh"

using namespace cais;

namespace
{

struct DispatchRig
{
    PacketIdAllocator ids;
    PacketIdAllocator chipIds; ///< the chip's own packet-id source
    EventQueue eq;
    SwitchParams sp;
    std::unique_ptr<SwitchChip> sw;
    std::unique_ptr<SwitchComputeComplex> complex;

    DispatchRig()
    {
        sw = std::make_unique<SwitchChip>(eq, chipIds, 0, 4, 4, sp);
        complex = std::make_unique<SwitchComputeComplex>(
            *sw, InSwitchParams{});
    }
};

} // namespace

TEST(SwitchCompute, WantsInSwitchTrafficOnly)
{
    DispatchRig rig;
    const SwitchComputeComplex &c = *rig.complex;

    auto mk = [&](PacketType t, int dst) {
        Packet p = makePacket(rig.ids, t, 0, dst);
        return p;
    };

    EXPECT_TRUE(c.wants(mk(PacketType::multimemSt, 4)));
    EXPECT_TRUE(c.wants(mk(PacketType::multimemLdReduceReq, 4)));
    EXPECT_TRUE(c.wants(mk(PacketType::multimemRed, 4)));
    EXPECT_TRUE(c.wants(mk(PacketType::caisLoadReq, 4)));
    EXPECT_TRUE(c.wants(mk(PacketType::caisRedReq, 4)));
    EXPECT_TRUE(c.wants(mk(PacketType::groupSyncReq, 4)));

    // Plain data traffic forwards.
    EXPECT_FALSE(c.wants(mk(PacketType::writeReq, 2)));
    EXPECT_FALSE(c.wants(mk(PacketType::readReq, 2)));
    EXPECT_FALSE(c.wants(mk(PacketType::writeAck, 2)));
}

TEST(SwitchCompute, ReadRespDispatchByDestination)
{
    DispatchRig rig;
    const SwitchComputeComplex &c = *rig.complex;

    // Addressed to this switch: a unit fetch response.
    Packet to_switch = makePacket(rig.ids, PacketType::readResp, 1,
                                       rig.sw->nodeId());
    EXPECT_TRUE(c.wants(to_switch));

    // GPU-to-GPU P2P read response: forwarded.
    Packet p2p = makePacket(rig.ids, PacketType::readResp, 1, 2);
    EXPECT_FALSE(c.wants(p2p));
}

TEST(SwitchComputeDeathTest, UnknownCookieTagPanics)
{
    DispatchRig rig;
    Packet bogus = makePacket(rig.ids, PacketType::readResp, 1,
                                   rig.sw->nodeId());
    bogus.cookie = 12345; // no unit tag in the top byte
    EXPECT_DEATH(rig.complex->handlePacket(std::move(bogus)),
                 "cookie");
}

TEST(SwitchCompute, InstallsItselfAsHandler)
{
    // Constructing the complex wires it into the switch; in-switch
    // packets delivered through links are consumed, not forwarded.
    DispatchRig rig;
    auto up = std::make_unique<CreditLink>(rig.eq, "up", 450.0, 10,
                                           rig.sp.numVcs, 16, 1000);
    rig.sw->attachUplink(0, up.get());
    auto down = std::make_unique<CreditLink>(rig.eq, "dn", 450.0, 10,
                                             rig.sp.numVcs, 16, 1000);
    rig.sw->attachDownlink(0, down.get());

    Packet sync = makePacket(rig.ids, PacketType::groupSyncReq, 0,
                                  rig.sw->nodeId());
    sync.group = 1;
    sync.expected = 4;
    sync.issuerGpu = 0;
    up->send(std::move(sync));
    rig.eq.runAll();
    EXPECT_EQ(rig.sw->packetsConsumed(), 1u);
    EXPECT_EQ(rig.complex->sync().requests(), 1u);
}

TEST(SwitchCompute, CookieTagsAreDisjoint)
{
    EXPECT_NE(cookieTagMerge, cookieTagNvls);
    EXPECT_EQ(cookieTagMerge & cookieIdMask, 0u);
    EXPECT_EQ(cookieTagNvls & cookieIdMask, 0u);
    std::uint64_t id = 0xdeadbeef;
    EXPECT_EQ((cookieTagMerge | id) & cookieIdMask, id);
}
