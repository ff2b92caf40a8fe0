/**
 * @file
 * Tests for the stock NVLS unit: multicast store, gather-reduce, and
 * push-reduce, through a 4-GPU/1-switch rig.
 */

#include <gtest/gtest.h>

#include <memory>

#include "switchcompute/switch_compute.hh"

using namespace cais;

namespace
{

struct NvlsGpuStub : public PacketSink
{
    PacketIdAllocator ids;
    std::vector<Packet> got;
    CreditLink *up = nullptr;
    GpuId id = 0;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        from->returnCredit(vc);
        if (pkt.type == PacketType::readReq) {
            Packet resp = makePacket(ids, PacketType::readResp, id,
                                          pkt.src);
            resp.addr = pkt.addr;
            resp.payloadBytes = pkt.reqBytes;
            if (pkt.padResponse)
                resp.padBytes = pkt.reqBytes / protocolPadDivisor;
            resp.cookie = pkt.cookie;
            up->send(std::move(resp));
            return;
        }
        got.push_back(pkt);
    }
};

struct NvlsRig
{
    PacketIdAllocator ids;
    PacketIdAllocator chipIds; ///< the chip's own packet-id source
    EventQueue eq;
    SwitchParams sp;
    std::unique_ptr<SwitchChip> sw;
    std::unique_ptr<SwitchComputeComplex> complex;
    std::vector<std::unique_ptr<CreditLink>> ups, downs;
    NvlsGpuStub gpus[4];

    NvlsRig()
    {
        sw = std::make_unique<SwitchChip>(eq, chipIds, 0, 4, 4, sp);
        complex = std::make_unique<SwitchComputeComplex>(
            *sw, InSwitchParams{});
        for (GpuId g = 0; g < 4; ++g) {
            ups.push_back(std::make_unique<CreditLink>(
                eq, "up", 450.0, 50, sp.numVcs, 64, 10000));
            sw->attachUplink(g, ups.back().get());
            downs.push_back(std::make_unique<CreditLink>(
                eq, "dn", 450.0, 50, sp.numVcs, 64, 10000));
            sw->attachDownlink(g, downs.back().get());
            gpus[g].id = g;
            gpus[g].up = ups.back().get();
            downs.back()->setSink(&gpus[g]);
        }
    }
};

} // namespace

TEST(NvlsUnit, MulticastStoreReplicatesToPeers)
{
    NvlsRig rig;
    Packet st = makePacket(rig.ids, PacketType::multimemSt, 1, 4);
    st.addr = makeAddr(62, 0x1000);
    st.payloadBytes = 4096;
    st.issuerGpu = 1;
    st.cookie = 77;
    rig.ups[1]->send(std::move(st));
    rig.eq.runAll();

    EXPECT_EQ(rig.complex->nvls().multicasts(), 1u);
    // Peers 0, 2, 3 receive the data; the issuer gets a posted ack.
    for (GpuId g : {0, 2, 3}) {
        ASSERT_EQ(rig.gpus[g].got.size(), 1u) << "gpu " << g;
        EXPECT_EQ(rig.gpus[g].got[0].type, PacketType::writeReq);
        EXPECT_EQ(rig.gpus[g].got[0].payloadBytes, 4096u);
    }
    ASSERT_EQ(rig.gpus[1].got.size(), 1u);
    EXPECT_EQ(rig.gpus[1].got[0].type, PacketType::writeAck);
    EXPECT_EQ(rig.gpus[1].got[0].cookie, 77u);
}

TEST(NvlsUnit, GatherReduceFetchesAllReplicas)
{
    NvlsRig rig;
    Packet ld = makePacket(rig.ids, PacketType::multimemLdReduceReq, 2, 4);
    ld.addr = makeAddr(62, 0x2000);
    ld.reqBytes = 4096;
    ld.expected = 4;
    ld.issuerGpu = 2;
    ld.cookie = 55;
    rig.ups[2]->send(std::move(ld));
    rig.eq.runAll();

    EXPECT_EQ(rig.complex->nvls().gatherReduces(), 1u);
    EXPECT_EQ(rig.complex->nvls().pendingSessions(), 0u);
    // The requester received exactly one reduced response.
    ASSERT_EQ(rig.gpus[2].got.size(), 1u);
    EXPECT_EQ(rig.gpus[2].got[0].type,
              PacketType::multimemLdReduceResp);
    EXPECT_EQ(rig.gpus[2].got[0].cookie, 55u);
    // Every GPU's uplink carried one 4 KiB replica toward the switch.
    for (GpuId g = 0; g < 4; ++g)
        EXPECT_GE(rig.ups[g]->totalPayloadBytes(), 4096u);
}

TEST(NvlsUnit, PushReduceUpdatesAllReplicas)
{
    NvlsRig rig;
    Addr addr = makeAddr(62, 0x3000);
    for (GpuId g = 0; g < 4; ++g) {
        Packet red = makePacket(rig.ids, PacketType::multimemRed, g, 4);
        red.addr = addr;
        red.payloadBytes = 4096;
        red.expected = 4;
        red.issuerGpu = g;
        rig.ups[g]->send(std::move(red));
    }
    rig.eq.runAll();

    EXPECT_EQ(rig.complex->nvls().pushReduces(), 1u);
    for (GpuId g = 0; g < 4; ++g) {
        ASSERT_EQ(rig.gpus[g].got.size(), 1u);
        EXPECT_EQ(rig.gpus[g].got[0].type, PacketType::writeReq);
        EXPECT_EQ(rig.gpus[g].got[0].contribs, 4);
    }
}

TEST(NvlsUnitDeathTest, DuplicateRedContributionPanics)
{
    NvlsRig rig;
    Addr addr = makeAddr(62, 0x4000);
    auto mk = [&] {
        Packet red = makePacket(rig.ids, PacketType::multimemRed, 0, 4);
        red.addr = addr;
        red.payloadBytes = 64;
        red.expected = 4;
        red.issuerGpu = 0;
        return red;
    };
    rig.ups[0]->send(mk());
    rig.ups[0]->send(mk());
    EXPECT_DEATH(rig.eq.runAll(), "duplicate");
}
