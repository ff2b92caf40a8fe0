/** @file Tests for the NVSwitch chip model (forwarding, HOL, units). */

#include <gtest/gtest.h>

#include <memory>

#include "noc/switch_chip.hh"

using namespace cais;

namespace
{

struct GpuStub : public PacketSink
{
    EventQueue *eq = nullptr;
    std::vector<Packet> got;
    bool autoCredit = true;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        got.push_back(pkt);
        if (autoCredit)
            from->returnCredit(vc);
    }
};

struct SyncEater : public SwitchComputeHandler
{
    int eaten = 0;

    bool
    wants(const Packet &pkt) const override
    {
        return pkt.type == PacketType::groupSyncReq;
    }

    void
    handlePacket(Packet &&pkt) override
    {
        (void)pkt;
        ++eaten;
    }
};

/** Two GPUs attached to one switch via credit links. */
struct MiniFabric
{
    PacketIdAllocator ids;
    PacketIdAllocator chipIds; ///< the chip's own packet-id source
    EventQueue eq;
    SwitchParams sp;
    std::unique_ptr<SwitchChip> sw;
    std::vector<std::unique_ptr<CreditLink>> ups;
    std::vector<std::unique_ptr<CreditLink>> downs;
    GpuStub gpu0, gpu1;

    explicit MiniFabric(int out_depth = 256)
    {
        sp.outQueueDepth = out_depth;
        sw = std::make_unique<SwitchChip>(eq, chipIds, 0, 2, 2, sp);
        for (GpuId g = 0; g < 2; ++g) {
            ups.push_back(std::make_unique<CreditLink>(
                eq, "up", 100.0, 10, sp.numVcs, 16, 1000));
            sw->attachUplink(g, ups.back().get());
            // One credit per VC so a credit-withholding sink
            // exercises real backpressure.
            downs.push_back(std::make_unique<CreditLink>(
                eq, "dn", 100.0, 10, sp.numVcs, 1, 1000));
            sw->attachDownlink(g, downs.back().get());
        }
        gpu0.eq = &eq;
        gpu1.eq = &eq;
        downs[0]->setSink(&gpu0);
        downs[1]->setSink(&gpu1);
    }
};

} // namespace

TEST(SwitchChip, ForwardsUnicastToDestination)
{
    MiniFabric f;
    Packet p = makePacket(f.ids, PacketType::writeReq, 0, 1);
    p.payloadBytes = 256;
    f.ups[0]->send(std::move(p));
    f.eq.runAll();
    ASSERT_EQ(f.gpu1.got.size(), 1u);
    EXPECT_TRUE(f.gpu0.got.empty());
    EXPECT_EQ(f.sw->packetsForwarded(), 1u);
}

TEST(SwitchChip, ComputeHandlerConsumesItsTraffic)
{
    MiniFabric f;
    SyncEater eater;
    f.sw->setComputeHandler(&eater);

    Packet sync = makePacket(f.ids, PacketType::groupSyncReq, 0, 2);
    sync.group = 5;
    sync.expected = 2;
    f.ups[0]->send(std::move(sync));
    Packet data = makePacket(f.ids, PacketType::writeReq, 0, 1);
    data.payloadBytes = 64;
    f.ups[0]->send(std::move(data));
    f.eq.runAll();

    EXPECT_EQ(eater.eaten, 1);
    EXPECT_EQ(f.sw->packetsConsumed(), 1u);
    EXPECT_EQ(f.gpu1.got.size(), 1u);
}

TEST(SwitchChip, SendToGpuBypassesForwardingBound)
{
    MiniFabric f(1);
    Packet p = makePacket(f.ids, PacketType::readReq, 2, 1);
    p.reqBytes = 64;
    f.sw->sendToGpu(std::move(p));
    f.eq.runAll();
    EXPECT_EQ(f.gpu1.got.size(), 1u);
    EXPECT_EQ(f.sw->packetsGenerated(), 1u);
}

TEST(SwitchChip, HeadOfLineBlockingWithinVcOnly)
{
    // Tiny output queue + a sink that withholds credits: the blocked
    // reduction VC must not stall response-class traffic.
    MiniFabric f(1);
    f.gpu1.autoCredit = false;

    for (int i = 0; i < 4; ++i) {
        Packet p = makePacket(f.ids, PacketType::writeReq, 0, 1);
        p.payloadBytes = 900;
        f.ups[0]->send(std::move(p));
    }
    Packet r = makePacket(f.ids, PacketType::readResp, 0, 1);
    r.payloadBytes = 64;
    f.ups[0]->send(std::move(r));
    f.eq.runAll();

    bool resp_arrived = false;
    for (const auto &pkt : f.gpu1.got)
        resp_arrived |= pkt.type == PacketType::readResp;
    EXPECT_TRUE(resp_arrived);
    // The writeReq stream is stalled behind the credit-less VC.
    EXPECT_LT(f.gpu1.got.size(), 5u);
}

TEST(SwitchChip, PeakInputOccupancyTracksBackpressure)
{
    MiniFabric f(1);
    f.gpu1.autoCredit = false;
    for (int i = 0; i < 6; ++i) {
        Packet p = makePacket(f.ids, PacketType::writeReq, 0, 1);
        p.payloadBytes = 128;
        f.ups[0]->send(std::move(p));
    }
    f.eq.runAll();
    EXPECT_GE(f.sw->peakInputOccupancy(), 2u);
}

TEST(SwitchChip, InputVcsOfDifferentPortsStayIndependent)
{
    // Both ports carry writeReq traffic on one VC class. Port 0's
    // stream to GPU 1 is held head-of-line (GPU 1 keeps its credit,
    // the output queue holds one packet); port 1's stream to GPU 0
    // must still forward every packet.
    MiniFabric f(1);
    f.gpu1.autoCredit = false;
    auto send = [&f](GpuId from, int n) {
        for (int i = 0; i < n; ++i) {
            Packet p =
                makePacket(f.ids, PacketType::writeReq, from, 1 - from);
            p.payloadBytes = 900;
            f.ups[static_cast<std::size_t>(from)]->send(std::move(p));
        }
    };
    send(0, 4);
    send(1, 7);
    f.eq.runAll();

    const int vc = static_cast<int>(f.gpu0.got.at(0).vc);
    // Port 0: one packet delivered, one on the downlink's send queue,
    // two still buffered, so two of its 16 credits stay out.
    EXPECT_EQ(f.gpu1.got.size(), 1u);
    EXPECT_EQ(f.sw->downlinkQueue(1, static_cast<VcClass>(vc)), 1u);
    EXPECT_EQ(f.ups[0]->credits(vc), 14);
    // Port 1: everything forwarded, every credit back.
    EXPECT_EQ(f.gpu0.got.size(), 7u);
    EXPECT_EQ(f.ups[1]->credits(vc), 16);
    // Each port's burst was buffered whole before the first service
    // (pipeline delay 100 cycles, arrivals 10 cycles apart): the peak
    // is port 1's 7, not port 0's 4.
    EXPECT_EQ(f.sw->peakInputOccupancy(), 7u);
}

TEST(SwitchChip, UnifiedDataVcCollapsesClasses)
{
    EXPECT_EQ(policedVc(VcClass::response, true), VcClass::reduction);
    EXPECT_EQ(policedVc(VcClass::multicast, true), VcClass::reduction);
    EXPECT_EQ(policedVc(VcClass::reduction, true), VcClass::reduction);
    EXPECT_EQ(policedVc(VcClass::sync, true), VcClass::sync);
    EXPECT_EQ(policedVc(VcClass::response, false), VcClass::response);
}
