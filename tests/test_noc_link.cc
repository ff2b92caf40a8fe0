/** @file Tests for the credit-based link model. */

#include <gtest/gtest.h>

#include "noc/credit_link.hh"

using namespace cais;

namespace
{

/** Sink capturing delivered packets; credits return immediately. */
struct CaptureSink : public PacketSink
{
    std::vector<Packet> got;
    std::vector<Cycle> at;
    EventQueue *eq = nullptr;
    bool autoCredit = true;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        got.push_back(pkt);
        at.push_back(eq->now());
        if (autoCredit)
            from->returnCredit(vc);
    }
};

Packet
dataPacket(PacketIdAllocator &ids, std::uint32_t payload)
{
    Packet p = makePacket(ids, PacketType::writeReq, 0, 1);
    p.payloadBytes = payload;
    return p;
}

} // namespace

TEST(CreditLink, DeliversAfterSerializationPlusLatency)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 100.0, 250, 8, 4, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    link.setSink(&sink);

    link.send(dataPacket(ids, 984)); // wire = 1000 B -> 10 cycles
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(sink.at[0], 10u + 250u);
}

TEST(CreditLink, BackToBackSerialization)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 100.0, 0, 8, 8, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    link.setSink(&sink);

    for (int i = 0; i < 3; ++i)
        link.send(dataPacket(ids, 984)); // 10 cycles each
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 3u);
    EXPECT_EQ(sink.at[0], 10u);
    EXPECT_EQ(sink.at[1], 20u);
    EXPECT_EQ(sink.at[2], 30u);
}

TEST(CreditLink, CreditsThrottleWhenSinkHoldsBuffers)
{
    PacketIdAllocator ids;
    EventQueue eq;
    // 1 credit per VC: the second packet must wait for the credit.
    CreditLink link(eq, "l", 1000.0, 10, 8, 1, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    sink.autoCredit = false;
    link.setSink(&sink);

    link.send(dataPacket(ids, 984));
    link.send(dataPacket(ids, 984));
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 1u); // stalled without credit

    link.returnCredit(static_cast<int>(VcClass::reduction));
    eq.runAll();
    EXPECT_EQ(sink.got.size(), 2u);
}

TEST(CreditLink, SameCycleCreditReturnsIssueLikeOneBatch)
{
    PacketIdAllocator ids;
    EventQueue eq;
    const Cycle lat = 10;
    const Cycle ser = 10; // 1000 wire bytes at 100 B/cycle
    CreditLink link(eq, "l", 100.0, lat, 8, 1, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    sink.autoCredit = false;
    link.setSink(&sink);

    for (int i = 0; i < 3; ++i)
        link.send(dataPacket(ids, 984));
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 1u); // the one credit is spent
    const int vc = static_cast<int>(sink.got[0].vc);
    EXPECT_EQ(link.credits(vc), 0);

    // Free two slots in one cycle: each credit arrives as its own
    // event, lat cycles later, and nothing else runs by then.
    const Cycle t = eq.now();
    link.returnCredit(vc);
    link.returnCredit(vc);
    std::uint64_t before = eq.executed();
    eq.runUntil(t + lat);
    EXPECT_EQ(eq.executed() - before, 2u);
    EXPECT_EQ(link.credits(vc), 1); // two arrived, one issued

    // The held packets issue back to back, as one batch of two would.
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 3u);
    EXPECT_EQ(sink.at[1], t + lat + ser + lat);
    EXPECT_EQ(sink.at[2], t + lat + 2 * ser + lat);
    EXPECT_EQ(link.credits(vc), 0);
}

TEST(CreditLink, VcsIsolateBlockedTraffic)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 1000.0, 10, 8, 1, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    sink.autoCredit = false;
    link.setSink(&sink);

    // Fill the reduction VC (credit 1), then block it.
    link.send(dataPacket(ids, 100));
    link.send(dataPacket(ids, 100));
    // A response-class packet still flows: no HOL across VCs.
    Packet resp = makePacket(ids, PacketType::readResp, 0, 1);
    resp.payloadBytes = 100;
    link.send(std::move(resp));
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 2u);
    EXPECT_EQ(sink.got[1].type, PacketType::readResp);
}

TEST(CreditLink, UtilizationAccountsWireBytes)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 100.0, 0, 8, 8, 100);
    CaptureSink sink;
    sink.eq = &eq;
    link.setSink(&sink);
    link.send(dataPacket(ids, 984));
    eq.runAll();
    EXPECT_EQ(link.totalWireBytes(), 1000u);
    EXPECT_EQ(link.totalPayloadBytes(), 984u);
    EXPECT_EQ(link.totalPackets(), 1u);
    EXPECT_EQ(link.busyCycles(), 10u);
    EXPECT_NEAR(link.utilization().binValue(0), 1000.0, 1e-9);
}

TEST(CreditLink, PadBytesOccupyWireOnly)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 100.0, 0, 8, 8, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    link.setSink(&sink);
    Packet p = dataPacket(ids, 684);
    p.padBytes = 300; // wire = 684 + 300 + 16 = 1000
    link.send(std::move(p));
    eq.runAll();
    EXPECT_EQ(link.totalWireBytes(), 1000u);
    EXPECT_EQ(link.totalPayloadBytes(), 684u);
}

TEST(CreditLink, DequeueCallbackFiresPerPacket)
{
    PacketIdAllocator ids;
    EventQueue eq;
    CreditLink link(eq, "l", 100.0, 5, 8, 8, 1000);
    CaptureSink sink;
    sink.eq = &eq;
    link.setSink(&sink);
    struct Counting : public LinkDequeueListener
    {
        int dequeues = 0;
        int lastTag = -1;
        void
        onLinkDequeue(int tag, int) override
        {
            ++dequeues;
            lastTag = tag;
        }
    } counting;
    link.setDequeueListener(&counting, 7);
    link.send(dataPacket(ids, 100));
    link.send(dataPacket(ids, 100));
    eq.runAll();
    EXPECT_EQ(counting.dequeues, 2);
    EXPECT_EQ(counting.lastTag, 7);
}
