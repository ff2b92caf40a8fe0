/**
 * @file
 * Tests for the CAIS merge unit micro-functions through a real
 * 2-GPU/1-switch fabric slice: load merging (fetch once, serve many),
 * reduction merging (accumulate, write once), CAM/merging table
 * behaviour, eviction and stagger accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "switchcompute/switch_compute.hh"

using namespace cais;

namespace
{

struct HomeStub : public PacketSink
{
    PacketIdAllocator ids;
    EventQueue *eq = nullptr;
    std::vector<Packet> got;
    /** Auto-respond to readReq fetches after a fixed delay. */
    CreditLink *up = nullptr; // back-channel to the switch
    GpuId id = 0;
    int switchNode = 0;
    bool serveReads = true;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        from->returnCredit(vc);
        if (pkt.type == PacketType::readReq && serveReads) {
            Packet resp = makePacket(ids, PacketType::readResp, id,
                                          pkt.src);
            resp.addr = pkt.addr;
            resp.payloadBytes = pkt.reqBytes;
            resp.cookie = pkt.cookie;
            up->send(std::move(resp));
            return;
        }
        got.push_back(pkt);
    }
};

struct MergeRig
{
    PacketIdAllocator ids;
    PacketIdAllocator chipIds; ///< the chip's own packet-id source
    EventQueue eq;
    SwitchParams sp;
    std::unique_ptr<SwitchChip> sw;
    std::unique_ptr<SwitchComputeComplex> complex;
    std::vector<std::unique_ptr<CreditLink>> ups;
    std::vector<std::unique_ptr<CreditLink>> downs;
    HomeStub gpus[4];
    static constexpr int numGpus = 4;

    explicit MergeRig(std::uint64_t table_bytes = 0,
                      std::uint32_t chunk = 4096)
    {
        sw = std::make_unique<SwitchChip>(eq, chipIds, 0, numGpus,
                                          numGpus, sp);
        InSwitchParams ip;
        ip.merge.chunkBytes = chunk;
        ip.merge.tableBytesPerPort = table_bytes;
        complex = std::make_unique<SwitchComputeComplex>(*sw, ip);
        for (GpuId g = 0; g < numGpus; ++g) {
            ups.push_back(std::make_unique<CreditLink>(
                eq, "up", 450.0, 50, sp.numVcs, 64, 10000));
            sw->attachUplink(g, ups.back().get());
            downs.push_back(std::make_unique<CreditLink>(
                eq, "dn", 450.0, 50, sp.numVcs, 64, 10000));
            sw->attachDownlink(g, downs.back().get());
            gpus[g].eq = &eq;
            gpus[g].id = g;
            gpus[g].switchNode = numGpus;
            gpus[g].up = ups.back().get();
            downs.back()->setSink(&gpus[g]);
        }
    }

    Packet
    loadReq(GpuId from, Addr addr, int expected)
    {
        Packet p = makePacket(ids, PacketType::caisLoadReq, from,
                                   sw->nodeId());
        p.addr = addr;
        p.reqBytes = 4096;
        p.expected = expected;
        p.issuerGpu = from;
        p.cookie = 1000 + static_cast<std::uint64_t>(from);
        return p;
    }

    Packet
    redReq(GpuId from, Addr addr, int expected)
    {
        Packet p = makePacket(ids, PacketType::caisRedReq, from,
                                   sw->nodeId());
        p.addr = addr;
        p.payloadBytes = 4096;
        p.expected = expected;
        p.issuerGpu = from;
        return p;
    }
};

} // namespace

TEST(MergeUnit, LoadMergingFetchesOnce)
{
    MergeRig rig;
    Addr addr = makeAddr(0, 1 << 20);
    // GPUs 1..3 request the same address (home = GPU 0).
    for (GpuId g = 1; g < 4; ++g)
        rig.ups[g]->send(rig.loadReq(g, addr, 3));
    rig.eq.runAll();

    const MergeStats &st = rig.complex->merge().stats();
    EXPECT_EQ(st.loadReqs.value(), 3u);
    EXPECT_EQ(st.fetches.value(), 1u); // fetched from home exactly once
    EXPECT_EQ(st.loadHits.value(), 2u);
    EXPECT_EQ(st.sessionsClosed.value(), 1u);

    // Every requester received its data response.
    for (GpuId g = 1; g < 4; ++g) {
        ASSERT_EQ(rig.gpus[g].got.size(), 1u) << "gpu " << g;
        EXPECT_EQ(rig.gpus[g].got[0].type, PacketType::caisLoadResp);
        EXPECT_EQ(rig.gpus[g].got[0].payloadBytes, 4096u);
        EXPECT_EQ(rig.gpus[g].got[0].cookie,
                  1000u + static_cast<std::uint64_t>(g));
    }
}

TEST(MergeUnit, LateLoadServedFromLoadReadyCache)
{
    MergeRig rig;
    Addr addr = makeAddr(0, 1 << 20);
    rig.ups[1]->send(rig.loadReq(1, addr, 3));
    rig.eq.runUntil(10000); // fetch completes; session is Load-Ready
    EXPECT_EQ(rig.complex->merge().liveSessions(), 1u);

    rig.ups[2]->send(rig.loadReq(2, addr, 3));
    rig.ups[3]->send(rig.loadReq(3, addr, 3));
    rig.eq.runUntil(20000);

    EXPECT_EQ(rig.complex->merge().stats().fetches.value(), 1u);
    EXPECT_EQ(rig.complex->merge().liveSessions(), 0u);
    EXPECT_EQ(rig.gpus[3].got.size(), 1u);
}

TEST(MergeUnit, ReductionMergingWritesOnce)
{
    MergeRig rig;
    Addr addr = makeAddr(2, 1 << 18); // home = GPU 2
    for (GpuId g : {0, 1, 3})
        rig.ups[g]->send(rig.redReq(g, addr, 3));
    rig.eq.runAll();

    const MergeStats &st = rig.complex->merge().stats();
    EXPECT_EQ(st.redReqs.value(), 3u);
    EXPECT_EQ(st.redHits.value(), 2u);
    EXPECT_EQ(st.mergedWrites.value(), 1u);

    // The home GPU received exactly one merged write with the full
    // contribution count.
    ASSERT_EQ(rig.gpus[2].got.size(), 1u);
    const Packet &w = rig.gpus[2].got[0];
    EXPECT_EQ(w.type, PacketType::caisMergedWrite);
    EXPECT_EQ(w.contribs, 3);
    EXPECT_EQ(w.payloadBytes, 4096u);
}

TEST(MergeUnit, DistinctAddressesDistinctSessions)
{
    MergeRig rig;
    rig.ups[0]->send(rig.redReq(0, makeAddr(1, 0x1000), 3));
    rig.ups[1]->send(rig.redReq(1, makeAddr(1, 0x2000), 3));
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->merge().stats().sessionsOpened.value(), 2u);
    EXPECT_EQ(rig.complex->merge().stats().redHits.value(), 0u);
}

TEST(MergeUnit, LoadAndReductionToSameAddrAreSeparate)
{
    MergeRig rig;
    Addr addr = makeAddr(0, 0x4000);
    rig.ups[1]->send(rig.loadReq(1, addr, 3));
    rig.ups[1]->send(rig.redReq(1, addr, 3));
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->merge().stats().sessionsOpened.value(), 2u);
}

TEST(MergeUnit, LruEvictionFlushesPartialReduction)
{
    // Table fits exactly one 4 KiB session per port.
    MergeRig rig(4096);
    Addr a1 = makeAddr(2, 0x1000);
    Addr a2 = makeAddr(2, 0x9000);
    rig.ups[0]->send(rig.redReq(0, a1, 3));
    rig.eq.runUntil(5000);
    rig.ups[1]->send(rig.redReq(1, a2, 3)); // evicts a1's session
    // Stop before the timeout sweep flushes a2's session as well.
    rig.eq.runUntil(20000);

    const MergeUnit &mu = rig.complex->merge();
    EXPECT_EQ(mu.evictionStats().lruEvictions.value(), 1u);
    // The partial (1 contribution) was flushed to the home GPU.
    ASSERT_EQ(rig.gpus[2].got.size(), 1u);
    EXPECT_EQ(rig.gpus[2].got[0].contribs, 1);
}

TEST(MergeUnit, PeakBytesTracksConcurrentSessions)
{
    MergeRig rig; // unbounded
    for (int i = 0; i < 5; ++i)
        rig.ups[0]->send(
            rig.redReq(0, makeAddr(1, 0x1000 + 0x1000 * i), 3));
    rig.eq.runAll();
    EXPECT_EQ(rig.complex->merge().peakTableBytes(1),
              5u * 4096u);
    EXPECT_EQ(rig.complex->merge().peakRedSessions(), 5u);
}

TEST(MergeUnit, StaggerMeasuresFirstToLastArrival)
{
    MergeRig rig;
    Addr addr = makeAddr(3, 0x1000);
    rig.ups[0]->send(rig.redReq(0, addr, 2));
    rig.eq.runUntil(5000); // 5 us gap
    rig.ups[1]->send(rig.redReq(1, addr, 2));
    rig.eq.runAll();
    const Histogram &h = rig.complex->merge().staggerHist();
    ASSERT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.mean(), 5000.0, 300.0);
}

TEST(MergeUnit, MergedTrafficSavesHomeUplinkBytes)
{
    // Compare home->switch bytes with and without sharing: three
    // requesters but a single fetch means the home uplink carries the
    // data once (plus its credit/header costs).
    MergeRig rig;
    Addr addr = makeAddr(0, 1 << 20);
    for (GpuId g = 1; g < 4; ++g)
        rig.ups[g]->send(rig.loadReq(g, addr, 3));
    rig.eq.runAll();
    // Home uplink: one readResp of ~4 KiB (not three).
    EXPECT_LT(rig.ups[0]->totalPayloadBytes(), 2u * 4096u);
    EXPECT_GE(rig.ups[0]->totalPayloadBytes(), 4096u);
}
