/**
 * @file
 * Tests for the assembled fabric: routing convergence end to end,
 * utilization accounting across links, bidirectional traffic, and
 * configuration validation.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "noc/arbiter.hh"
#include "noc/network.hh"

using namespace cais;

namespace
{

struct CountingSink : public PacketSink
{
    int got = 0;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        (void)pkt;
        ++got;
        from->returnCredit(vc);
    }
};

FabricParams
params(int gpus = 4, int switches = 2)
{
    FabricParams p;
    p.numGpus = gpus;
    p.numSwitches = switches;
    return p;
}

} // namespace

TEST(Fabric, ForwardsGpuToGpuThroughHashedSwitch)
{
    PacketIdAllocator ids;
    EventQueue eq;
    Fabric f(eq, params());
    CountingSink sinks[4];
    for (GpuId g = 0; g < 4; ++g)
        f.attachGpu(g, &sinks[g]);

    Addr addr = makeAddr(2, 0x1000);
    Packet p = makePacket(ids, PacketType::writeReq, 0, 2);
    p.addr = addr;
    p.payloadBytes = 512;
    f.sendFromGpu(0, std::move(p));
    eq.runAll();

    EXPECT_EQ(sinks[2].got, 1);
    // The hashed switch carried it; the other switch is untouched.
    SwitchId s = f.routeAddr(addr);
    EXPECT_EQ(f.switchChip(s).packetsForwarded(), 1u);
    EXPECT_EQ(f.switchChip(1 - s).packetsForwarded(), 0u);
}

TEST(Fabric, MergeableRequestsConvergeOnOneSwitch)
{
    PacketIdAllocator ids;
    EventQueue eq;
    Fabric f(eq, params());
    CountingSink sinks[4];
    for (GpuId g = 0; g < 4; ++g)
        f.attachGpu(g, &sinks[g]);

    // Same address from every GPU must use the same switch
    // (merging convergence, Sec. III-A.5) even without a compute
    // handler (packets forward to the home GPU here).
    Addr addr = makeAddr(3, 0x42000);
    SwitchId expect = f.routeAddr(addr);
    for (GpuId g = 0; g < 3; ++g) {
        Packet p = makePacket(ids, PacketType::writeReq, g, 3);
        p.addr = addr;
        p.payloadBytes = 64;
        f.sendFromGpu(g, std::move(p));
    }
    eq.runAll();
    EXPECT_EQ(f.switchChip(expect).packetsForwarded(), 3u);
    EXPECT_EQ(sinks[3].got, 3);
}

TEST(Fabric, SyncTrafficRoutesByGroup)
{
    PacketIdAllocator ids;
    EventQueue eq;
    FabricParams fp = params();
    Fabric f(eq, fp);
    CountingSink sinks[4];
    for (GpuId g = 0; g < 4; ++g)
        f.attachGpu(g, &sinks[g]);

    GroupId grp = 17;
    SwitchId expect = f.routeGroup(grp);
    // Without a compute handler the packet forwards like unicast; the
    // point under test is the group-hash switch selection.
    Packet p = makePacket(ids, PacketType::groupSyncReq, 0, 1);
    p.group = grp;
    p.expected = 4;
    p.issuerGpu = 0;
    f.sendFromGpu(0, std::move(p));
    eq.runAll();
    EXPECT_EQ(sinks[1].got, 1);
    EXPECT_GT(f.uplink(0, expect).totalPackets(), 0u);
    for (SwitchId s = 0; s < 2; ++s) {
        if (s != expect) {
            EXPECT_EQ(f.uplink(0, s).totalPackets(), 0u);
        }
    }
}

TEST(Fabric, UtilizationAccountsBothDirections)
{
    PacketIdAllocator ids;
    EventQueue eq;
    Fabric f(eq, params(2, 1));
    CountingSink sinks[2];
    f.attachGpu(0, &sinks[0]);
    f.attachGpu(1, &sinks[1]);

    Packet p = makePacket(ids, PacketType::writeReq, 0, 1);
    p.addr = makeAddr(1, 0);
    p.payloadBytes = 1 << 16;
    f.sendFromGpu(0, std::move(p));
    eq.runAll();

    Cycle end = eq.now();
    EXPECT_GT(f.dirUtilization(true, 0, end), 0.0);  // up: g0->sw
    EXPECT_GT(f.dirUtilization(false, 0, end), 0.0); // down: sw->g1
    EXPECT_GT(f.totalWireBytes(), 2u * (1u << 16));  // both hops
    EXPECT_FALSE(f.utilizationSeries(0, end).empty());
}

TEST(Fabric, PerLinkBandwidthSplitsAcrossSwitches)
{
    FabricParams p4 = params(8, 4);
    EXPECT_DOUBLE_EQ(p4.perLinkBytesPerCycle(), 450.0 / 4.0);
    FabricParams p2 = params(8, 2);
    EXPECT_DOUBLE_EQ(p2.perLinkBytesPerCycle(), 225.0);
    EXPECT_NE(p4.str().find("8 GPUs"), std::string::npos);
}

TEST(FabricDeathTest, InvalidConfigsAreFatal)
{
    FabricParams bad = params();
    bad.numGpus = 1;
    EXPECT_DEATH(bad.validate(), "at least 2 GPUs");
    FabricParams bad2 = params();
    bad2.sw.numVcs = 2;
    EXPECT_DEATH(bad2.validate(), "VCs");
}

TEST(Fabric, RejectsMoreVcsThanTheArbiterMaskHolds)
{
    // Each VC is one bit of the link arbiter's 64-bit ready mask.
    FabricParams p = params();
    p.sw.numVcs = RoundRobinArbiter::maxInputs + 1;
    EXPECT_NE(p.validationError().find("at most 64 VCs"),
              std::string::npos);
    p.sw.numVcs = RoundRobinArbiter::maxInputs;
    EXPECT_EQ(p.validationError().find("at most 64 VCs"),
              std::string::npos);
}

TEST(Fabric, LinkNamesMatchTheirFormats)
{
    // The printf formats links were once named with, in forEachLink
    // order (uplinks by GPU, downlinks by switch or leaf, then the
    // tier links), on flat-8 and every preset.
    std::vector<FabricParams> shapes = {FabricParams{}};
    for (const std::string &name : FabricParams::presetNames())
        shapes.push_back(FabricParams::preset(name));
    for (const FabricParams &p : shapes) {
        SCOPED_TRACE(p.str());
        std::vector<std::string> want;
        if (!p.multiTier()) {
            for (int g = 0; g < p.numGpus; ++g)
                for (int s = 0; s < p.numSwitches; ++s)
                    want.push_back(strfmt("up.g%d.s%d", g, s));
            for (int s = 0; s < p.numSwitches; ++s)
                for (int g = 0; g < p.numGpus; ++g)
                    want.push_back(strfmt("dn.s%d.g%d", s, g));
        } else {
            const int gpp = p.gpusPerGroup();
            const int rails = p.railsPerGroup;
            for (int g = 0; g < p.numGpus; ++g)
                for (int r = 0; r < rails; ++r)
                    want.push_back(strfmt("up.g%d.l%d", g,
                                          p.leafIndex(g / gpp, r)));
            for (int l = 0; l < p.numLeaves(); ++l)
                for (int local = 0; local < gpp; ++local)
                    want.push_back(strfmt("dn.l%d.g%d", l,
                                          l / rails * gpp + local));
            for (int l = 0; l < p.numLeaves(); ++l)
                for (int k = 0; k < p.numSpines; ++k)
                    want.push_back(strfmt("t_up.l%d.k%d", l, k));
            for (int k = 0; k < p.numSpines; ++k)
                for (int l = 0; l < p.numLeaves(); ++l)
                    want.push_back(strfmt("t_dn.k%d.l%d", k, l));
        }
        EventQueue eq;
        Fabric f(eq, p);
        std::vector<std::string> got;
        f.forEachLink(
            [&](const CreditLink &l) { got.push_back(l.name()); });
        EXPECT_EQ(got, want);
    }
}
