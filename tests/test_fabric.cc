/**
 * @file
 * Tests for the assembled fabric: routing convergence end to end,
 * utilization accounting across links, bidirectional traffic, and
 * configuration validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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

namespace
{

/** Windowed utilization of one link set, written the way Fabric
 *  computed it before the one-walk helper: bin bytes summed in bin
 *  order, one capped fraction per link, averaged in set order. */
double
setUtilization(const std::vector<const CreditLink *> &ls, Cycle t0,
               Cycle t1)
{
    double total = 0.0;
    for (const CreditLink *l : ls) {
        const TimeSeries &u = l->utilization();
        const Cycle w = u.binWidth();
        double bytes = 0.0;
        for (std::size_t i = t0 / w; i < (t1 + w - 1) / w; ++i)
            bytes += u.binValue(i);
        total += std::min(
            1.0, bytes / (l->bytesPerCycle() * static_cast<double>(t1 - t0)));
    }
    return total / static_cast<double>(ls.size());
}

/** The per-bin series the same way: links outer, bins inner. */
std::vector<double>
setSeries(const std::vector<const CreditLink *> &ls, Cycle t0, Cycle t1,
          Cycle w)
{
    std::vector<double> out(static_cast<std::size_t>((t1 + w - 1) / w -
                                                     t0 / w));
    for (const CreditLink *l : ls) {
        const double cap = l->bytesPerCycle() * static_cast<double>(w);
        for (std::size_t i = t0 / w; i < (t1 + w - 1) / w; ++i)
            out[i - t0 / w] +=
                std::min(1.0, l->utilization().binValue(i) / cap);
    }
    for (double &v : out)
        v /= static_cast<double>(ls.size());
    return out;
}

} // namespace

TEST(Fabric, FusedUtilizationMatchesPerSetWalksOnTieredRun)
{
    // rail-optimized-2node: two groups of 8 GPUs, 4 rails, 4 spines.
    // Writes across the groups load GPU, leaf-spine and spine-leaf
    // links unevenly, so every reduction sees distinct per-link
    // fractions, some capped at 1.
    const FabricParams p = FabricParams::preset("rail-optimized-2node");
    PacketIdAllocator ids;
    EventQueue eq;
    Fabric f(eq, p);
    std::vector<CountingSink> sinks(static_cast<std::size_t>(p.numGpus));
    for (GpuId g = 0; g < p.numGpus; ++g)
        f.attachGpu(g, &sinks[static_cast<std::size_t>(g)]);
    for (int i = 0; i < 96; ++i) {
        const GpuId src = i % p.numGpus;
        const GpuId dst = (src + p.gpusPerGroup() + i / 16) % p.numGpus;
        Packet pkt = makePacket(ids, PacketType::writeReq, src, dst);
        pkt.addr = makeAddr(dst, static_cast<std::uint64_t>(i) << 14);
        pkt.payloadBytes = 4096u << (i % 4);
        f.sendFromGpu(src, std::move(pkt));
    }
    eq.runAll();
    const Cycle end = eq.now();
    ASSERT_GT(end, 2 * p.utilBinWidth);

    // Up links (GPU uplinks, leaf-to-spine), then down links
    // (leaf-to-GPU, spine-to-leaf), each in Fabric's storage order.
    std::vector<const CreditLink *> up, dn;
    const int gpp = p.gpusPerGroup();
    for (GpuId g = 0; g < p.numGpus; ++g)
        for (int r = 0; r < f.uplinksPerGpu(); ++r)
            up.push_back(&f.uplink(g, r));
    for (int l = 0; l < p.numLeaves(); ++l)
        for (int k = 0; k < p.numSpines; ++k)
            up.push_back(&f.tierUplink(l, k));
    for (int l = 0; l < p.numLeaves(); ++l)
        for (int i = 0; i < gpp; ++i)
            dn.push_back(&f.downlink(l, l / p.railsPerGroup * gpp + i));
    for (int k = 0; k < p.numSpines; ++k)
        for (int l = 0; l < p.numLeaves(); ++l)
            dn.push_back(&f.tierDownlink(k, l));
    std::vector<const CreditLink *> all = up;
    all.insert(all.end(), dn.begin(), dn.end());

    const std::pair<Cycle, Cycle> windows[] = {
        {0, end}, {0, 1}, {end / 3, end + 5000}, {777, end / 2}};
    for (const auto &[t0, t1] : windows) {
        SCOPED_TRACE(testing::Message() << "[" << t0 << ", " << t1 << ")");
        const Fabric::Utilization u = f.utilization(t0, t1);
        EXPECT_EQ(u.avg, setUtilization(all, t0, t1));
        EXPECT_EQ(u.up, setUtilization(up, t0, t1));
        EXPECT_EQ(u.dn, setUtilization(dn, t0, t1));
        EXPECT_EQ(u.series, setSeries(all, t0, t1, p.utilBinWidth));
        EXPECT_EQ(u.avg, f.avgUtilization(t0, t1));
        EXPECT_EQ(u.up, f.dirUtilization(true, t0, t1));
        EXPECT_EQ(u.dn, f.dirUtilization(false, t0, t1));
        EXPECT_EQ(u.series, f.utilizationSeries(t0, t1));
    }
    const Fabric::Utilization whole = f.utilization(0, end);
    EXPECT_GT(whole.up, 0.0);
    EXPECT_GT(whole.dn, 0.0);
    EXPECT_NE(whole.up, whole.dn);
    EXPECT_GT(*std::max_element(whole.series.begin(), whole.series.end()),
              0.0);
    // An empty window reads zero and has no bins.
    const Fabric::Utilization none = f.utilization(end, end);
    EXPECT_EQ(none.avg, 0.0);
    EXPECT_TRUE(none.series.empty());
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
