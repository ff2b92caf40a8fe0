#include "noc/network.hh"

#include <algorithm>

#include "analysis/causal_profile.hh"
#include "common/log.hh"
#include "common/sharded_event_queue.hh"

namespace cais
{

namespace
{

/** Validate before any member construction (DeterministicRouting
 *  would otherwise panic on impossible shapes with a worse message). */
const FabricParams &
validated(const FabricParams &params)
{
    params.validate();
    return params;
}

} // namespace

Fabric::Fabric(EventQueue &eq_, const FabricParams &params,
               ShardedEventQueue *shq_)
    : eq(eq_), shq(shq_), p(validated(params)),
      route(p.multiTier() ? p.railsPerGroup : p.numSwitches,
            p.interleaveBytes)
{
    if (shq && &shq->shard(0) != &eq)
        panic("fabric's base queue must be the sharded core's shard 0");
    if (p.multiTier())
        buildTiered();
    else
        buildFlat();
}

int
Fabric::numDomains(const FabricParams &params)
{
    return 1 + (params.multiTier() ? params.numGroups + 1
                                   : params.numSwitches);
}

int
Fabric::switchShard(const FabricParams &params, SwitchId s, int shards)
{
    if (shards < 2)
        panic("switchShard needs >= 2 shards (got %d)", shards);
    int domain;
    if (!params.multiTier())
        domain = 1 + s;
    else if (params.isSpineSwitch(s))
        domain = 1 + params.numGroups;
    else
        domain = 1 + s / params.railsPerGroup;
    return 1 + (domain - 1) % (shards - 1);
}

Cycle
Fabric::crossShardLookahead(const FabricParams &params, int shards)
{
    // GPU<->switch links always cross: GPUs live on shard 0, every
    // switch on a shard >= 1.
    Cycle la = params.linkLatency;
    if (!params.multiTier() || shards < 3)
        return la; // two shards put every switch together
    int spine_shard = switchShard(params, params.numLeaves(), shards);
    for (int l = 0; l < params.numLeaves(); ++l) {
        if (switchShard(params, l, shards) != spine_shard) {
            la = std::min(la, params.effectiveTierLinkLatency());
            break;
        }
    }
    return la;
}

EventQueue &
Fabric::switchQueue(SwitchId s)
{
    if (!shq)
        return eq;
    return shq->shard(switchShard(p, s, shq->numShards()));
}

void
Fabric::buildFlat()
{
    double link_bw = p.perLinkBytesPerCycle();

    switches.reserve(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s) {
        switches.push_back(std::make_unique<SwitchChip>(
            switchQueue(s), s, switchNodeId(s), p.numGpus, p.sw));
        // Sharded chips keep their private per-chip id allocators:
        // a fabric-wide pool would be written from every shard.
        if (!shq)
            switches.back()->setPacketIds(&pktIds);
    }

    up.resize(static_cast<std::size_t>(p.numGpus));
    down.resize(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s)
        down[static_cast<std::size_t>(s)].resize(
            static_cast<std::size_t>(p.numGpus));

    for (GpuId g = 0; g < p.numGpus; ++g) {
        auto &row = up[static_cast<std::size_t>(g)];
        row.resize(static_cast<std::size_t>(p.numSwitches));
        for (SwitchId s = 0; s < p.numSwitches; ++s) {
            // A link lives on its sender's queue; the sink's queue is
            // bound so deliveries execute on the sink's shard.
            row[static_cast<std::size_t>(s)] = std::make_unique<CreditLink>(
                eq, strfmt("up.g%d.s%d", g, s), link_bw, p.linkLatency,
                p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                row[static_cast<std::size_t>(s)]->setSinkQueue(
                    switchQueue(s));
            switches[static_cast<std::size_t>(s)]->attachUplink(
                g, row[static_cast<std::size_t>(s)].get());

            auto dl = std::make_unique<CreditLink>(
                switchQueue(s), strfmt("dn.s%d.g%d", s, g), link_bw,
                p.linkLatency, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                dl->setSinkQueue(eq);
            switches[static_cast<std::size_t>(s)]->attachDownlink(
                g, dl.get());
            down[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] =
                std::move(dl);
        }
    }
}

void
Fabric::buildTiered()
{
    const int gpp = p.gpusPerGroup();
    const int leaves = p.numLeaves();
    const double rail_bw = p.perLinkBytesPerCycle();
    const double tier_bw = p.effectiveTierLinkBytesPerCycle();
    const Cycle tier_lat = p.effectiveTierLinkLatency();

    // Leaves own ports [0, gpp) for local GPUs and [gpp, gpp+spines)
    // for the spines; spines own one port per leaf.
    switches.reserve(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s) {
        int ports = p.isSpineSwitch(s) ? leaves : gpp + p.numSpines;
        switches.push_back(std::make_unique<SwitchChip>(
            switchQueue(s), s, switchNodeId(s), ports, p.sw));
        if (!shq)
            switches.back()->setPacketIds(&pktIds);
    }

    up.resize(static_cast<std::size_t>(p.numGpus));
    down.resize(static_cast<std::size_t>(leaves));
    for (int l = 0; l < leaves; ++l)
        down[static_cast<std::size_t>(l)].resize(
            static_cast<std::size_t>(gpp));

    for (GpuId g = 0; g < p.numGpus; ++g) {
        int grp = g / gpp;
        int local = g % gpp;
        auto &row = up[static_cast<std::size_t>(g)];
        row.resize(static_cast<std::size_t>(p.railsPerGroup));
        for (int r = 0; r < p.railsPerGroup; ++r) {
            int l = p.leafIndex(grp, r);
            row[static_cast<std::size_t>(r)] = std::make_unique<CreditLink>(
                eq, strfmt("up.g%d.l%d", g, l), rail_bw, p.linkLatency,
                p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                row[static_cast<std::size_t>(r)]->setSinkQueue(
                    switchQueue(l));
            switches[static_cast<std::size_t>(l)]->attachUplink(
                local, row[static_cast<std::size_t>(r)].get());

            auto dl = std::make_unique<CreditLink>(
                switchQueue(l), strfmt("dn.l%d.g%d", l, g), rail_bw,
                p.linkLatency, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                dl->setSinkQueue(eq);
            switches[static_cast<std::size_t>(l)]->attachDownlink(
                local, dl.get());
            down[static_cast<std::size_t>(l)][static_cast<std::size_t>(
                local)] = std::move(dl);
        }
    }

    tierUp.resize(static_cast<std::size_t>(leaves));
    tierDown.resize(static_cast<std::size_t>(p.numSpines));
    for (int k = 0; k < p.numSpines; ++k)
        tierDown[static_cast<std::size_t>(k)].resize(
            static_cast<std::size_t>(leaves));

    for (int l = 0; l < leaves; ++l) {
        auto &row = tierUp[static_cast<std::size_t>(l)];
        row.resize(static_cast<std::size_t>(p.numSpines));
        for (int k = 0; k < p.numSpines; ++k) {
            int spine = leaves + k;
            row[static_cast<std::size_t>(k)] = std::make_unique<CreditLink>(
                switchQueue(l), strfmt("t_up.l%d.k%d", l, k), tier_bw,
                tier_lat, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                row[static_cast<std::size_t>(k)]->setSinkQueue(
                    switchQueue(spine));
            switches[static_cast<std::size_t>(spine)]->attachUplink(
                l, row[static_cast<std::size_t>(k)].get());

            auto dl = std::make_unique<CreditLink>(
                switchQueue(spine), strfmt("t_dn.k%d.l%d", k, l), tier_bw,
                tier_lat, p.sw.numVcs, p.vcCredits, p.utilBinWidth);
            if (shq)
                dl->setSinkQueue(switchQueue(l));
            switches[static_cast<std::size_t>(l)]->attachUplink(
                gpp + k, dl.get());
            switches[static_cast<std::size_t>(spine)]->attachDownlink(
                l, dl.get());
            // A leaf's spine-facing output port carries its uplink.
            switches[static_cast<std::size_t>(l)]->attachDownlink(
                gpp + k, row[static_cast<std::size_t>(k)].get());
            tierDown[static_cast<std::size_t>(k)]
                    [static_cast<std::size_t>(l)] = std::move(dl);
        }
    }

    for (auto &chip : switches)
        chip->setPortRouter(this);
}

int
Fabric::outputPort(SwitchId sw, const Packet &pkt) const
{
    const int gpp = p.gpusPerGroup();
    if (p.isSpineSwitch(sw)) {
        if (!isSwitchNode(pkt.dst))
            return p.leafIndex(pkt.dst / gpp, railFor(pkt));
        int s = pkt.dst - p.numGpus;
        return p.isSpineSwitch(s) ? -1 : s;
    }
    if (!isSwitchNode(pkt.dst)) {
        if (pkt.dst / gpp == sw / p.railsPerGroup)
            return pkt.dst % gpp;
        return gpp + spinePort(pkt);
    }
    int s = pkt.dst - p.numGpus;
    if (p.isSpineSwitch(s))
        return gpp + (s - p.numLeaves());
    // Foreign leaf: reachable only through a spine.
    return gpp + spinePort(pkt);
}

int
Fabric::spinePort(const Packet &pkt) const
{
    return pkt.type == PacketType::groupSyncReq
               ? route.spineForGroup(pkt.group, p.numSpines)
               : route.spineForAddr(pkt.addr, p.numSpines);
}

int
Fabric::railFor(const Packet &pkt) const
{
    return pkt.type == PacketType::groupSyncReq
               ? route.switchForGroup(pkt.group)
               : route.switchForAddr(pkt.addr);
}

void
Fabric::attachGpu(GpuId g, PacketSink *sink)
{
    if (!p.multiTier()) {
        for (SwitchId s = 0; s < p.numSwitches; ++s)
            down[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)]
                ->setSink(sink);
        return;
    }
    int gpp = p.gpusPerGroup();
    for (int r = 0; r < p.railsPerGroup; ++r)
        down[static_cast<std::size_t>(p.leafIndex(g / gpp, r))]
            [static_cast<std::size_t>(g % gpp)]
                ->setSink(sink);
}

void
Fabric::sendFromGpu(GpuId g, Packet &&pkt)
{
    pkt.vc = policedVc(pkt.vc, p.sw.unifiedDataVc);
    if (!p.multiTier()) {
        SwitchId s;
        if (isSwitchNode(pkt.dst)) {
            s = pkt.dst - p.numGpus;
        } else if (pkt.type == PacketType::groupSyncReq) {
            s = route.switchForGroup(pkt.group);
        } else {
            s = route.switchForAddr(pkt.addr);
        }
        up[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)]->send(
            std::move(pkt));
        return;
    }
    int grp = g / p.gpusPerGroup();
    int rail;
    if (isSwitchNode(pkt.dst)) {
        int s = pkt.dst - p.numGpus;
        if (!p.isSpineSwitch(s) && s / p.railsPerGroup == grp)
            rail = s % p.railsPerGroup; // own-group leaf: direct rail
        else
            rail = railFor(pkt); // spine/foreign leaf: hashed rail up
    } else {
        rail = railFor(pkt);
    }
    up[static_cast<std::size_t>(g)][static_cast<std::size_t>(rail)]->send(
        std::move(pkt));
}

int
Fabric::mergeNode(GpuId g, Addr addr) const
{
    SwitchId s = route.switchForAddr(addr);
    if (p.multiTier())
        s = p.leafIndex(g / p.gpusPerGroup(), s);
    return switchNodeId(s);
}

int
Fabric::syncNode(GpuId g, GroupId group) const
{
    SwitchId s = route.switchForGroup(group);
    if (p.multiTier())
        s = p.leafIndex(g / p.gpusPerGroup(), s);
    return switchNodeId(s);
}

int
Fabric::spineNodeForAddr(Addr addr) const
{
    if (!p.multiTier())
        panic("spineNodeForAddr on a flat fabric");
    return switchNodeId(p.numLeaves() +
                        route.spineForAddr(addr, p.numSpines));
}

int
Fabric::spineNodeForGroup(GroupId group) const
{
    if (!p.multiTier())
        panic("spineNodeForGroup on a flat fabric");
    return switchNodeId(p.numLeaves() +
                        route.spineForGroup(group, p.numSpines));
}

CreditLink &
Fabric::uplink(GpuId g, int i)
{
    return *up[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)];
}

CreditLink &
Fabric::downlink(SwitchId s, GpuId g)
{
    if (!p.multiTier())
        return *down[static_cast<std::size_t>(s)]
                    [static_cast<std::size_t>(g)];
    int gpp = p.gpusPerGroup();
    if (p.isSpineSwitch(s) || s / p.railsPerGroup != g / gpp)
        panic("downlink(%d, %d): switch is not a leaf of the GPU's "
              "group", s, g);
    return *down[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(g % gpp)];
}

const CreditLink &
Fabric::uplink(GpuId g, int i) const
{
    return *up[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)];
}

const CreditLink &
Fabric::downlink(SwitchId s, GpuId g) const
{
    return const_cast<Fabric *>(this)->downlink(s, g);
}

CreditLink &
Fabric::tierUplink(int leaf, int spine)
{
    return *tierUp[static_cast<std::size_t>(leaf)]
                  [static_cast<std::size_t>(spine)];
}

CreditLink &
Fabric::tierDownlink(int spine, int leaf)
{
    return *tierDown[static_cast<std::size_t>(spine)]
                    [static_cast<std::size_t>(leaf)];
}

void
Fabric::setProfiler(CausalProfiler *pr)
{
    // Containers are walked in forEachLink visit order, so the dense
    // link ids — and with them every profile-graph node and the
    // merged edge log — are identical across runs and shard counts.
    auto attach = [pr](CreditLink &l) {
        l.setProfiler(pr,
                      profnode::link(pr->addLink(l.name())));
    };
    for (auto &row : up)
        for (auto &l : row)
            attach(*l);
    for (auto &row : down)
        for (auto &l : row)
            attach(*l);
    for (auto &row : tierUp)
        for (auto &l : row)
            attach(*l);
    for (auto &row : tierDown)
        for (auto &l : row)
            attach(*l);
    for (auto &sw : switches)
        sw->setProfiler(pr);
}

void
Fabric::forEachLink(
    const std::function<void(const CreditLink &)> &fn) const
{
    forEachLink([&fn](const CreditLink &l, const LinkEndpoints &) {
        fn(l);
    });
}

void
Fabric::forEachLink(
    const std::function<void(const CreditLink &,
                             const LinkEndpoints &)> &fn) const
{
    const int gpp = p.multiTier() ? p.gpusPerGroup() : 0;
    for (GpuId g = 0; g < static_cast<GpuId>(up.size()); ++g) {
        const auto &row = up[static_cast<std::size_t>(g)];
        for (int i = 0; i < static_cast<int>(row.size()); ++i) {
            int s = p.multiTier() ? p.leafIndex(g / gpp, i) : i;
            fn(*row[static_cast<std::size_t>(i)],
               {g, switchNodeId(s)});
        }
    }
    for (SwitchId s = 0; s < static_cast<SwitchId>(down.size()); ++s) {
        const auto &row = down[static_cast<std::size_t>(s)];
        for (int i = 0; i < static_cast<int>(row.size()); ++i) {
            // Tiered rows are leaf-indexed over local GPUs; the GPU id
            // recomposes from the leaf's group and the local index.
            GpuId g = p.multiTier()
                          ? (s / p.railsPerGroup) * gpp + i
                          : i;
            fn(*row[static_cast<std::size_t>(i)],
               {switchNodeId(s), g});
        }
    }
    if (!p.multiTier())
        return;
    const int leaves = p.numLeaves();
    for (int l = 0; l < static_cast<int>(tierUp.size()); ++l) {
        const auto &row = tierUp[static_cast<std::size_t>(l)];
        for (int k = 0; k < static_cast<int>(row.size()); ++k)
            fn(*row[static_cast<std::size_t>(k)],
               {switchNodeId(l), switchNodeId(leaves + k)});
    }
    for (int k = 0; k < static_cast<int>(tierDown.size()); ++k) {
        const auto &row = tierDown[static_cast<std::size_t>(k)];
        for (int l = 0; l < static_cast<int>(row.size()); ++l)
            fn(*row[static_cast<std::size_t>(l)],
               {switchNodeId(leaves + k), switchNodeId(l)});
    }
}

std::vector<const CreditLink *>
Fabric::allLinks(int dir) const
{
    std::vector<const CreditLink *> ls;
    if (dir == 0 || dir == 2) {
        for (const auto &row : up)
            for (const auto &l : row)
                ls.push_back(l.get());
        for (const auto &row : tierUp)
            for (const auto &l : row)
                ls.push_back(l.get());
    }
    if (dir == 1 || dir == 2) {
        for (const auto &row : down)
            for (const auto &l : row)
                ls.push_back(l.get());
        for (const auto &row : tierDown)
            for (const auto &l : row)
                ls.push_back(l.get());
    }
    return ls;
}

double
Fabric::linkSetUtilization(const std::vector<const CreditLink *> &ls,
                           Cycle t0, Cycle t1) const
{
    if (ls.empty() || t1 <= t0)
        return 0.0;
    double total = 0.0;
    for (const auto *l : ls) {
        const TimeSeries &u = l->utilization();
        Cycle w = u.binWidth();
        std::size_t first = static_cast<std::size_t>(t0 / w);
        std::size_t last = static_cast<std::size_t>((t1 + w - 1) / w);
        double bytes = 0.0;
        for (std::size_t i = first; i < last; ++i)
            bytes += u.binValue(i);
        double cap = l->bytesPerCycle() * static_cast<double>(t1 - t0);
        total += std::min(1.0, bytes / cap);
    }
    return total / static_cast<double>(ls.size());
}

double
Fabric::avgUtilization(Cycle t0, Cycle t1) const
{
    return linkSetUtilization(allLinks(2), t0, t1);
}

double
Fabric::dirUtilization(bool up_dir, Cycle t0, Cycle t1) const
{
    return linkSetUtilization(allLinks(up_dir ? 0 : 1), t0, t1);
}

std::vector<double>
Fabric::utilizationSeries(Cycle t0, Cycle t1) const
{
    auto ls = allLinks(2);
    std::vector<double> out;
    if (ls.empty() || t1 <= t0)
        return out;
    Cycle w = p.utilBinWidth;
    std::size_t first = static_cast<std::size_t>(t0 / w);
    std::size_t last = static_cast<std::size_t>((t1 + w - 1) / w);
    out.assign(last - first, 0.0);
    for (const auto *l : ls) {
        double cap = l->bytesPerCycle() * static_cast<double>(w);
        for (std::size_t i = first; i < last; ++i) {
            out[i - first] +=
                std::min(1.0, l->utilization().binValue(i) / cap);
        }
    }
    for (auto &v : out)
        v /= static_cast<double>(ls.size());
    return out;
}

std::uint64_t
Fabric::totalWireBytes() const
{
    std::uint64_t n = 0;
    for (const auto *l : allLinks(2))
        n += l->totalWireBytes();
    return n;
}

void
Fabric::registerMetrics(MetricRegistry &reg,
                        const std::string &prefix) const
{
    if (!p.multiTier()) {
        for (int g = 0; g < p.numGpus; ++g) {
            for (int s = 0; s < p.numSwitches; ++s) {
                up[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)]
                    ->registerMetrics(reg, prefix + ".up.g" +
                                               std::to_string(g) + ".s" +
                                               std::to_string(s));
                down[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)]
                    ->registerMetrics(reg, prefix + ".dn.s" +
                                               std::to_string(s) + ".g" +
                                               std::to_string(g));
            }
        }
        return;
    }
    int gpp = p.gpusPerGroup();
    for (int g = 0; g < p.numGpus; ++g) {
        for (int r = 0; r < p.railsPerGroup; ++r) {
            int l = p.leafIndex(g / gpp, r);
            up[static_cast<std::size_t>(g)][static_cast<std::size_t>(r)]
                ->registerMetrics(reg, prefix + ".up.g" +
                                           std::to_string(g) + ".l" +
                                           std::to_string(l));
            down[static_cast<std::size_t>(l)]
                [static_cast<std::size_t>(g % gpp)]
                    ->registerMetrics(reg, prefix + ".dn.l" +
                                               std::to_string(l) + ".g" +
                                               std::to_string(g));
        }
    }
    for (int l = 0; l < p.numLeaves(); ++l) {
        for (int k = 0; k < p.numSpines; ++k) {
            tierUp[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)]
                ->registerMetrics(reg, prefix + ".t_up.l" +
                                           std::to_string(l) + ".k" +
                                           std::to_string(k));
            tierDown[static_cast<std::size_t>(k)]
                    [static_cast<std::size_t>(l)]
                        ->registerMetrics(reg, prefix + ".t_dn.k" +
                                                   std::to_string(k) +
                                                   ".l" +
                                                   std::to_string(l));
        }
    }
}

} // namespace cais
