#include "noc/network.hh"

#include <algorithm>

#include "analysis/causal_profile.hh"
#include "common/log.hh"

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

Fabric::Fabric(EventQueue &eq_, const FabricParams &params)
    : eq(eq_), p(validated(params)),
      route(p.multiTier() ? p.railsPerGroup : p.numSwitches,
            p.interleaveBytes)
{
    if (p.multiTier())
        buildTiered();
    else
        buildFlat();
}

void
Fabric::buildFlat()
{
    double link_bw = p.perLinkBytesPerCycle();
    MetricPath name(""); // link names fit the small-string buffer

    switches.reserve(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s)
        switches.push_back(std::make_unique<SwitchChip>(
            eq, pktIds, s, switchNodeId(s), p.numGpus, p.sw));

    up.resize(static_cast<std::size_t>(p.numGpus));
    down.resize(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s)
        down[static_cast<std::size_t>(s)].resize(
            static_cast<std::size_t>(p.numGpus));

    for (GpuId g = 0; g < p.numGpus; ++g) {
        auto &row = up[static_cast<std::size_t>(g)];
        row.resize(static_cast<std::size_t>(p.numSwitches));
        for (SwitchId s = 0; s < p.numSwitches; ++s) {
            row[static_cast<std::size_t>(s)] = std::make_unique<CreditLink>(
                eq, name("up.g", g, ".s", s), link_bw, p.linkLatency,
                p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
            switches[static_cast<std::size_t>(s)]->attachUplink(
                g, row[static_cast<std::size_t>(s)].get());

            auto dl = std::make_unique<CreditLink>(
                eq, name("dn.s", s, ".g", g), link_bw,
                p.linkLatency, p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
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
    MetricPath name(""); // link names fit the small-string buffer

    // Leaves own ports [0, gpp) for local GPUs and [gpp, gpp+spines)
    // for the spines; spines own one port per leaf.
    switches.reserve(static_cast<std::size_t>(p.numSwitches));
    for (SwitchId s = 0; s < p.numSwitches; ++s) {
        int ports = p.isSpineSwitch(s) ? leaves : gpp + p.numSpines;
        switches.push_back(std::make_unique<SwitchChip>(
            eq, pktIds, s, switchNodeId(s), ports, p.sw));
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
                eq, name("up.g", g, ".l", l), rail_bw, p.linkLatency,
                p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
            switches[static_cast<std::size_t>(l)]->attachUplink(
                local, row[static_cast<std::size_t>(r)].get());

            auto dl = std::make_unique<CreditLink>(
                eq, name("dn.l", l, ".g", g), rail_bw,
                p.linkLatency, p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
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
                eq, name("t_up.l", l, ".k", k), tier_bw,
                tier_lat, p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
            switches[static_cast<std::size_t>(spine)]->attachUplink(
                l, row[static_cast<std::size_t>(k)].get());

            auto dl = std::make_unique<CreditLink>(
                eq, name("t_dn.k", k, ".l", l), tier_bw,
                tier_lat, p.sw.numVcs, p.sw.vcDepth, p.utilBinWidth);
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
    // edge log — are identical across runs.
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
    for (const auto *rows : {&up, &down, &tierUp, &tierDown})
        for (const auto &row : *rows)
            for (const auto &l : row)
                fn(*l);
}

Fabric::Utilization
Fabric::utilization(Cycle t0, Cycle t1) const
{
    Utilization out;
    if (t1 <= t0)
        return out;
    const Cycle w = p.utilBinWidth; // every link's TimeSeries bin width
    const auto first = static_cast<std::size_t>(t0 / w);
    const auto last = static_cast<std::size_t>((t1 + w - 1) / w);
    out.series.assign(last - first, 0.0);
    // Up links (GPU uplinks, then leaf-to-spine) before down links,
    // so avg sums every link's fraction in one fixed order and up/dn
    // each sum a contiguous run of it.
    double total = 0.0;
    std::size_t n_up = 0, n_dn = 0;
    for (const auto *rows : {&up, &tierUp, &down, &tierDown}) {
        const bool up_dir = rows == &up || rows == &tierUp;
        for (const auto &row : *rows)
            for (const auto &l : row) {
                const TimeSeries &u = l->utilization();
                const double bin_cap =
                    l->bytesPerCycle() * static_cast<double>(w);
                double bytes = 0.0;
                for (std::size_t i = first; i < last; ++i) {
                    const double b = u.binValue(i);
                    bytes += b;
                    out.series[i - first] += std::min(1.0, b / bin_cap);
                }
                const double f = std::min(
                    1.0, bytes / (l->bytesPerCycle() *
                                  static_cast<double>(t1 - t0)));
                total += f;
                (up_dir ? out.up : out.dn) += f;
                ++(up_dir ? n_up : n_dn);
            }
    }
    const auto mean = [](double sum, std::size_t n) {
        return n ? sum / static_cast<double>(n) : 0.0;
    };
    out.avg = mean(total, n_up + n_dn);
    out.up = mean(out.up, n_up);
    out.dn = mean(out.dn, n_dn);
    for (double &v : out.series)
        v = mean(v, n_up + n_dn);
    return out;
}

double
Fabric::avgUtilization(Cycle t0, Cycle t1) const
{
    return utilization(t0, t1).avg;
}

double
Fabric::dirUtilization(bool up_dir, Cycle t0, Cycle t1) const
{
    const Utilization u = utilization(t0, t1);
    return up_dir ? u.up : u.dn;
}

std::vector<double>
Fabric::utilizationSeries(Cycle t0, Cycle t1) const
{
    return utilization(t0, t1).series;
}

std::uint64_t
Fabric::totalWireBytes() const
{
    std::uint64_t n = 0;
    for (const auto *rows : {&up, &down, &tierUp, &tierDown})
        for (const auto &row : *rows)
            for (const auto &l : row)
                n += l->totalWireBytes();
    return n;
}

void
Fabric::registerMetrics(MetricRegistry &reg,
                        const std::string &prefix) const
{
    // In path order: dn < t_dn < t_up < up, indices through
    // forEachInPathOrder.
    MetricPath path(prefix);
    auto at = [](const auto &links, int i, int j) {
        return links[static_cast<std::size_t>(i)]
                    [static_cast<std::size_t>(j)].get();
    };
    if (!p.multiTier()) {
        forEachInPathOrder(0, p.numSwitches, [&](int s) {
            forEachInPathOrder(0, p.numGpus, [&](int g) {
                at(down, s, g)->registerMetrics(
                    reg, path("dn.s", s, ".g", g));
            });
        });
        forEachInPathOrder(0, p.numGpus, [&](int g) {
            forEachInPathOrder(0, p.numSwitches, [&](int s) {
                at(up, g, s)->registerMetrics(
                    reg, path("up.g", g, ".s", s));
            });
        });
        return;
    }
    // Leaf l serves GPU group l / railsPerGroup; GPU g reaches one leaf
    // per rail of its group.
    const int gpp = p.gpusPerGroup();
    forEachInPathOrder(0, p.numLeaves(), [&](int l) {
        const int first = l / p.railsPerGroup * gpp;
        forEachInPathOrder(first, first + gpp, [&](int g) {
            at(down, l, g - first)->registerMetrics(
                reg, path("dn.l", l, ".g", g));
        });
    });
    forEachInPathOrder(0, p.numSpines, [&](int k) {
        forEachInPathOrder(0, p.numLeaves(), [&](int l) {
            at(tierDown, k, l)->registerMetrics(
                reg, path("t_dn.k", k, ".l", l));
        });
    });
    forEachInPathOrder(0, p.numLeaves(), [&](int l) {
        forEachInPathOrder(0, p.numSpines, [&](int k) {
            at(tierUp, l, k)->registerMetrics(
                reg, path("t_up.l", l, ".k", k));
        });
    });
    forEachInPathOrder(0, p.numGpus, [&](int g) {
        const int first = p.leafIndex(g / gpp, 0);
        forEachInPathOrder(first, first + p.railsPerGroup, [&](int l) {
            at(up, g, l - first)->registerMetrics(
                reg, path("up.g", g, ".l", l));
        });
    });
}

} // namespace cais
