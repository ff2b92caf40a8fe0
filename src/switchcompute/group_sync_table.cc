#include "switchcompute/group_sync_table.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"
#include "noc/network.hh"

namespace cais
{

GroupSyncTable::GroupSyncTable(SwitchChip &sw_, const TierInfo &tier_)
    : sw(sw_), tier(tier_)
{
}

void
GroupSyncTable::broadcastRelease(const NodeMask &mask, GroupId group,
                                 std::uint64_t phase)
{
    mask.forEach([this, group, phase](int node) {
        Packet rel = sw.makePacket(PacketType::groupSyncRelease, node);
        rel.group = group;
        rel.cookie = phase;
        rel.issuerGpu = node;
        sw.sendToGpu(std::move(rel));
    });
    rels.inc();
}

void
GroupSyncTable::handleSyncReq(Packet &&pkt)
{
    reqs.inc();
    if (pkt.group == invalidId)
        panic("sync request without group id");
    if (pkt.expected <= 0 || pkt.expected > tier.gpus(sw))
        panic("sync request with bad participant count %d", pkt.expected);

    Cycle now = sw.eventQueue().now();
    auto &e = pending[key(pkt.group, pkt.cookie)];
    if (e.count == 0)
        e.first = now;

    if (tier.isLeaf() && tier.numGroups > 1) {
        // The leaf cannot know how many of the pkt.expected global
        // participants are local (a reduction group's home GPU never
        // registers, and it may live under any leaf), so it does not
        // threshold: it records the local registrant for the release
        // fan-out and forwards the registration upstream, where the
        // spine counts all of them. The entry stays pending until the
        // spine's release fans back out to the local GPUs.
        if (e.mask.test(pkt.issuerGpu))
            return; // each GPU registers once per (group, phase)
        e.mask.set(pkt.issuerGpu);
        ++e.count;
        Packet up = sw.makePacket(
            PacketType::groupSyncReq,
            tier.fabric->spineNodeForGroup(pkt.group));
        up.group = pkt.group;
        up.cookie = pkt.cookie;
        up.issuerGpu = sw.nodeId();
        up.expected = pkt.expected;
        up.tierHop = 1;
        sw.sendToGpu(std::move(up));
        return;
    }

    if (tier.isSpine()) {
        // One forwarded packet per registrant; the issuer is the leaf
        // node, so duplicates cannot be masked out here — they cannot
        // occur either, because every GPU registers at most once and
        // its leaf forwards at most once per GPU.
        e.mask.set(pkt.issuerGpu);
        ++e.count;
    } else {
        if (e.mask.test(pkt.issuerGpu)) {
            // Duplicate registration from one node (e.g. retried
            // packet); count each node once.
            return;
        }
        e.mask.set(pkt.issuerGpu);
        ++e.count;
    }

    if (e.count < pkt.expected)
        return;

    // All participants registered.
    window.sample(static_cast<double>(now - e.first));
    GroupId group = pkt.group;
    std::uint64_t phase = pkt.cookie;
    if (hooks)
        hooks->onSyncWindow(sw.id(), group, static_cast<int>(phase),
                            e.first, now);

    // Rendezvous-wait edge: the barrier spanned the registration
    // window; the closing registrant (the active cause) released it,
    // and the release packets it triggers are caused by the barrier.
    CausalProfiler *prof = sw.profiler();
    if (prof)
        prof->record(profnode::sync(sw.id()), WaitClass::syncBarrier,
                     e.first, now);
    CausalProfiler::ScopedCause sc(prof, profnode::sync(sw.id()), now);

    NodeMask mask = e.mask;
    pending.erase(key(group, phase));
    broadcastRelease(mask, group, phase);
}

void
GroupSyncTable::handleRelease(Packet &&pkt)
{
    auto it = pending.find(key(pkt.group, pkt.cookie));
    if (it == pending.end()) {
        warn("sync release for unknown group %d", pkt.group);
        return;
    }
    NodeMask mask = it->second.mask;
    pending.erase(it);
    broadcastRelease(mask, pkt.group, pkt.cookie);
}

void
GroupSyncTable::registerMetrics(MetricRegistry &reg,
                                const std::string &prefix) const
{
    MetricPath path(prefix);
    reg.addCounter(path("releases"), &rels);
    reg.addCounter(path("requests"), &reqs);
    reg.addHistogram(path("window"), &window);
}

} // namespace cais
