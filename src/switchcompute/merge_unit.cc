#include "switchcompute/merge_unit.hh"

#include <string>

#include "analysis/causal_profile.hh"
#include "common/log.hh"
#include "noc/network.hh"

namespace cais
{

MergeUnit::MergeUnit(SwitchChip &sw_, const MergeParams &params,
                     const TierInfo &tier_)
    : sw(sw_), p(params), tier(tier_), policy(params.timeout),
      throttle(tier_.gpus(sw_), params.throttleThreshold,
               params.throttlePause, params.throttleHintInterval)
{
    // Tables are indexed by the home GPU, a fabric-global id: on a
    // tiered fabric a leaf can open sessions homed at remote GPUs.
    int homes = tier.gpus(sw);
    tables.reserve(static_cast<std::size_t>(homes));
    for (int g = 0; g < homes; ++g)
        tables.emplace_back(p.tableBytesPerPort, p.chunkBytes);
}

void
MergeUnit::noteContribution(GroupId group, GpuId g, Cycle now)
{
    if (!p.throttleEnabled || !throttle.onContribution(group, g, now))
        return;
    if (hooks)
        hooks->onThrottleHint(sw.id(), g, group, now);
    Packet hint = sw.makePacket(PacketType::throttleHint, g);
    hint.group = group;
    hint.cookie = throttle.pause();
    hint.issuerGpu = g;
    sw.sendToGpu(std::move(hint));
}

void
MergeUnit::probeArrival(Addr addr, bool is_load, int expected)
{
    std::uint64_t key = (addr << 1) | (is_load ? 1u : 0u);
    Cycle now = sw.eventQueue().now();
    auto &e = probe[key];
    if (e.count == 0) {
        e.first = now;
        e.expected = expected;
    }
    ++e.count;
    if (e.count >= e.expected) {
        double d = static_cast<double>(now - e.first);
        stagger.sample(d);
        if (is_load)
            loadStagger.sample(d);
        else
            redStagger.sample(d);
        probe.erase(key);
    }
}

void
MergeUnit::noteOpen(bool is_load)
{
    if (is_load) {
        if (++liveLoads > peakLoads)
            peakLoads = liveLoads;
    } else {
        if (++liveReds > peakReds)
            peakReds = liveReds;
    }
}

void
MergeUnit::noteClose(bool is_load)
{
    if (is_load) {
        if (liveLoads > 0)
            --liveLoads;
    } else {
        if (liveReds > 0)
            --liveReds;
    }
}

void
MergeUnit::respondLoad(const Packet &req, std::uint32_t bytes)
{
    Packet resp = sw.makePacket(PacketType::caisLoadResp, req.issuerGpu);
    resp.addr = req.addr;
    resp.payloadBytes = bytes;
    resp.cookie = req.cookie;
    resp.issuerGpu = req.issuerGpu;
    resp.kernel = req.kernel;
    resp.tb = req.tb;
    resp.group = req.group;
    sw.sendToGpu(std::move(resp));
}

void
MergeUnit::issueFetch(GpuId home, Addr addr, std::uint32_t bytes,
                      bool bypass, const Packet *original, KernelId kernel,
                      GroupId group)
{
    std::uint64_t id = nextFetchId++;
    FetchCtx &ctx = fetches[id];
    ctx.port = home;
    ctx.addr = addr;
    ctx.bypass = bypass;
    if (bypass && original)
        ctx.original = *original;

    if (tier.isLeaf() && tier.numGroups > 1 && !bypass) {
        // Proxy the fetch through the spine's merge unit so the home
        // GPU still transmits the data only once fabric-wide: every
        // group's leaf registers one caisLoadReq with the spine.
        Packet rd = sw.makePacket(PacketType::caisLoadReq,
                                  tier.fabric->spineNodeForAddr(addr));
        rd.addr = addr;
        rd.reqBytes = bytes;
        rd.cookie = cookieTagMerge | id;
        rd.kernel = kernel;
        rd.group = group;
        rd.expected = tier.numGroups;
        rd.issuerGpu = sw.nodeId();
        rd.tierHop = 1;
        sw.sendToGpu(std::move(rd));
        st.fetches.inc();
        return;
    }

    Packet rd = sw.makePacket(PacketType::readReq, home);
    rd.addr = addr;
    rd.reqBytes = bytes;
    rd.cookie = cookieTagMerge | id;
    rd.kernel = kernel;
    sw.sendToGpu(std::move(rd));
    st.fetches.inc();
    if (bypass)
        st.bypassFetches.inc();
}

void
MergeUnit::handleLoadReq(Packet &&pkt)
{
    st.loadReqs.inc();
    GpuId home = addrHomeGpu(pkt.addr);
    // Per-tier participant rewrite: a leaf session completes once all
    // local requesters are served (the spine proxy carries the group
    // count set by issueFetch).
    if (tier.isLeaf())
        pkt.expected = tier.localExpected(pkt.expected, home, sw);
    probeArrival(pkt.addr, true, pkt.expected);
    Cycle now = sw.eventQueue().now();

    MergingTable &tbl = table(home);
    MergeEntry *e = tbl.find(pkt.addr, true);
    if (e) {
        st.loadHits.inc();
        ++e->count;
        e->contribMask.set(pkt.issuerGpu);
        e->lastAccess = now;
        noteContribution(pkt.group, pkt.issuerGpu, now);
        if (e->state == SessionState::loadWait) {
            // Data still pending: defer in the Content Array.
            e->pendingRequesters.push_back(std::move(pkt));
        } else {
            // Load-Ready: serve from cached data immediately.
            respondLoad(pkt, e->bytes);
            if (e->count >= e->expected)
                closeSession(home, e, true);
        }
        return;
    }

    // Miss: open a new session, evicting if necessary.
    if (tbl.full()) {
        MergeEntry *victim = policy.pickLruVictim(tbl);
        if (!victim) {
            // Every entry is Load-Wait: bypass the merge unit
            // entirely to avoid thrashing (Sec. III-A.4).
            evSt.deferredEvictions.inc();
            issueFetch(home, pkt.addr, pkt.reqBytes, true, &pkt,
                       pkt.kernel, pkt.group);
            return;
        }
        evictEntry(home, victim, false);
    }

    e = tbl.allocate(pkt.addr, true);
    st.sessionsOpened.inc();
    noteOpen(true);
    if (hooks)
        hooks->onMergeSessionOpen(sw.id(), home, pkt.addr, true, now);
    e->expected = pkt.expected;
    e->group = pkt.group;
    e->count = 1;
    e->contribMask.set(pkt.issuerGpu);
    e->allocatedAt = now;
    e->firstRequestAt = now;
    e->lastAccess = now;
    e->bytes = pkt.reqBytes ? pkt.reqBytes : p.chunkBytes;
    noteContribution(pkt.group, pkt.issuerGpu, now);

    std::uint32_t bytes = e->bytes;
    Addr addr = pkt.addr;
    KernelId kernel = pkt.kernel;
    GroupId group = pkt.group;
    e->pendingRequesters.push_back(std::move(pkt));
    issueFetch(home, addr, bytes, false, nullptr, kernel, group);
    scheduleSweep();
}

void
MergeUnit::handleReadResp(Packet &&pkt)
{
    std::uint64_t id = pkt.cookie & cookieIdMask;
    auto it = fetches.find(id);
    if (it == fetches.end())
        panic("merge unit: response for unknown fetch %llu",
              static_cast<unsigned long long>(id));
    FetchCtx ctx = std::move(it->second);
    fetches.erase(it);

    if (ctx.bypass) {
        respondLoad(ctx.original, pkt.payloadBytes);
        return;
    }

    MergingTable &tbl = table(ctx.port);
    MergeEntry *e = tbl.find(ctx.addr, true);
    if (!e) {
        // The session vanished (cannot happen under the deferred-
        // eviction rule); drop the data defensively.
        warn("merge unit: fetch response for closed session");
        return;
    }

    e->state = SessionState::loadReady;
    e->lastAccess = sw.eventQueue().now();
    // Session-wait edge: deferred requesters sat in the Content Array
    // from the first ld.cais until the fetched data (the active cause,
    // the readResp ingress) arrived; the responses they trigger are
    // caused by the merge session completing.
    CausalProfiler *prof = sw.profiler();
    if (prof)
        prof->record(profnode::merge(sw.id()), WaitClass::mergeWait,
                     e->firstRequestAt, sw.eventQueue().now());
    CausalProfiler::ScopedCause sc(prof, profnode::merge(sw.id()),
                                   sw.eventQueue().now());
    // Serve every deferred requester from the Content Array.
    auto pend = std::move(e->pendingRequesters);
    e->pendingRequesters.clear();
    for (const Packet &req : pend)
        respondLoad(req, e->bytes);
    if (e->count >= e->expected)
        closeSession(ctx.port, e, true);
}

void
MergeUnit::handleRedReq(Packet &&pkt)
{
    st.redReqs.inc();
    GpuId home = addrHomeGpu(pkt.addr);
    // Per-tier participant rewrite: a leaf accumulates only its local
    // contributions and pushes one partial to the spine, which closes
    // once the partial counts sum to the fabric-global expectation.
    int global_expected = pkt.expected;
    if (tier.isLeaf())
        pkt.expected = tier.localExpected(global_expected, home, sw);
    probeArrival(pkt.addr, false,
                 tier.isSpine() ? tier.numGroups : pkt.expected);
    Cycle now = sw.eventQueue().now();

    MergingTable &tbl = table(home);
    MergeEntry *e = tbl.find(pkt.addr, false);
    if (!e) {
        if (tbl.full()) {
            MergeEntry *victim = policy.pickLruVictim(tbl);
            if (!victim) {
                // No evictable entry: forward this contribution
                // unmerged to preserve forward progress.
                evSt.deferredEvictions.inc();
                st.unmergedWrites.inc();
                if (tier.isLeaf() && tier.numGroups > 1) {
                    // Upstream: the spine still needs every count.
                    Packet w = sw.makePacket(PacketType::caisRedReq,
                                             tier.fabric->spineNodeForAddr(
                                                 pkt.addr));
                    w.addr = pkt.addr;
                    w.payloadBytes = pkt.payloadBytes;
                    w.kernel = pkt.kernel;
                    w.group = pkt.group;
                    w.contribs = 1;
                    w.expected = global_expected;
                    w.issuerGpu = sw.nodeId();
                    w.tierHop = 1;
                    sw.sendToGpu(std::move(w));
                    return;
                }
                Packet w = sw.makePacket(PacketType::caisMergedWrite, home);
                w.addr = pkt.addr;
                w.payloadBytes = pkt.payloadBytes;
                w.kernel = pkt.kernel;
                w.group = pkt.group;
                w.contribs = 1;
                sw.sendToGpu(std::move(w));
                return;
            }
            evictEntry(home, victim, false);
        }
        e = tbl.allocate(pkt.addr, false);
        st.sessionsOpened.inc();
        noteOpen(false);
        if (hooks)
            hooks->onMergeSessionOpen(sw.id(), home, pkt.addr, false,
                                      now);
        e->expected = pkt.expected;
        e->globalExpected = global_expected;
        e->group = pkt.group;
        e->allocatedAt = now;
        e->firstRequestAt = now;
        e->bytes = pkt.payloadBytes ? pkt.payloadBytes : p.chunkBytes;
        scheduleSweep();
    } else {
        st.redHits.inc();
    }

    // A spine contribution is a leaf partial carrying its merged count.
    e->count += (tier.isSpine() && pkt.contribs > 0) ? pkt.contribs : 1;
    e->contribMask.set(pkt.issuerGpu);
    e->lastAccess = now;
    if (e->group == invalidId)
        e->group = pkt.group;
    noteContribution(pkt.group, pkt.issuerGpu, now);

    if (e->count >= e->expected)
        closeSession(home, e, true);
}

void
MergeUnit::emitMergedWrite(const MergeEntry &e)
{
    Packet w = sw.makePacket(PacketType::caisMergedWrite, e.homeGpu);
    w.addr = e.addr;
    w.payloadBytes = e.bytes;
    w.group = e.group;
    w.contribs = e.count;
    st.mergedWrites.inc();

    Cycle delay = p.reduceDelay;
    // Session-wait edge: the reduction accumulated from the first
    // contribution until emission (including the ALU delay); the
    // closing contribution (the active cause) enabled it.
    if (CausalProfiler *prof = sw.profiler())
        prof->record(profnode::merge(sw.id()), WaitClass::mergeWait,
                     e.firstRequestAt, sw.eventQueue().now() + delay);
    sw.eventQueue().scheduleAfter(delay,
        [this, pkt = std::move(w)]() mutable {
        CausalProfiler::ScopedCause sc(sw.profiler(),
                                       profnode::merge(sw.id()),
                                       sw.eventQueue().now());
        sw.sendToGpu(std::move(pkt));
    });
}

void
MergeUnit::emitPartialUpstream(const MergeEntry &e)
{
    // The spine accumulates per-leaf counts until they sum to the
    // fabric-global expectation, so partial (evicted) sessions are
    // forwarded with their current count exactly once.
    Packet w = sw.makePacket(PacketType::caisRedReq,
                             tier.fabric->spineNodeForAddr(e.addr));
    w.addr = e.addr;
    w.payloadBytes = e.bytes;
    w.group = e.group;
    w.contribs = e.count;
    w.expected = e.globalExpected;
    w.issuerGpu = sw.nodeId();
    w.tierHop = 1;
    st.partialUpstream.inc();

    if (CausalProfiler *prof = sw.profiler())
        prof->record(profnode::merge(sw.id()), WaitClass::mergeWait,
                     e.firstRequestAt,
                     sw.eventQueue().now() + p.reduceDelay);
    sw.eventQueue().scheduleAfter(p.reduceDelay,
        [this, pkt = std::move(w)]() mutable {
        CausalProfiler::ScopedCause sc(sw.profiler(),
                                       profnode::merge(sw.id()),
                                       sw.eventQueue().now());
        sw.sendToGpu(std::move(pkt));
    });
}

void
MergeUnit::closeSession(GpuId port, MergeEntry *e, bool complete)
{
    noteClose(e->isLoad());
    if (e->state == SessionState::reduction) {
        if (tier.isLeaf() && tier.numGroups > 1)
            emitPartialUpstream(*e);
        else
            emitMergedWrite(*e);
    }
    throttle.onSessionClose(e->group, e->contribMask);
    if (complete)
        st.sessionsClosed.inc();
    if (hooks)
        hooks->onMergeSessionClose(sw.id(), port, e->addr, e->isLoad(),
                                   e->count, e->bytes, e->allocatedAt,
                                   sw.eventQueue().now(), complete);
    table(port).release(e);
}

void
MergeUnit::evictEntry(GpuId port, MergeEntry *e, bool timeout_evict)
{
    if (timeout_evict)
        evSt.timeoutEvictions.inc();
    else
        evSt.lruEvictions.inc();
    if (hooks)
        hooks->onMergeEviction(sw.id(), port, timeout_evict,
                               sw.eventQueue().now());
    // Reduction sessions flush their partial sum to the home GPU (the
    // memory controller completes the reduction); Load-Ready sessions
    // simply drop the cached data.
    closeSession(port, e, false);
}

void
MergeUnit::scheduleSweep()
{
    if (sweepScheduled)
        return;
    sweepScheduled = true;
    sw.eventQueue().scheduleAfter(p.timeout / 2 + 1,
                                  [this] { timeoutSweep(); });
}

void
MergeUnit::timeoutSweep()
{
    sweepScheduled = false;
    Cycle now = sw.eventQueue().now();
    bool any_live = false;
    for (GpuId port = 0; port < static_cast<GpuId>(tables.size());
         ++port) {
        MergingTable &tbl = table(port);
        for (MergeEntry *e : policy.expired(tbl, now))
            evictEntry(port, e, true);
        if (tbl.liveEntries() > 0)
            any_live = true;
    }
    if (any_live)
        scheduleSweep();
}

std::uint64_t
MergeUnit::peakTableBytes() const
{
    std::uint64_t peak = 0;
    for (const auto &t : tables)
        peak = std::max(peak, t.peakBytes());
    return peak;
}

std::uint64_t
MergeUnit::peakTableBytes(GpuId port) const
{
    return tables[static_cast<std::size_t>(port)].peakBytes();
}

std::size_t
MergeUnit::liveSessions() const
{
    std::size_t n = 0;
    for (const auto &t : tables)
        n += t.liveEntries();
    return n;
}

std::size_t
MergeUnit::storageEntries() const
{
    std::size_t n = 0;
    for (const auto &t : tables)
        n += t.storageEntries();
    return n;
}

std::uint64_t
MergeUnit::liveTableBytes(GpuId port) const
{
    return tables[static_cast<std::size_t>(port)].liveBytes();
}

void
MergeUnit::registerMetrics(MetricRegistry &reg,
                           const std::string &prefix) const
{
    // Leaves and ports in path order (see MetricRegistry).
    MetricPath path(prefix);
    reg.addCounter(path("bypassFetches"), &st.bypassFetches);
    reg.addCounter(path("evictions.deferred"), &evSt.deferredEvictions);
    reg.addCounter(path("evictions.lru"), &evSt.lruEvictions);
    reg.addCounter(path("evictions.timeout"), &evSt.timeoutEvictions);
    reg.addCounter(path("fetches"), &st.fetches);
    reg.addCounter(path("loadHits"), &st.loadHits);
    reg.addCounter(path("loadReqs"), &st.loadReqs);
    reg.addHistogram(path("loadStagger"), &loadStagger);
    reg.addCounter(path("mergedWrites"), &st.mergedWrites);
    if (tier.isLeaf())
        reg.addCounter(path("partialUpstream"), &st.partialUpstream);
    reg.addGaugeU64(path("peakLoadSessions"), [this] {
        return static_cast<std::uint64_t>(peakLoads);
    });
    reg.addGaugeU64(path("peakRedSessions"), [this] {
        return static_cast<std::uint64_t>(peakReds);
    });
    reg.addGaugeU64(path("peakTableBytes"),
                    [this] { return peakTableBytes(); });

    forEachInPathOrder(0, static_cast<int>(tables.size()), [&](int port) {
        const MergingTable *t = &tables[static_cast<std::size_t>(port)];
        reg.addGaugeU64(path("port", port, ".peakBytes"),
                        [t] { return t->peakBytes(); });
        reg.addGaugeU64(path("port", port, ".peakEntries"), [t] {
            return static_cast<std::uint64_t>(t->peakEntries());
        });
    });

    reg.addCounter(path("redHits"), &st.redHits);
    reg.addCounter(path("redReqs"), &st.redReqs);
    reg.addHistogram(path("redStagger"), &redStagger);
    reg.addCounter(path("sessionsClosed"), &st.sessionsClosed);
    reg.addCounter(path("sessionsOpened"), &st.sessionsOpened);
    reg.addHistogram(path("stagger"), &stagger);
    throttle.registerMetrics(reg, path("throttle"));
    reg.addCounter(path("unmergedWrites"), &st.unmergedWrites);
}

} // namespace cais
