#include "noc/credit_link.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

CreditLink::CreditLink(EventQueue &eq_, std::string name,
                       double bytes_per_cycle, Cycle latency, int num_vcs,
                       int vc_credits, Cycle util_bin_width)
    : eq(eq_), linkName(std::move(name)), bw(bytes_per_cycle),
      serDiv(bytes_per_cycle), lat(latency),
      vcs(static_cast<std::size_t>(num_vcs)), arb(num_vcs),
      util(util_bin_width)
{
    for (VcState &v : vcs)
        v.credits = vc_credits;
    if (bw <= 0.0)
        panic("link %s: non-positive bandwidth", linkName.c_str());
    if (vc_credits > 0)
        creditMask = num_vcs >= RoundRobinArbiter::maxInputs
                         ? ~std::uint64_t(0)
                         : (std::uint64_t(1) << num_vcs) - 1;
}

void
CreditLink::setProfiler(CausalProfiler *pr, std::uint64_t node)
{
    if (queuedMask != 0)
        panic("link %s: profiler attached with packets queued",
              linkName.c_str());
    prof = pr;
    profNode_ = node;
    profStamps = std::vector<Ring<ProfStamp>>(pr ? vcs.size() : 0);
}

void
CreditLink::send(Packet &&pkt)
{
    int vc = static_cast<int>(pkt.vc);
    if (vc < 0 || vc >= numVcs())
        panic("link %s: bad VC %d", linkName.c_str(), vc);
    if (prof)
        // Provenance stamp: who caused this send, and when it was
        // enqueued (the sender's ScopedCause runs in this event, so
        // cause time == now).
        profStamps[static_cast<std::size_t>(vc)].push_back(
            {prof->causeNode(), eq.now(), false});
    vcs[static_cast<std::size_t>(vc)].queue.push_back(std::move(pkt));
    queuedMask |= std::uint64_t(1) << vc;
    tryIssue();
}

void
CreditLink::returnCredit(int vc)
{
    // The credit travels the reverse channel; charge the link latency
    // but no serialization (credits ride dedicated wires).
    eq.scheduleAfter(lat, [this, vc] {
        ++vcs[static_cast<std::size_t>(vc)].credits;
        creditMask |= std::uint64_t(1) << vc;
        tryIssue();
    });
}

void
CreditLink::tryIssue()
{
    if (eq.now() < busyUntil) {
        if (!wakeScheduled) {
            wakeScheduled = true;
            eq.schedule(busyUntil, [this] {
                wakeScheduled = false;
                tryIssue();
            });
        }
        return;
    }

    int vc = arb.pick(queuedMask & creditMask);
    if (vc < 0) {
        // Every non-empty queue is blocked on credits (the serializer
        // is idle here); mark the heads so their queue-wait edge is
        // classed as a credit stall rather than wire occupancy.
        if (prof)
            for (auto &stamps : profStamps)
                if (!stamps.empty())
                    stamps.front().creditStalled = true;
        return;
    }

    auto idx = static_cast<std::size_t>(vc);
    VcState &st = vcs[idx];
    Packet pkt = std::move(st.queue.front());
    st.queue.pop_front();
    if (st.queue.empty())
        queuedMask &= ~(std::uint64_t(1) << vc);
    if (--st.credits == 0)
        creditMask &= ~(std::uint64_t(1) << vc);
    ProfStamp stamp;
    if (prof) {
        stamp = profStamps[idx].front();
        profStamps[idx].pop_front();
    }

    Cycle ser = serDiv.cycles(pkt.wireBytes());
    if (ser == 0)
        ser = 1;

    Cycle start = eq.now();
    busyUntil = start + ser;
    busy += ser;
    util.recordInterval(start, start + ser,
                        static_cast<double>(pkt.wireBytes()));
    wireBytes.inc(pkt.wireBytes());
    payloadBytes.inc(pkt.payloadBytes);
    packets.inc();

    if (dequeueListener)
        dequeueListener->onLinkDequeue(dequeueTag, vc);

    if (!sink)
        panic("link %s has no sink", linkName.c_str());

    // Deliver after serialization plus propagation, moving the payload
    // into the deliver event (no allocation: InlineEvent holds it).
    Cycle deliver_at = start + ser + lat;

    if (prof) {
        // Queue-wait edge (zero-length when the packet issued the
        // cycle it was sent): hops the walk back to the sender-side
        // cause. Then the wire-occupancy edge covering ser + lat.
        prof->record(profNode_,
                     stamp.creditStalled ? WaitClass::creditStall
                                         : WaitClass::linkSerialization,
                     stamp.t, start, stamp.src, stamp.t);
        prof->record(profNode_, WaitClass::linkSerialization, start,
                     deliver_at, profNode_, start);
    }

    if (deliver_at == busyUntil && !wakeScheduled) {
        // Zero-latency link: the drain wake would land on the same
        // cycle directly after the delivery; fold it into one event.
        wakeScheduled = true;
        eq.schedule(deliver_at, [p = std::move(pkt), this]() mutable {
            {
                CausalProfiler::ScopedCause sc(prof, profNode_,
                                               eq.now());
                int pvc = static_cast<int>(p.vc);
                sink->acceptPacket(std::move(p), this, pvc);
            }
            wakeScheduled = false;
            tryIssue();
        });
        return;
    }

    // The packet's VC is the queue it issued from, so the closure
    // reads it from the packet.
    eq.schedule(deliver_at, [p = std::move(pkt), this]() mutable {
        // The delivery is the enabling cause of whatever the sink
        // records downstream (hub completions, TB wakeups).
        CausalProfiler::ScopedCause sc(prof, profNode_, eq.now());
        int pvc = static_cast<int>(p.vc);
        sink->acceptPacket(std::move(p), this, pvc);
    });

    // Keep draining back-to-back. The wake is armed even when the
    // queues are momentarily empty: its early seq pins the drain
    // ahead of same-cycle credit arrivals, which keeps round-robin
    // arbitration order identical to the original implementation.
    if (!wakeScheduled) {
        wakeScheduled = true;
        eq.schedule(busyUntil, [this] {
            wakeScheduled = false;
            tryIssue();
        });
    }
}

void
CreditLink::registerMetrics(MetricRegistry &reg,
                            const std::string &prefix) const
{
    // The per-bin utilization TimeSeries is deliberately not
    // registered: one series per link direction would dominate the
    // report; Fabric exposes the fleet-wide aggregate instead.
    // Leaves in path order (see MetricRegistry).
    MetricPath path(prefix);
    reg.addGaugeU64(path("busyCycles"), [this] { return busy; });
    reg.addCounter(path("packets"), &packets);
    reg.addCounter(path("payloadBytes"), &payloadBytes);
    reg.addCounter(path("wireBytes"), &wireBytes);
}

} // namespace cais
