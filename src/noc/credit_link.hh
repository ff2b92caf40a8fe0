/**
 * @file
 * Unidirectional NVLink model with credit-based virtual-channel flow
 * control and a shared serializer.
 *
 * The sender side holds unbounded per-VC queues (upstream components
 * apply their own throttling); a packet may start serializing only
 * when the receiver-side VC buffer has a free slot (credit). The
 * serializer round-robins across eligible VCs. Link occupancy is
 * recorded into a TimeSeries for bandwidth-utilization studies
 * (Figs. 15/16 of the paper).
 */

#ifndef CAIS_NOC_CREDIT_LINK_HH
#define CAIS_NOC_CREDIT_LINK_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/intmath.hh"
#include "common/metrics.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "noc/arbiter.hh"
#include "noc/packet.hh"

namespace cais
{

class CausalProfiler;
class CreditLink;

/** Anything that terminates a link: a switch input port or a GPU. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;

    /**
     * Deliver a packet. The sink must eventually call
     * from->returnCredit(vc) to free the receive-buffer slot.
     */
    virtual void acceptPacket(Packet &&pkt, CreditLink *from, int vc) = 0;
};

/** Told whenever one of a link's packets starts the wire. */
class LinkDequeueListener
{
  public:
    virtual ~LinkDequeueListener() = default;

    /** @p tag is the value the listener registered with. */
    virtual void onLinkDequeue(int tag, int vc) = 0;
};

/** One direction of an NVLink between a GPU and a switch. */
class CreditLink : public Probe
{
  public:
    CreditLink(EventQueue &eq, std::string name, double bytes_per_cycle,
               Cycle latency, int num_vcs, int vc_credits,
               Cycle util_bin_width);

    /**
     * Attach the receiving sink. @p tag is an opaque receiver-chosen
     * id (e.g. the switch input-port index) echoed by sinkTag(), so
     * sinks can recover which of their links a packet arrived on
     * without keying a container on the link's address.
     */
    void setSink(PacketSink *s, int tag = -1)
    {
        sink = s;
        tag_ = tag;
    }

    /** Tag registered by the sink, or -1 when none was set. */
    int sinkTag() const { return tag_; }

    /**
     * Under sharded execution (DESIGN.md §6f), bind the queue of the
     * shard the *sink* lives on. The link then runs split: sender
     * state (VC queues, serializer, credits, counters) stays on the
     * constructor queue, deliveries are scheduled onto the sink's
     * queue, and credit returns — which the sink issues from its own
     * shard — ride the barrier mailboxes back. Defaults to the
     * constructor queue (sequential, both ends co-located), which
     * keeps the historical single-queue behaviour bit-for-bit.
     */
    void setSinkQueue(EventQueue &q) { sinkEq = &q; }

    /** True when sender and sink live on different shards. */
    bool splitShards() const { return sinkEq != &eq; }

    /**
     * Notify @p l (non-owning) with @p tag and the VC index whenever a
     * packet starts the wire: the switch's output-space wakeups and
     * the hub's injection window.
     */
    void setDequeueListener(LinkDequeueListener *l, int tag = -1)
    {
        dequeueListener = l;
        dequeueTag = tag;
    }

    /**
     * Attach the causal profiler (DESIGN.md §6g); @p node is this
     * link's profile-graph node. Hooks stamp packet provenance at
     * send(), record queue-wait and wire-occupancy edges at issue,
     * and tag the delivery event as the downstream enabling cause.
     * Never schedules events: profiled runs are bit-identical.
     */
    void setProfiler(CausalProfiler *pr, std::uint64_t node)
    {
        prof = pr;
        profNode_ = node;
    }

    /** This link's profile-graph node (0 when unprofiled). */
    std::uint64_t profNode() const { return profNode_; }

    /** Enqueue a packet on its VC; serialization starts when eligible. */
    void send(Packet &&pkt);

    /**
     * Free one receive-buffer slot; the credit flies back upstream.
     * Credits freed for the same VC in the same cycle coalesce into
     * one arrival event (they ride the same reverse-channel beat).
     * Under split execution the sink's shard calls this, appending a
     * safeHorizon-trimmed cell and scheduling the arrival back onto
     * the sender's queue through the barrier mailbox.
     */
    CAIS_CROSS_SHARD_CHANNEL void returnCredit(int vc);

    double bytesPerCycle() const { return bw; }
    Cycle latencyCycles() const { return lat; }
    int numVcs() const { return static_cast<int>(queues.size()); }

    std::size_t queueLen(int vc) const { return queues[vc].size(); }
    std::size_t totalQueued() const;
    int credits(int vc) const { return creditCount[vc]; }

    const std::string &name() const { return linkName; }

    /** Wire bytes accumulated into time bins. */
    const TimeSeries &utilization() const { return util; }

    std::uint64_t totalWireBytes() const { return wireBytes.value(); }
    std::uint64_t totalPayloadBytes() const { return payloadBytes.value(); }
    std::uint64_t totalPackets() const { return packets.value(); }
    Cycle busyCycles() const { return busy; }

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    CAIS_OWNED_BY_DOMAIN(sender);

    /** Try to start serializing the next eligible packet; split
     *  deliveries are scheduled onto the sink shard's queue. */
    CAIS_CROSS_SHARD_CHANNEL void tryIssue();

    EventQueue &eq;
    EventQueue *sinkEq; ///< == &eq unless split across shards
    std::string linkName;
    double bw;
    SerDivider serDiv;
    Cycle lat;

    /** Credits for @p vc have arrived back at the sender. */
    void addCredits(std::size_t vc, int n)
    {
        creditCount[vc] += n;
        creditMask |= std::uint64_t(1) << vc;
    }

    std::vector<Ring<Packet>> queues;
    std::vector<int> creditCount;

    /** Bit v set while queues[v] is non-empty / creditCount[v] > 0;
     *  their AND is the arbiter's ready set. */
    std::uint64_t queuedMask = 0;
    std::uint64_t creditMask = 0;

    /** In-flight credit batches per VC: (arrival cycle, count), one
     *  scheduled event per batch, ordered by arrival cycle. Under
     *  split execution both shards touch these cells: the sink shard
     *  appends/coalesces inside returnCredit (trimmed at the window's
     *  safeHorizon), the sender shard consumes arrived batches. */
    CAIS_SHARD_SHARED std::vector<std::deque<std::pair<Cycle, int>>>
        pendingCredits;

    RoundRobinArbiter arb;
    CausalProfiler *prof = nullptr;
    std::uint64_t profNode_ = 0;
    PacketSink *sink = nullptr;
    int tag_ = -1;
    LinkDequeueListener *dequeueListener = nullptr;
    int dequeueTag = -1;

    std::size_t queuedTotal = 0;
    Cycle busyUntil = 0;
    bool wakeScheduled = false;

    TimeSeries util;
    Counter wireBytes;
    Counter payloadBytes;
    Counter packets;
    Cycle busy = 0;
};

} // namespace cais

#endif // CAIS_NOC_CREDIT_LINK_HH
