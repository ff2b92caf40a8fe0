/**
 * @file
 * NVSwitch chip model.
 *
 * Each GPU-facing input port has `numVcs` virtual channels of
 * `vcDepth` packets (8 x 256 per the paper's configuration). Packets
 * either belong to in-switch computing (NVLS multimem, CAIS load/red,
 * group sync) and are consumed by an attached SwitchComputeHandler, or
 * are plain unicast traffic forwarded to the destination GPU's output
 * port. Forwarding stalls when the output staging queue for the
 * packet's VC is full, blocking only that VC's head (other VCs
 * proceed), which is exactly the head-of-line behaviour CAIS's traffic
 * control addresses.
 */

#ifndef CAIS_NOC_SWITCH_CHIP_HH
#define CAIS_NOC_SWITCH_CHIP_HH

#include <vector>

#include "common/event_queue.hh"
#include "common/metrics.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "noc/credit_link.hh"
#include "noc/virtual_channel.hh"

namespace cais
{

class CausalProfiler;

/** Tunables of one switch chip. */
struct SwitchParams
{
    /** Input-to-output latency, cycles. */
    static constexpr Cycle pipelineDelay = 100;
    /** Per-VC head service interval, cycles. */
    static constexpr Cycle perPacketProcess = 1;
    /** Input buffer slots per VC; every link VC grants exactly this
     *  many credits, so credits and buffer slots always balance. */
    static constexpr int vcDepth = 256;

    int numVcs = 8;
    int outQueueDepth = 256;

    /**
     * Collapse all data classes (response/reduction/multicast) onto a
     * single VC, disabling CAIS traffic control (CAIS-Partial).
     */
    bool unifiedDataVc = false;
};

/**
 * Interface the in-switch compute layer (NVLS unit, CAIS merge unit,
 * group sync table) implements to intercept fabric packets.
 */
class SwitchComputeHandler
{
  public:
    virtual ~SwitchComputeHandler() = default;

    /** True if this packet is consumed by in-switch computing. */
    virtual bool wants(const Packet &pkt) const = 0;

    /** Consume a packet previously accepted by wants(). */
    virtual void handlePacket(Packet &&pkt) = 0;
};

/**
 * Output-port lookup of multi-tier fabrics: steers packets whose
 * destination is not directly attached (a remote GPU or another
 * switch) onto the right tier link.
 */
class PortRouter
{
  public:
    virtual ~PortRouter() = default;

    /** Output port of switch @p sw for @p pkt, or -1 if none. */
    virtual int outputPort(SwitchId sw, const Packet &pkt) const = 0;
};

/**
 * One NVSwitch chip with per-GPU input and output ports.
 *
 * Each output port is a bounded staging queue in front of one
 * downlink: the link's per-VC send queue, capped at outQueueDepth for
 * forwarded traffic. The bound provides backpressure into the input
 * buffers and hence head-of-line blocking within a VC; traffic
 * generated by in-switch compute units bypasses it, since the
 * merge/NVLS tables already bound their footprint.
 */
class SwitchChip : public PacketSink,
                   public LinkDequeueListener,
                   public Probe
{
  public:
    /** Unit-generated packets draw their ids from @p ids (the owning
     *  Fabric's simulation-wide allocator). */
    SwitchChip(EventQueue &eq, PacketIdAllocator &ids, SwitchId id,
               int node_id, int num_gpus, const SwitchParams &params);

    /** Register the GPU->switch link arriving at port @p g. */
    void attachUplink(GpuId g, CreditLink *from_gpu);

    /** Register the switch->GPU link leaving toward GPU @p g. */
    void attachDownlink(GpuId g, CreditLink *to_gpu);

    void setComputeHandler(SwitchComputeHandler *h) { handler = h; }

    /** Attach the causal profiler (DESIGN.md §6g); hooks stamp
     *  ingress-arrival times and record VC-arbitration edges. Must be
     *  called before the first packet arrives: it allocates the
     *  arrival-time rings that run parallel to the input VCs. */
    void setProfiler(CausalProfiler *pr);

    /** The attached profiler, read by the in-switch compute units. */
    CausalProfiler *profiler() const { return prof; }

    /**
     * Install the output-port lookup (non-owning) for forwarded and
     * unit-generated packets. Without a router the chip assumes the
     * flat shape: output port == destination GPU id.
     */
    void setPortRouter(const PortRouter *r) { router = r; }

    /** Id source for packets the attached compute units generate. */
    PacketIdAllocator &packetIds() { return pktIds; }

    /** Build a unit-generated packet (src = this switch's node id)
     *  with a fresh id from the simulation-wide allocator. */
    Packet makePacket(PacketType t, int dst)
    {
        return cais::makePacket(pktIds, t, node, dst);
    }

    void acceptPacket(Packet &&pkt, CreditLink *from, int vc) override;

    /** The downlink behind @p out_port freed send-queue space. */
    void onLinkDequeue(int out_port, int vc) override;

    /**
     * Send a unit-generated packet toward GPU pkt.dst (bypasses the
     * forwarding bound; used by NVLS/merge/sync units).
     */
    void sendToGpu(Packet &&pkt);

    /** Forwarding-queue occupancy toward GPU @p g on class @p vc. */
    std::size_t downlinkQueue(GpuId g, VcClass vc) const;

    EventQueue &eventQueue() { return eq; }
    SwitchId id() const { return switchId; }
    int nodeId() const { return node; }
    int numGpus() const { return static_cast<int>(inPorts.size()); }
    /** Port-count alias: on multi-tier chips ports cover both locally
     *  attached GPUs and tier links, so "numGpus" is a misnomer. */
    int numPorts() const { return static_cast<int>(inPorts.size()); }
    const SwitchParams &params() const { return p; }

    std::uint64_t packetsForwarded() const { return forwarded.value(); }
    std::uint64_t packetsConsumed() const { return consumed.value(); }
    std::uint64_t packetsGenerated() const { return generated.value(); }

    /** Peak input-VC occupancy across all ports (buffer studies). */
    std::size_t peakInputOccupancy() const;

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    struct InPort
    {
        CreditLink *link = nullptr;
        /** Profiler only: ingress-arrival cycle of each buffered
         *  packet, one ring per VC of this port; empty when
         *  unprofiled. */
        std::vector<Ring<Cycle>> arrivals;
    };

    /** One input VC: its buffer and its service state, in one record
     *  so a hop reads both from one place. */
    struct InputVc
    {
        VirtualChannel buf{SwitchParams::vcDepth};
        /** True while a service event or a blocked head owns the VC. */
        bool busy = false;
    };

    void scheduleProcess(int port, int vc, Cycle delay);
    void processHead(int port, int vc);

    /** Input VC @p vc of port @p port. */
    InputVc &
    inputVc(int port, int vc)
    {
        return inVcs[static_cast<std::size_t>(port * p.numVcs + vc)];
    }

    /** Heads parked on output port @p out_port's class @p vc. */
    std::vector<std::pair<int, int>> &
    parked(int out_port, int vc)
    {
        return waiting[static_cast<std::size_t>(out_port * p.numVcs + vc)];
    }

    /** Output port for @p pkt: the router's choice, or pkt.dst on
     *  flat shapes. */
    int outPort(const Packet &pkt) const
    {
        return router ? router->outputPort(switchId, pkt) : pkt.dst;
    }

    EventQueue &eq;
    SwitchId switchId;
    int node;
    SwitchParams p;

    std::vector<InPort> inPorts;
    /** Every port's input VCs, indexed port * numVcs + vc (see
     *  inputVc()), as waiting is. */
    std::vector<InputVc> inVcs;
    /** Downlink behind each output port. */
    std::vector<CreditLink *> outLinks;

    /** Heads blocked per (output port, VC class), indexed
     *  port * numVcs + vc (see parked()): list of (in-port, in-vc). */
    std::vector<std::vector<std::pair<int, int>>> waiting;

    /** onLinkDequeue swaps a list in here to wake it, so both keep
     *  their capacity instead of reallocating on the next park. */
    std::vector<std::pair<int, int>> waking;

    SwitchComputeHandler *handler = nullptr;
    CausalProfiler *prof = nullptr;
    const PortRouter *router = nullptr;

    PacketIdAllocator &pktIds;

    Counter forwarded;
    Counter consumed;
    Counter generated;
};

} // namespace cais

#endif // CAIS_NOC_SWITCH_CHIP_HH
