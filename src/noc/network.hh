/**
 * @file
 * The assembled NVLink/NVSwitch fabric: switches, links, deterministic
 * routing, GPU attachment points, and fleet-wide utilization probes.
 *
 * Flat shapes wire every GPU to every switch. Multi-tier shapes wire
 * each GPU to its group's rail (leaf) switches and every leaf to every
 * spine switch; per-chip port routers steer packets whose destination
 * is not directly attached onto the right tier link.
 */

#ifndef CAIS_NOC_NETWORK_HH
#define CAIS_NOC_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "noc/credit_link.hh"
#include "noc/routing.hh"
#include "noc/switch_chip.hh"
#include "noc/topology.hh"

namespace cais
{

class CausalProfiler;

/** A fully wired multi-GPU fabric. */
class Fabric : public PortRouter
{
  public:
    Fabric(EventQueue &eq, const FabricParams &params);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Port router of every chip on multi-tier shapes (flat chips
     * route by destination id): a leaf sends local GPUs to their
     * port and everything else up the hashed spine; a spine sends
     * down to the destination's leaf on the packet's rail.
     */
    int outputPort(SwitchId sw, const Packet &pkt) const override;

    /** Attach the GPU's packet sink to all its downlinks. */
    void attachGpu(GpuId g, PacketSink *sink);

    /**
     * Attach the causal profiler (DESIGN.md §6g) to every link and
     * switch chip. Links get dense profile-node ids in forEachLink
     * visit order (deterministic across runs), with
     * their names registered for the artifact/flame-lane output.
     */
    void setProfiler(CausalProfiler *pr);

    /**
     * Inject a packet from GPU @p g. The serving switch is chosen
     * deterministically: group hash for sync traffic, address hash
     * for everything else, unless pkt.dst already names a switch.
     */
    void sendFromGpu(GpuId g, Packet &&pkt);

    /** Rail/switch index owning @p a: a switch id on flat shapes, a
     *  rail index within each group on multi-tier ones. */
    SwitchId routeAddr(Addr a) const { return route.switchForAddr(a); }
    SwitchId routeGroup(GroupId g) const { return route.switchForGroup(g); }

    int switchNodeId(SwitchId s) const { return p.numGpus + s; }
    bool isSwitchNode(int node) const
    {
        return node >= p.numGpus && node < p.numGpus + p.numSwitches;
    }

    /** Node id of the switch that merges @p addr for GPU @p g: the
     *  hashed switch on flat shapes, the GPU's group leaf on the
     *  hashed rail on multi-tier ones. */
    int mergeNode(GpuId g, Addr addr) const;

    /** Node id of the switch that coordinates @p group for @p g. */
    int syncNode(GpuId g, GroupId group) const;

    /** Node id of the spine owning @p addr (multi-tier only). */
    int spineNodeForAddr(Addr addr) const;

    /** Node id of the spine coordinating @p group (multi-tier only). */
    int spineNodeForGroup(GroupId group) const;

    /** Node id of group @p grp's leaf on the rail owning @p addr
     *  (multi-tier only). */
    int leafNodeForAddr(int grp, Addr addr) const
    {
        return switchNodeId(p.leafIndex(grp, routeAddr(addr)));
    }

    SwitchChip &switchChip(SwitchId s) { return *switches[s]; }
    const SwitchChip &switchChip(SwitchId s) const { return *switches[s]; }

    /** Uplinks per GPU (rails on multi-tier shapes). */
    int uplinksPerGpu() const { return p.uplinksPerGpu(); }

    /** GPU @p g's @p i-th uplink: to switch i (flat) or rail i. */
    CreditLink &uplink(GpuId g, int i);
    const CreditLink &uplink(GpuId g, int i) const;

    /** Downlink from switch @p s to GPU @p g; on multi-tier shapes
     *  @p s must be a leaf of @p g's group. */
    CreditLink &downlink(SwitchId s, GpuId g);
    const CreditLink &downlink(SwitchId s, GpuId g) const;

    /** Leaf->spine / spine->leaf tier links (multi-tier only). */
    CreditLink &tierUplink(int leaf, int spine);
    CreditLink &tierDownlink(int spine, int leaf);

    /**
     * Visit every link with a stable name, GPU-facing links first in
     * (gpu, uplink-index, up-then-down) order, then tier links. The
     * flat visit order matches the historical per-link diagnostics
     * order of cais-verify V2.
     */
    void forEachLink(
        const std::function<void(const CreditLink &)> &fn) const;

    const FabricParams &params() const { return p; }
    const DeterministicRouting &routing() const { return route; }

    /**
     * The simulation-wide packet-id source. Owned here (one per
     * System) so ids restart from 1 for every run and concurrent
     * Systems stay bit-identical to serial execution.
     */
    PacketIdAllocator &packetIds() { return pktIds; }

    /** Link utilization over one window, from one walk over the links'
     *  time bins. */
    struct Utilization
    {
        /** Mean fraction of capacity over all links, both directions
         *  (the metric of Fig. 15). */
        double avg = 0.0;
        double up = 0.0; ///< same, GPU-to-switch and leaf-to-spine links
        double dn = 0.0; ///< same, switch-to-GPU and spine-to-leaf links
        /** Per-bin fraction averaged over all links, for the bins
         *  covering the window (the series of Fig. 16). */
        std::vector<double> series;
    };

    /** Utilization in [t0, t1); all zero and no bins when empty. */
    Utilization utilization(Cycle t0, Cycle t1) const;

    /** utilization(t0, t1).avg. */
    double avgUtilization(Cycle t0, Cycle t1) const;

    /** utilization(t0, t1).up or .dn (up = GPU-to-switch). */
    double dirUtilization(bool up, Cycle t0, Cycle t1) const;

    /** utilization(t0, t1).series. */
    std::vector<double> utilizationSeries(Cycle t0, Cycle t1) const;

    /** Total wire bytes moved on all links. */
    std::uint64_t totalWireBytes() const;

    /**
     * Register every link's scalar counters under
     * prefix.up.g<G>.s<S>.* and prefix.dn.s<S>.g<G>.* (multi-tier
     * shapes add prefix.t_up.l<L>.k<K>.* / prefix.t_dn.k<K>.l<L>.*;
     * the switch chips register separately under the per-switch
     * subtree).
     */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    void buildFlat();
    void buildTiered();

    int spinePort(const Packet &pkt) const;
    int railFor(const Packet &pkt) const;

    EventQueue &eq;
    FabricParams p;
    DeterministicRouting route;
    PacketIdAllocator pktIds;

    std::vector<std::unique_ptr<SwitchChip>> switches;
    // Flat: up[g][s]: GPU g -> switch s; down[s][g]: switch s -> GPU g.
    // Tiered: up[g][r]: GPU g -> rail r of its group; down[l][i]:
    // leaf l -> its i-th local GPU; tierUp[l][k]: leaf l -> spine k;
    // tierDown[k][l]: spine k -> leaf l.
    std::vector<std::vector<std::unique_ptr<CreditLink>>> up;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> down;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> tierUp;
    std::vector<std::vector<std::unique_ptr<CreditLink>>> tierDown;
};

} // namespace cais

#endif // CAIS_NOC_NETWORK_HH
