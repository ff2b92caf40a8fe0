/**
 * @file
 * Stock NVLS in-switch computing unit (communication-centric), per
 * Klenk et al. [24] and NVIDIA's third-generation NVSwitch: handles
 * the three multimem primitives.
 *
 *  - multimem.st        : push-mode multicast store. The switch
 *                         replicates the payload to every other GPU.
 *  - multimem.ld_reduce : pull-mode gather-reduce. The switch fetches
 *                         the addressed data from every GPU's replica,
 *                         reduces in-flight, and returns the result to
 *                         the requester.
 *  - multimem.red       : push-mode reduction. Contributions from all
 *                         GPUs are accumulated in the switch and the
 *                         result is written to every replica.
 *
 * On multi-tier fabrics each primitive runs hierarchically: a leaf
 * handles its local GPUs and exchanges one aggregate packet per
 * primitive with the spine (tierHop 1 up, tierHop 2 down), and the
 * spine combines/distributes across groups.
 */

#ifndef CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH
#define CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH

#include <cstdint>
#include <unordered_map>

#include "common/metrics.hh"
#include "common/nodemask.hh"
#include "common/stats.hh"
#include "noc/switch_chip.hh"
#include "switchcompute/tier.hh"

namespace cais
{

/** The switch-resident NVLS engine. */
class NvlsUnit : public Probe
{
  public:
    /** In-flight reduction latency charged per completed session. */
    static constexpr Cycle reduceDelay = 8;

    explicit NvlsUnit(SwitchChip &sw, const TierInfo &tier = {});

    void handleMultimemSt(Packet &&pkt);
    void handleLdReduceReq(Packet &&pkt);
    void handleRed(Packet &&pkt);

    /** Read response for a gather this unit issued (cookie-tagged). */
    void handleReadResp(Packet &&pkt);

    /** Reduced tier response returned to this switch (multi-tier). */
    void handleLdReduceResp(Packet &&pkt);

    std::uint64_t multicasts() const { return stMulticasts.value(); }
    std::uint64_t gatherReduces() const { return gathersDone.value(); }
    std::uint64_t pushReduces() const { return redsDone.value(); }
    std::size_t pendingSessions() const
    {
        return gathers.size() + reds.size();
    }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        MetricPath path(prefix);
        reg.addCounter(path("gatherReduces"), &gathersDone);
        reg.addCounter(path("multicasts"), &stMulticasts);
        reg.addCounter(path("pushReduces"), &redsDone);
    }

  private:
    struct GatherSession
    {
        /** Node the reduced response returns to: the requesting GPU
         *  at its own leaf, the downstream switch for tier legs. */
        int requester = invalidId;
        Addr addr = 0;
        std::uint32_t bytes = 0;
        std::uint32_t pad = 0;
        std::uint64_t hubCookie = 0;
        int arrived = 0;
        int expected = 0;
        KernelId kernel = invalidId;
        TbId tb = invalidId;
        Cycle profStart = 0; ///< profiler: session-open cycle
    };

    struct RedSession
    {
        int arrived = 0;
        int expected = 0;
        std::uint32_t bytes = 0;
        NodeMask mask;
        KernelId kernel = invalidId;
        std::uint8_t tierHop = 0;
        /** Total GPU contributions represented (hierarchical sums). */
        int contribs = 0;
        Cycle profStart = 0; ///< profiler: session-open cycle
    };

    void completeGather(std::uint64_t id, GatherSession &s);
    void replicateLocal(const Packet &pkt);

    SwitchChip &sw;
    TierInfo tier;

    std::unordered_map<std::uint64_t, GatherSession> gathers;
    std::unordered_map<Addr, RedSession> reds;
    std::uint64_t nextGatherId = 1;

    Counter stMulticasts;
    Counter gathersDone;
    Counter redsDone;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_NVLS_UNIT_HH
