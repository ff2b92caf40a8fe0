/**
 * @file
 * HBM bandwidth model. Kernel-local traffic is folded into thread
 * block compute costs by the workload layer; this model serializes the
 * *fabric-facing* HBM work — serving remote reads and landing remote
 * writes — which is what contends with inbound/outbound NVLink
 * traffic.
 */

#ifndef CAIS_GPU_HBM_HH
#define CAIS_GPU_HBM_HH

#include "common/event_queue.hh"
#include "common/intmath.hh"
#include "common/metrics.hh"
#include "common/stats.hh"

namespace cais
{

class CausalProfiler;

/** A single bandwidth-serialized memory channel with fixed latency. */
class HbmModel : public Probe
{
  public:
    HbmModel(EventQueue &eq, double bytes_per_cycle, Cycle latency);

    /**
     * Attach the causal profiler (DESIGN.md §6g); @p node is this
     * channel's profile-graph node. access() then records an HBM
     * wait edge itself — the completion time is known at schedule
     * time — so callers' completion closures stay capture-free.
     */
    void setProfiler(CausalProfiler *pr, std::uint64_t node)
    {
        prof = pr;
        profNode_ = node;
    }

    /** This channel's profile-graph node (0 when unprofiled). */
    std::uint64_t profNode() const { return profNode_; }

    /** Schedule an access of @p bytes; @p done fires at completion. */
    void access(std::uint64_t bytes, EventQueue::Callback done);

    std::uint64_t totalBytes() const { return bytes.value(); }
    Cycle busyCycles() const { return busy; }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        MetricPath path(prefix);
        reg.addCounter(path("accesses"), &accesses);
        reg.addGaugeU64(path("busyCycles"), [this] { return busy; });
        reg.addCounter(path("bytes"), &bytes);
    }

  private:
    EventQueue &eq;
    double bw;
    SerDivider serDiv;
    Cycle lat;
    Cycle busyUntil = 0;
    CausalProfiler *prof = nullptr;
    std::uint64_t profNode_ = 0;

    Counter bytes;
    Counter accesses;
    Cycle busy = 0;
};

} // namespace cais

#endif // CAIS_GPU_HBM_HH
