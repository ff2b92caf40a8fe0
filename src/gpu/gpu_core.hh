/**
 * @file
 * One GPU: SM pool, TB dispatcher, hub (fabric endpoint + HBM), TB
 * group synchronizer and a private deterministic RNG, wired together
 * and attached to the fabric.
 */

#ifndef CAIS_GPU_GPU_CORE_HH
#define CAIS_GPU_GPU_CORE_HH

#include <memory>

#include "common/rng.hh"
#include "gpu/gpu_config.hh"
#include "gpu/hub.hh"
#include "gpu/sm.hh"
#include "gpu/synchronizer.hh"
#include "gpu/tb_scheduler.hh"
#include "gpu/thread_block.hh"

namespace cais
{

/** A fully assembled GPU model. */
class GpuCore
{
  public:
    /** @p listener receives this GPU's TB lifecycle notifications;
     *  the GPU's jitter RNG seeds as @p seed + @p id. */
    GpuCore(EventQueue &eq, Fabric &fabric, GpuId id,
            const GpuParams &params, std::uint64_t seed,
            TbListener *listener);

    GpuCore(const GpuCore &) = delete;
    GpuCore &operator=(const GpuCore &) = delete;

    GpuHub &hub() { return hubImpl; }
    Synchronizer &synchronizer() { return syncImpl; }
    SmPool &sms() { return smPool; }
    TbScheduler &scheduler() { return sched; }

    /** Context handed to thread blocks executing on this GPU. */
    TbRunContext tbContext(int num_gpus);

    /** Attach the causal profiler (DESIGN.md §6g) to this GPU's hub,
     *  HBM channel, and future TB contexts. */
    void setProfiler(CausalProfiler *pr)
    {
        prof = pr;
        hubImpl.setProfiler(pr);
    }

    /** Register every sub-component under prefix.{hbm,hub,sched,sync},
     *  in path order. */
    void
    registerMetrics(MetricRegistry &reg, const std::string &prefix) const
    {
        MetricPath path(prefix);
        hubImpl.hbm().registerMetrics(reg, path("hbm"));
        hubImpl.registerMetrics(reg, path("hub"));
        sched.registerMetrics(reg, path("sched"));
        syncImpl.registerMetrics(reg, path("sync"));
    }

  private:
    GpuParams p;
    EventQueue &eq;

    GpuHub hubImpl;
    Synchronizer syncImpl;
    SmPool smPool;
    TbScheduler sched;
    Rng rngImpl;
    TbListener *listener;
    CausalProfiler *prof = nullptr;
};

} // namespace cais

#endif // CAIS_GPU_GPU_CORE_HH
