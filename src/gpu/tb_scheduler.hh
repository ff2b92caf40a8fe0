/**
 * @file
 * Per-GPU thread-block dispatcher: ready TBs (dependencies satisfied,
 * kernel launched) queue per SM-partition bucket and dispatch in FIFO
 * order as CTA slots free up — the independent per-GPU scheduling
 * whose cross-GPU drift CAIS's coordination mechanism tames.
 */

#ifndef CAIS_GPU_TB_SCHEDULER_HH
#define CAIS_GPU_TB_SCHEDULER_HH

#include <cstdint>
#include <map>

#include "common/metrics.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "gpu/sm.hh"
#include "gpu/tb_listener.hh"

namespace cais
{

/** FIFO thread-block dispatcher over an SmPool. */
class TbScheduler : public Probe
{
  public:
    /** @p listener receives every slot grant. */
    TbScheduler(SmPool &pool, TbListener *listener);

    /**
     * Queue dispatchable TB record @p rec restricted to SMs in
     * [from, to); onSlotGranted(@p rec, slot) receives the acquired
     * slot. Lower @p priority dispatches first (communication/staging
     * TBs preempt queued compute waves so the pipeline stays fed).
     */
    void enqueue(double from, double to, int priority, TbRecId rec);

    /** Try to dispatch queued TBs into free slots. */
    void pump();

    std::size_t pendingCount() const;

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(MetricPath(prefix)("dispatched"), &dispatched);
    }

  private:
    SmPool &pool;
    TbListener *listener;
    /** Ready records per (priority, SM range), FIFO within each. */
    std::map<std::tuple<int, double, double>, Ring<TbRecId>> buckets;
    Counter dispatched;
    bool pumping = false;
};

} // namespace cais

#endif // CAIS_GPU_TB_SCHEDULER_HH
