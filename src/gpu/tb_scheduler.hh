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
#include <deque>
#include <functional>
#include <map>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "gpu/sm.hh"

namespace cais
{

/** FIFO thread-block dispatcher over an SmPool. */
class TbScheduler : public Probe
{
  public:
    explicit TbScheduler(SmPool &pool);

    /**
     * Queue a dispatchable TB restricted to SMs in [from, to);
     * @p dispatch receives the acquired slot id. Lower @p priority
     * dispatches first (communication/staging TBs preempt queued
     * compute waves so the pipeline stays fed).
     */
    void enqueue(double from, double to, int priority,
                 std::function<void(int slot)> dispatch);

    /** Try to dispatch queued TBs into free slots. */
    void pump();

    std::size_t pendingCount() const;
    std::uint64_t dispatchedCount() const { return dispatched.value(); }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(prefix + ".dispatched", &dispatched);
    }

  private:
    struct Bucket
    {
        std::deque<std::function<void(int)>> fifo;
    };

    SmPool &pool;
    std::map<std::tuple<int, double, double>, Bucket> buckets;
    Counter dispatched;
    bool pumping = false;
};

} // namespace cais

#endif // CAIS_GPU_TB_SCHEDULER_HH
