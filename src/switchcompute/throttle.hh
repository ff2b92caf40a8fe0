/**
 * @file
 * TB-aware request throttling (Sec. III-B.2): when a GPU runs ahead of
 * its peers in a mergeable TB group — i.e. it keeps opening merge
 * sessions that sit waiting for the other GPUs — the switch sends it a
 * throttle hint so it pauses further mergeable requests and lets the
 * peers catch up. Driven by the merge unit's per-address tracking
 * state.
 */

#ifndef CAIS_SWITCHCOMPUTE_THROTTLE_HH
#define CAIS_SWITCHCOMPUTE_THROTTLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "common/nodemask.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cais
{

/** Switch-side throttling bookkeeping and hint generation. */
class ThrottleController : public Probe
{
  public:
    /**
     * @param num_gpus fabric size.
     * @param threshold unmatched contributions per (group, GPU) above
     *        which a hint is sent.
     * @param pause_cycles pause duration suggested in hints.
     * @param hint_interval minimum spacing between hints to one GPU.
     */
    ThrottleController(int num_gpus, int threshold, Cycle pause_cycles,
                       Cycle hint_interval);

    /**
     * Called when GPU @p g contributes to an incomplete session.
     * @return true when @p g should now be sent a hint to pause for
     *         pause() cycles (the caller builds the packet; the hint
     *         is counted here).
     */
    bool onContribution(GroupId group, GpuId g, Cycle now);

    Cycle pause() const { return pauseCycles; }

    /** Called when a session closes with contributor mask @p mask
     *  (bits outside [0, num_gpus) — remote-tier proxies — are
     *  ignored). */
    void onSessionClose(GroupId group, const NodeMask &mask);

    /** Open-session contributions by @p g in @p group. */
    int unmatched(GroupId group, GpuId g) const;

    std::uint64_t hintsSent() const { return hints.value(); }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(MetricPath(prefix)("hintsSent"), &hints);
    }

  private:
    int numGpus;
    int threshold;
    Cycle pauseCycles;
    Cycle hintInterval;

    std::unordered_map<GroupId, std::vector<int>> open;
    std::vector<Cycle> lastHint;
    Counter hints;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_THROTTLE_HH
