/**
 * @file
 * GPU-side synchronizer module (Fig. 8b): interfaces between the
 * TB/warp schedulers and the switch's Group Sync Table. It registers
 * pre-launch and pre-access synchronization requests and parks the
 * requesting thread blocks until the release signal arrives.
 */

#ifndef CAIS_GPU_SYNCHRONIZER_HH
#define CAIS_GPU_SYNCHRONIZER_HH

#include <cstdint>
#include <unordered_map>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/tb_listener.hh"
#include "switchcompute/group_sync_table.hh" // SyncPhase

namespace cais
{

class GpuHub;

/** Per-GPU TB-group synchronization frontend. */
class Synchronizer : public Probe
{
  public:
    explicit Synchronizer(GpuId gpu);

    /** The hub transports our sync packets; set during wiring. */
    void setHub(GpuHub *h) { hub = h; }

    void setListener(TbListener *l) { listener = l; }

    /**
     * Register TB record @p rec with TB group @p group for phase
     * @p phase; onSyncReleased(@p rec) fires on the release.
     */
    void requestSync(GroupId group, SyncPhase phase, int expected,
                     TbRecId rec);

    /** Release signal delivered by the hub. */
    void onRelease(GroupId group, SyncPhase phase);

    std::uint64_t releases() const { return rels.value(); }
    std::size_t pendingCount() const { return pending.size(); }

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        MetricPath path(prefix);
        reg.addCounter(path("releases"), &rels);
        reg.addCounter(path("requests"), &reqs);
    }

  private:
    static std::uint64_t
    key(GroupId g, SyncPhase p)
    {
        return (static_cast<std::uint64_t>(g) << 1) |
               static_cast<std::uint64_t>(p);
    }

    GpuId gpu;
    GpuHub *hub = nullptr;
    TbListener *listener = nullptr;
    std::unordered_map<std::uint64_t, TbRecId> pending;
    Counter reqs;
    Counter rels;
};

} // namespace cais

#endif // CAIS_GPU_SYNCHRONIZER_HH
