/**
 * @file
 * Switch-side Group Sync Table (Fig. 8b): counts pre-launch and
 * pre-access synchronization requests per TB group and broadcasts a
 * release to all participating GPUs once every GPU has registered.
 *
 * On multi-tier fabrics the rendezvous is hierarchical: each leaf
 * records which of its local GPUs registered (for the release
 * fan-out) and forwards every registration to the group's spine,
 * which counts them against the *global* participant count the
 * requesters carry. Counting only at the spine keeps the flat
 * semantics — "any pkt.expected registrants complete the group" —
 * exact even when the participant set excludes a GPU whose location
 * the switches cannot know (e.g. the home GPU of a reduction group
 * syncs G-1 remote contributors).
 */

#ifndef CAIS_SWITCHCOMPUTE_GROUP_SYNC_TABLE_HH
#define CAIS_SWITCHCOMPUTE_GROUP_SYNC_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/metrics.hh"
#include "common/nodemask.hh"
#include "common/stats.hh"
#include "common/trace_hooks.hh"
#include "noc/switch_chip.hh"
#include "switchcompute/tier.hh"

namespace cais
{

/** Synchronization phase carried in sync-packet cookies. */
enum class SyncPhase : std::uint8_t { preLaunch = 0, preAccess = 1 };

/** Per-group rendezvous counters with release broadcast. */
class GroupSyncTable : public Probe
{
  public:
    explicit GroupSyncTable(SwitchChip &sw, const TierInfo &tier = {});

    /** Attach a rendezvous-window observer (nullptr detaches). */
    void setTraceHooks(SwitchTraceHooks *h) { hooks = h; }

    /** Consume one groupSyncReq packet. */
    void handleSyncReq(Packet &&pkt);

    /** Consume the spine's release at a leaf (multi-tier only). */
    void handleRelease(Packet &&pkt);

    std::uint64_t requests() const { return reqs.value(); }
    std::uint64_t releases() const { return rels.value(); }
    std::size_t pendingGroups() const { return pending.size(); }

    /** Registration window (first to last request) in cycles. */
    const Histogram &windowHist() const { return window; }

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    struct Entry
    {
        int count = 0;
        NodeMask mask;
        Cycle first = 0;
    };

    static std::uint64_t
    key(GroupId g, std::uint64_t phase)
    {
        return (static_cast<std::uint64_t>(g) << 1) | (phase & 1);
    }

    void broadcastRelease(const NodeMask &mask, GroupId group,
                          std::uint64_t phase);

    SwitchChip &sw;
    TierInfo tier;
    SwitchTraceHooks *hooks = nullptr;
    std::unordered_map<std::uint64_t, Entry> pending;
    Counter reqs;
    Counter rels;
    Histogram window{0.0, 100.0 * cyclesPerUs, 100};
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_GROUP_SYNC_TABLE_HH
