/**
 * @file
 * In-switch computing complex: composes the NVLS unit, the CAIS merge
 * unit and the Group Sync Table behind the SwitchComputeHandler
 * interface and dispatches fabric packets to the right engine.
 */

#ifndef CAIS_SWITCHCOMPUTE_SWITCH_COMPUTE_HH
#define CAIS_SWITCHCOMPUTE_SWITCH_COMPUTE_HH

#include <memory>

#include "switchcompute/group_sync_table.hh"
#include "switchcompute/merge_unit.hh"
#include "switchcompute/nvls_unit.hh"

namespace cais
{

/** Configuration of one switch's compute complex. */
struct InSwitchParams
{
    MergeParams merge;
};

/** One switch's in-switch computing engines. */
class SwitchComputeComplex : public SwitchComputeHandler
{
  public:
    /** @p tier places this switch in the fabric (flat by default). */
    SwitchComputeComplex(SwitchChip &sw, const InSwitchParams &params,
                         const TierInfo &tier = {});

    bool wants(const Packet &pkt) const override;
    void handlePacket(Packet &&pkt) override;

    /** Attach a lifecycle observer to the merge and sync engines. */
    void
    setTraceHooks(SwitchTraceHooks *h)
    {
        mergeUnit.setTraceHooks(h);
        syncTable.setTraceHooks(h);
    }

    /** Register every engine under prefix.{merge,nvls,sync}, in
     *  path order. */
    void
    registerMetrics(MetricRegistry &reg, const std::string &prefix) const
    {
        MetricPath path(prefix);
        mergeUnit.registerMetrics(reg, path("merge"));
        nvlsUnit.registerMetrics(reg, path("nvls"));
        syncTable.registerMetrics(reg, path("sync"));
    }

    NvlsUnit &nvls() { return nvlsUnit; }
    MergeUnit &merge() { return mergeUnit; }
    GroupSyncTable &sync() { return syncTable; }

    const NvlsUnit &nvls() const { return nvlsUnit; }
    const MergeUnit &merge() const { return mergeUnit; }
    const GroupSyncTable &sync() const { return syncTable; }

  private:
    SwitchChip &sw;
    NvlsUnit nvlsUnit;
    MergeUnit mergeUnit;
    GroupSyncTable syncTable;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_SWITCH_COMPUTE_HH
