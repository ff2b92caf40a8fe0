/**
 * @file
 * Per-switch tier placement for hierarchical in-switch computing.
 *
 * On multi-tier fabrics the compute engines behave differently by
 * tier: leaf switches merge their group's contributions and emit
 * *partial* results upstream, the spine performs the final combine
 * across groups. TierInfo tells one switch's engines where it sits
 * and how to reach its upstream/downstream peers. The default value
 * describes the flat single-tier fabric, where every engine keeps the
 * paper's original behaviour.
 */

#ifndef CAIS_SWITCHCOMPUTE_TIER_HH
#define CAIS_SWITCHCOMPUTE_TIER_HH

#include "common/types.hh"
#include "noc/switch_chip.hh"

namespace cais
{

class Fabric;

/** Which tier a switch's compute complex sits on. */
enum class TierRole : std::uint8_t { flat, leaf, spine };

/** One switch's placement in the fabric tier structure. */
struct TierInfo
{
    TierRole role = TierRole::flat;

    /** Total GPUs in the fabric; 0 falls back to the chip's port
     *  count (standalone chips in unit tests are their own fabric). */
    int fabricGpus = 0;

    int numGroups = 1;
    int gpusPerGroup = 0; ///< 0 falls back to fabricGpus

    /** Leaf only: this switch's group and its first global GPU id. */
    int groupIndex = 0;
    int firstLocalGpu = 0;

    /** The fabric the engines route tier hops through: leaves ask it
     *  for the spine owning an address or group, spines for a group's
     *  leaf (set on multi-tier fabrics). */
    const Fabric *fabric = nullptr;

    bool isLeaf() const { return role == TierRole::leaf; }
    bool isSpine() const { return role == TierRole::spine; }

    /** Fabric GPU count, defaulting to the chip's port count. */
    int
    gpus(const SwitchChip &sw) const
    {
        return fabricGpus > 0 ? fabricGpus : sw.numPorts();
    }

    int
    localGpus(const SwitchChip &sw) const
    {
        return gpusPerGroup > 0 ? gpusPerGroup : gpus(sw);
    }

    /** Group of GPU @p g (flat fabrics have one group). */
    int
    groupOfGpu(GpuId g, const SwitchChip &sw) const
    {
        int per = localGpus(sw);
        return per > 0 ? g / per : 0;
    }

    /**
     * Participants a leaf waits for locally when the fabric-wide
     * session expects @p global_expected of @p fabric_gpus GPUs. The
     * lowering only produces G and G-1 participant counts (the home
     * GPU of the session address is the one possibly excluded), so a
     * group's share is its size minus the excluded GPU if that GPU is
     * local.
     */
    int
    localExpected(int global_expected, GpuId excluded_home,
                  const SwitchChip &sw) const
    {
        int missing = gpus(sw) - global_expected;
        int local = localGpus(sw);
        if (missing > 0 && groupOfGpu(excluded_home, sw) == groupIndex)
            local -= missing;
        return local;
    }
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_TIER_HH
