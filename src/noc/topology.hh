/**
 * @file
 * Fabric topology description. The default is the flat DGX-like
 * arrangement: every GPU has one up and one down link to every switch
 * chip (DGX-H100: 8 GPUs / 4 NVSwitches), with per-GPU injection
 * bandwidth split evenly across the switches.
 *
 * Multi-tier shapes add a second switch level: GPUs are grouped into
 * nodes, each node owns `railsPerGroup` leaf switches (rails), and
 * every leaf connects to every spine switch. Presets cover the paper's
 * DGX-H100 plus NVL72-class and rail-optimized multi-node fabrics.
 */

#ifndef CAIS_NOC_TOPOLOGY_HH
#define CAIS_NOC_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/switch_chip.hh"

namespace cais
{

/** Parameters of the whole NVLink/NVSwitch fabric. */
struct FabricParams
{
    int numGpus = 8;
    int numSwitches = 4;

    /**
     * Per-GPU injection/ejection bandwidth per direction, in bytes
     * per cycle (== GB/s), aggregated over all switches. 450 matches
     * an H100's 900 GB/s bidirectional NVLink budget.
     */
    double perGpuBytesPerCycle = 450.0;

    /** One-way GPU<->switch propagation latency (250 ns per paper). */
    Cycle linkLatency = 250;

    /** Address interleave granularity for deterministic routing. */
    std::uint64_t interleaveBytes = 4096;

    /** Bin width for link-utilization time series. */
    Cycle utilBinWidth = 1000;

    SwitchParams sw;

    // -- Tier description (multi-tier fabrics only) -------------------
    // numGroups GPU groups (nodes) x railsPerGroup leaf switches each,
    // plus numSpines spine switches. numSwitches must then equal
    // numGroups * railsPerGroup + numSpines. numSpines == 0 selects
    // the flat single-tier topology and ignores the other tier fields.

    int numGroups = 1;
    int railsPerGroup = 0;
    int numSpines = 0;

    bool multiTier() const { return numSpines > 0; }

    int numLeaves() const { return numGroups * railsPerGroup; }

    int gpusPerGroup() const
    {
        return numGroups > 0 ? numGpus / numGroups : numGpus;
    }

    /** Leaf switch index of (group, rail), group-major. */
    int leafIndex(int group, int rail) const
    {
        return group * railsPerGroup + rail;
    }

    /** Group that GPU @p g belongs to. */
    int groupOfGpu(int g) const
    {
        return multiTier() ? g / gpusPerGroup() : 0;
    }

    bool isSpineSwitch(int s) const
    {
        return multiTier() && s >= numLeaves();
    }

    /** Uplinks (and downlinks) each GPU has: its node's rails on a
     *  multi-tier fabric, every switch on the flat one. */
    int uplinksPerGpu() const
    {
        return multiTier() ? railsPerGroup : numSwitches;
    }

    /** Per-link bandwidth in bytes/cycle for one GPU-switch pair. */
    double perLinkBytesPerCycle() const
    {
        return perGpuBytesPerCycle /
               static_cast<double>(uplinksPerGpu());
    }

    /** Leaf<->spine link bandwidth: full bisection, a group's
     *  aggregate injection bandwidth divided over its rails' uplinks
     *  to the spines. */
    double effectiveTierLinkBytesPerCycle() const
    {
        return static_cast<double>(gpusPerGroup()) *
               perLinkBytesPerCycle() /
               static_cast<double>(numSpines > 0 ? numSpines : 1);
    }

    /** Leaf<->spine propagation latency: that of a GPU link. */
    Cycle effectiveTierLinkLatency() const { return linkLatency; }

    /** Named preset; aborts on an unknown name. */
    static FabricParams preset(const std::string &name);

    /** Named preset, or nullptr for unknown names (validation path). */
    static const FabricParams *findPreset(const std::string &name);

    /** All preset names, in a fixed order. */
    static std::vector<std::string> presetNames();

    /** Copy rescaled to @p gpus GPUs: flat shapes just change the GPU
     *  count; multi-tier shapes keep the per-group size and adjust
     *  numGroups (and numSwitches) to match. */
    FabricParams withGpus(int gpus) const;

    /** First inconsistency as a message, or "" when valid. */
    std::string validationError() const;

    /** Abort with a message if the configuration is inconsistent. */
    void validate() const;

    std::string str() const;
};

} // namespace cais

#endif // CAIS_NOC_TOPOLOGY_HH
