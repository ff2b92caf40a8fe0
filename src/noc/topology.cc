#include "noc/topology.hh"

#include <sstream>

#include "common/log.hh"
#include "common/nodemask.hh"
#include "noc/arbiter.hh"

namespace cais
{

namespace
{

/** A preset and the name it is registered under. */
struct Preset
{
    const char *name;
    FabricParams params;
};

FabricParams
flatPreset(int gpus, int switches)
{
    FabricParams p;
    p.numGpus = gpus;
    p.numSwitches = switches;
    return p;
}

FabricParams
tieredPreset(int groups, int gpus_per_group, int rails, int spines)
{
    FabricParams p;
    p.numGpus = groups * gpus_per_group;
    p.numGroups = groups;
    p.railsPerGroup = rails;
    p.numSpines = spines;
    p.numSwitches = p.numLeaves() + spines;
    return p;
}

/** Preset table. Shapes:
 *  - dgx-h100: the paper's flat 8-GPU / 4-NVSwitch node.
 *  - nvl72: NVL72-class rack — 9 nodes x 8 GPUs, 4 rails per node
 *    (36 leaves) feeding 6 spine switches.
 *  - rail-optimized-2node/-4node: 2 or 4 DGX-style nodes, 4 rails
 *    each, joined by 4 spines. */
const std::vector<Preset> &
presets()
{
    static const std::vector<Preset> table = {
        {"dgx-h100", flatPreset(8, 4)},
        {"nvl72", tieredPreset(9, 8, 4, 6)},
        {"rail-optimized-2node", tieredPreset(2, 8, 4, 4)},
        {"rail-optimized-4node", tieredPreset(4, 8, 4, 4)},
    };
    return table;
}

} // namespace

const FabricParams *
FabricParams::findPreset(const std::string &name)
{
    for (const Preset &p : presets())
        if (name == p.name)
            return &p.params;
    return nullptr;
}

FabricParams
FabricParams::preset(const std::string &name)
{
    const FabricParams *p = findPreset(name);
    if (!p) {
        std::string names;
        for (const std::string &n : presetNames())
            names += (names.empty() ? "" : ", ") + n;
        fatal("unknown topology preset '%s' (known: %s)", name.c_str(),
              names.c_str());
    }
    return *p;
}

std::vector<std::string>
FabricParams::presetNames()
{
    std::vector<std::string> names;
    for (const Preset &p : presets())
        names.push_back(p.name);
    return names;
}

FabricParams
FabricParams::withGpus(int gpus) const
{
    FabricParams p = *this;
    if (!multiTier()) {
        p.numGpus = gpus;
        return p;
    }
    int per_group = gpusPerGroup();
    if (per_group <= 0 || gpus % per_group != 0) {
        // Leave an impossible shape for validationError() to report
        // with the divisibility message instead of silently rounding.
        p.numGpus = gpus;
        return p;
    }
    p.numGpus = gpus;
    p.numGroups = gpus / per_group;
    p.numSwitches = p.numLeaves() + p.numSpines;
    return p;
}

std::string
FabricParams::validationError() const
{
    if (numGpus < 2)
        return strfmt("fabric needs at least 2 GPUs (got %d)",
                      numGpus);
    if (numSwitches < 1)
        return strfmt("fabric needs at least 1 switch (got %d)",
                      numSwitches);
    if (perGpuBytesPerCycle <= 0.0)
        return "per-GPU bandwidth must be positive";
    if (sw.numVcs < 1)
        return "switch needs at least one VC";
    if (sw.numVcs < static_cast<int>(VcClass::numClasses))
        return strfmt("switch needs >= %d VCs (got %d)",
                      static_cast<int>(VcClass::numClasses),
                      sw.numVcs);
    if (sw.numVcs > RoundRobinArbiter::maxInputs)
        return strfmt("switch supports at most %d VCs, one bit each "
                      "in the link arbiter's ready mask (got %d)",
                      RoundRobinArbiter::maxInputs, sw.numVcs);
    if (interleaveBytes == 0)
        return "interleave granularity must be non-zero";
    if (numGroups < 1)
        return strfmt("fabric needs at least 1 GPU group (got %d)",
                      numGroups);
    // Node ids (GPUs, then switches) key the session masks and ride
    // in 16-bit packet fields.
    if (numGpus + numSwitches > NodeMask::capacity)
        return strfmt("fabric has %d nodes (%d GPUs + %d switches) "
                      "but session masks track at most %d",
                      numGpus + numSwitches, numGpus, numSwitches,
                      NodeMask::capacity);
    if (!multiTier()) {
        if (numGroups > 1 || railsPerGroup > 0)
            return strfmt("tier shape (%d groups, %d rails) needs "
                          "spine switches (numSpines == 0 selects the "
                          "flat topology)",
                          numGroups, railsPerGroup);
        return "";
    }
    if (railsPerGroup < 1)
        return strfmt("multi-tier fabric needs at least 1 rail per "
                      "group (got %d)",
                      railsPerGroup);
    if (numGpus % numGroups != 0)
        return strfmt("GPU count %d is not divisible by the group "
                      "count %d (every group must hold the same "
                      "number of GPUs)",
                      numGpus, numGroups);
    if (gpusPerGroup() < 2)
        return strfmt("multi-tier groups need at least 2 GPUs each "
                      "(got %d GPUs across %d groups)",
                      numGpus, numGroups);
    if (numSwitches != numLeaves() + numSpines)
        return strfmt("numSwitches %d does not match the tier shape: "
                      "%d groups x %d rails + %d spines = %d",
                      numSwitches, numGroups, railsPerGroup, numSpines,
                      numLeaves() + numSpines);
    return "";
}

void
FabricParams::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        fatal("%s", err.c_str());
}

std::string
FabricParams::str() const
{
    std::ostringstream os;
    if (multiTier()) {
        os << numGpus << " GPUs in " << numGroups << " groups x "
           << railsPerGroup << " rails, " << numSpines << " spines, "
           << perGpuBytesPerCycle << " B/cyc per GPU per direction ("
           << perLinkBytesPerCycle() << " per rail link, "
           << effectiveTierLinkBytesPerCycle()
           << " per tier link), latency " << linkLatency << "/"
           << effectiveTierLinkLatency() << " cyc";
        return os.str();
    }
    os << numGpus << " GPUs x " << numSwitches << " switches, "
       << perGpuBytesPerCycle << " B/cyc per GPU per direction ("
       << perLinkBytesPerCycle() << " per link), latency "
       << linkLatency << " cyc";
    return os.str();
}

} // namespace cais
