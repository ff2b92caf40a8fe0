#include "switchcompute/throttle.hh"

#include "common/log.hh"

namespace cais
{

ThrottleController::ThrottleController(int num_gpus, int threshold_,
                                       Cycle pause_cycles,
                                       Cycle hint_interval)
    : numGpus(num_gpus), threshold(threshold_), pauseCycles(pause_cycles),
      hintInterval(hint_interval),
      lastHint(static_cast<std::size_t>(num_gpus), 0)
{
}

bool
ThrottleController::onContribution(GroupId group, GpuId g, Cycle now)
{
    if (group == invalidId || g < 0 || g >= numGpus)
        return false;
    auto &counts = open[group];
    if (counts.empty())
        counts.assign(static_cast<std::size_t>(numGpus), 0);
    int &c = counts[static_cast<std::size_t>(g)];
    ++c;
    if (c <= threshold)
        return false;
    Cycle &last = lastHint[static_cast<std::size_t>(g)];
    if (now != 0 && now - last < hintInterval && last != 0)
        return false;
    last = now;
    hints.inc();
    return true;
}

void
ThrottleController::onSessionClose(GroupId group, const NodeMask &mask)
{
    auto it = open.find(group);
    if (it == open.end())
        return;
    auto &counts = it->second;
    mask.forEach([this, &counts](int g) {
        if (g >= numGpus)
            return;
        int &c = counts[static_cast<std::size_t>(g)];
        if (c > 0)
            --c;
    });
    bool any = false;
    for (int g = 0; g < numGpus; ++g)
        if (counts[static_cast<std::size_t>(g)] > 0)
            any = true;
    if (!any)
        open.erase(it);
}

int
ThrottleController::unmatched(GroupId group, GpuId g) const
{
    auto it = open.find(group);
    if (it == open.end() || g < 0 || g >= numGpus)
        return 0;
    return it->second[static_cast<std::size_t>(g)];
}

} // namespace cais
