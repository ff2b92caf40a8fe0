#include "gpu/kernel.hh"

#include "common/log.hh"

namespace cais
{

bool
isCaisKind(RemoteOpKind k)
{
    return k == RemoteOpKind::caisLoad || k == RemoteOpKind::caisRed;
}

std::size_t
KernelDesc::totalTbs(int num_gpus) const
{
    if (grids.size() == 1)
        return grids.front().size() * static_cast<std::size_t>(num_gpus);
    std::size_t n = 0;
    for (const auto &g : grids)
        n += g.size();
    return n;
}

Cycle
KernelDesc::computeWork(GpuId gpu) const
{
    Cycle c = 0;
    for (const TbDesc &tb : grid(gpu).tbs)
        c += tb.computeCycles;
    return c;
}

void
KernelDesc::validate(int num_gpus) const
{
    if (grids.size() != 1 &&
        grids.size() != static_cast<std::size_t>(num_gpus))
        panic("kernel %s: grid count %zu is neither 1 nor the GPU count "
              "%d",
              name.c_str(), grids.size(), num_gpus);
    if (smFrom < 0.0 || smTo > 1.0 || smFrom >= smTo)
        panic("kernel %s: bad SM partition [%f, %f)", name.c_str(),
              smFrom, smTo);
}

} // namespace cais
