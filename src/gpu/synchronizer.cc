#include "gpu/synchronizer.hh"

#include "common/log.hh"
#include "gpu/hub.hh"

namespace cais
{

Synchronizer::Synchronizer(GpuId gpu_) : gpu(gpu_)
{
}

void
Synchronizer::requestSync(GroupId group, SyncPhase phase, int expected,
                          TbRecId rec)
{
    if (!hub)
        panic("synchronizer %d: no hub attached", gpu);
    std::uint64_t k = key(group, phase);
    if (pending.count(k))
        panic("synchronizer %d: duplicate sync for group %d phase %d",
              gpu, group, static_cast<int>(phase));
    pending[k] = rec;
    reqs.inc();
    hub->sendSyncReq(group, phase, expected);
}

void
Synchronizer::onRelease(GroupId group, SyncPhase phase)
{
    auto it = pending.find(key(group, phase));
    if (it == pending.end())
        panic("synchronizer %d: release for unknown group %d phase %d",
              gpu, group, static_cast<int>(phase));
    TbRecId rec = it->second;
    pending.erase(it);
    rels.inc();
    listener->onSyncReleased(rec);
}

} // namespace cais
