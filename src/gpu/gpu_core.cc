#include "gpu/gpu_core.hh"

namespace cais
{

GpuCore::GpuCore(EventQueue &eq_, Fabric &fabric, GpuId id,
                 const GpuParams &params, std::uint64_t seed,
                 TbListener *listener_)
    : p(params), eq(eq_),
      hubImpl(eq_, fabric, id, params),
      syncImpl(id), smPool(eq_, params.numSms, params.ctasPerSm),
      sched(smPool, listener_),
      rngImpl(seed + static_cast<std::uint64_t>(id)),
      listener(listener_)
{
    p.validate();
    hubImpl.setSynchronizer(&syncImpl);
    syncImpl.setHub(&hubImpl);
    syncImpl.setListener(listener);
    fabric.attachGpu(id, &hubImpl);
}

TbRunContext
GpuCore::tbContext(int num_gpus)
{
    TbRunContext ctx;
    ctx.eq = &eq;
    ctx.hub = &hubImpl;
    ctx.sync = &syncImpl;
    ctx.rng = &rngImpl;
    ctx.listener = listener;
    ctx.jitterSigma = p.jitterSigma;
    ctx.numGpus = num_gpus;
    ctx.prof = prof;
    return ctx;
}

} // namespace cais
