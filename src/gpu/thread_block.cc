#include "gpu/thread_block.hh"

#include <algorithm>

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

TbRun::TbRun(const TbRunContext &ctx_, GpuId gpu, const KernelDesc &k,
             const TbDesc &tb_, TbId index, TbRecId rec_)
    : ctx(ctx_), gpuId(gpu), kernel(k), tb(tb_), idx(index), rec(rec_)
{
    if (!ctx.eq || !ctx.hub || !ctx.rng || !ctx.listener)
        panic("TbRun: incomplete context");
}

std::uint64_t
TbRun::profNode() const
{
    return profnode::tb(kernel.id, gpuId, idx);
}

void
TbRun::start()
{
    startAt = ctx.eq->now();
    // Compute and pull-mode communication run concurrently inside the
    // TB (double-buffered tiles); the TB advances when both are done.
    double mult = 1.0;
    if (ctx.jitterSigma > 0.0)
        mult = std::clamp(ctx.rng->normal(1.0, ctx.jitterSigma),
                          0.5, 1.8);
    if (tb.computeCycles > 0) {
        // cais-lint: allow(D12) -- the jitter multiplier is real-valued by design; one seeded truncation per TB, bounded by the 0.5 clamp
        Cycle dur = static_cast<Cycle>(
            static_cast<double>(tb.computeCycles) * mult);
        if (dur == 0)
            dur = 1;
        ctx.eq->scheduleAfter(dur, [this] { onComputeDone(); });
    } else {
        computeDone = true;
    }

    bool has_cais_pull = false;
    for (const RemoteOp &op : grid().pullOps(tb))
        if (isCaisKind(op.kind))
            has_cais_pull = true;

    if (tb.pullCount == 0) {
        loadsDone = true;
        maybeAdvance();
        return;
    }

    if (kernel.preAccessSync && has_cais_pull &&
        tb.group != invalidId) {
        // The warp stalls at its first *.cais access until all peer
        // TBs reach the same point; independent instructions (the
        // compute event above) keep issuing meanwhile. Participants
        // are the G-1 requesters (the home GPU reads locally).
        syncReqAt = ctx.eq->now();
        ctx.sync->requestSync(tb.group, SyncPhase::preAccess,
                              ctx.numGpus - 1, rec);
    } else {
        issueLoads();
    }

    if (computeDone)
        maybeAdvance();
}

void
TbRun::issueLoads()
{
    loadsIssueAt = ctx.eq->now();
    ctx.hub->submit({.kernel = kernel.id, .tb = idx, .group = tb.group,
                     .ops = grid().pullOps(tb), .waiter = this});
}

void
TbRun::onSyncReleased()
{
    // Barrier-wait edge; the release delivery (the active cause) hops
    // the walk into the switch sync table.
    if (ctx.prof)
        ctx.prof->record(profNode(), WaitClass::syncBarrier, syncReqAt,
                         ctx.eq->now());
    if (!pushSynced) {
        issueLoads();
        return;
    }
    // The push barrier's release resumes this TB: it owns what
    // follows (push jobs, retirement).
    CausalProfiler::ScopedCause sc(ctx.prof, profNode(), ctx.eq->now());
    issuePushes();
}

void
TbRun::onComputeDone()
{
    computeDone = true;
    // SM-occupancy edge: the TB computed from dispatch to now; the
    // self-provenance continues the walk at dispatch time, where the
    // scheduler's edge takes over.
    if (ctx.prof)
        ctx.prof->record(profNode(), WaitClass::smCompute, startAt,
                         ctx.eq->now(), profNode(), startAt);
    maybeAdvance();
}

void
TbRun::onLoadsDone()
{
    loadsDone = true;
    // Load-wait edge: zero-length at the completing delivery (the
    // active cause), hopping the walk into the fabric.
    if (ctx.prof)
        ctx.prof->record(profNode(), WaitClass::depWait, loadsIssueAt,
                         ctx.eq->now());
    maybeAdvance();
}

void
TbRun::maybeAdvance()
{
    if (!computeDone || !loadsDone || advanced)
        return;
    advanced = true;

    // Everything the advance triggers — tile readiness, push jobs,
    // retirement — is caused by this TB reaching its advance point.
    CausalProfiler::ScopedCause sc(ctx.prof, profNode(),
                                   ctx.eq->now());

    // The output tile is now locally available.
    ctx.listener->onTbProduced(rec);

    issuePushes();
}

void
TbRun::issuePushes()
{
    if (tb.pushCount == 0) {
        finish();
        return;
    }

    bool has_cais_push = false;
    for (const RemoteOp &op : grid().pushOps(tb))
        if (isCaisKind(op.kind))
            has_cais_push = true;

    if (kernel.preAccessSync && has_cais_push &&
        tb.group != invalidId && !pushSynced) {
        // Align the first red.cais across the G-1 contributing GPUs
        // (the home GPU reduces its partial locally).
        pushSynced = true;
        syncReqAt = ctx.eq->now();
        ctx.sync->requestSync(tb.group, SyncPhase::preAccess,
                              ctx.numGpus - 1, rec);
        return;
    }

    // Pushes are posted writes: the CTA retires once they are handed
    // to the memory system (the hub paces actual injection); delivery
    // is tracked by the destination-side tile trackers.
    ctx.hub->submit({.kernel = kernel.id, .tb = idx, .group = tb.group,
                     .ops = grid().pushOps(tb)});
    finish();
}

std::string
TbRun::stateStr() const
{
    return strfmt("compute=%d loads=%d advanced=%d pushSynced=%d "
                  "pulls=%u pushes=%u group=%d",
                  computeDone ? 1 : 0, loadsDone ? 1 : 0,
                  advanced ? 1 : 0, pushSynced ? 1 : 0,
                  tb.pullCount, tb.pushCount, tb.group);
}

void
TbRun::finish()
{
    // Must be the last action: the listener may retire this TbRun.
    ctx.listener->onTbFinished(rec);
}

} // namespace cais
