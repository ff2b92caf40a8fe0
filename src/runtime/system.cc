#include "runtime/system.hh"

#include <algorithm>
#include <memory>

#include "analysis/causal_profile.hh"
#include "common/intmath.hh"
#include "common/log.hh"

namespace cais
{

namespace
{
/** Pseudo home-GPU id of the shared (multimem-style) window: the
 *  historical 62 when it cannot collide with a real GPU, else the top
 *  of the address field's comfortable range (fabrics are capped well
 *  below 127 GPUs). */
constexpr GpuId
sharedWindowGpu(int num_gpus)
{
    return num_gpus <= 62 ? 62 : 127;
}
} // namespace

GpuId
TensorInfo::tileOwner(int t) const
{
    if (layout != TensorLayout::rowShardedHome)
        panic("tensor %s: tileOwner on non-sharded layout",
              name.c_str());
    // shardStart is non-decreasing: the owner is the last GPU whose
    // shard starts at or before t, which skips empty shards.
    auto it = std::upper_bound(shardStart.begin(), shardStart.end(), t);
    if (it == shardStart.begin() || it == shardStart.end())
        panic("tensor %s: tile %d out of range", name.c_str(), t);
    return static_cast<GpuId>(it - shardStart.begin()) - 1;
}

Addr
TensorInfo::tileAddr(int t) const
{
    switch (layout) {
      case TensorLayout::rowShardedHome: {
        GpuId owner = tileOwner(t);
        int local = t - shardStart[static_cast<std::size_t>(owner)];
        return perGpuBase[static_cast<std::size_t>(owner)] +
               static_cast<std::uint64_t>(local) * bytesPerTile;
      }
      case TensorLayout::replicated:
        return sharedBase +
               static_cast<std::uint64_t>(t) * bytesPerTile;
      default:
        panic("tensor %s: tileAddr on private layout (use tileAddrAt)",
              name.c_str());
    }
}

Addr
TensorInfo::tileAddrAt(GpuId g, int t) const
{
    if (layout == TensorLayout::replicated)
        return tileAddr(t);
    return perGpuBase[static_cast<std::size_t>(g)] +
           static_cast<std::uint64_t>(t) * bytesPerTile;
}

/** Runtime state of one registered kernel. */
struct System::KernelState
{
    KernelDesc desc;
    int remainingDeps = 0;
    bool launched = false;
    int remainingTbs = 0;
    bool tbsDone = false;
    bool trackerDone = false;
    bool finished = false;
    Cycle startAt = 0;
    Cycle finishAt = 0;
    std::vector<Cycle> gpuFirstDispatch;
    std::vector<Cycle> gpuLastFinish;
    std::vector<KernelId> dependents;
    std::vector<TbRecId> firstTb; ///< record of each GPU's TB 0
};

/**
 * One thread block of one kernel on one GPU: its dependency countdown,
 * readiness time, CTA slot and — from dispatch until the deferred
 * destroy after retirement — its live TbRun.
 */
struct System::TbRecord
{
    std::unique_ptr<TbRun> run;
    Cycle readyAt = 0;
    KernelState *ks = nullptr;
    GpuId gpu = invalidId;
    TbId idx = invalidId;
    int depsLeft = 0;
    int slot = -1;
};

System::System(const SystemConfig &cfg_)
    : cfg(cfg_), skewRng(0xabcdef12345ull ^ (cfg_.seed - 1))
{
    cfg.fabric.validate();
    cfg.gpu.validate();

    fab = std::make_unique<Fabric>(queue, cfg.fabric);
    const FabricParams &fp = cfg.fabric;
    for (SwitchId s = 0; s < fp.numSwitches; ++s) {
        InSwitchParams isp = cfg.inswitch;
        TierInfo t;
        if (fp.multiTier()) {
            t.fabricGpus = fp.numGpus;
            t.numGroups = fp.numGroups;
            t.gpusPerGroup = fp.gpusPerGroup();
            t.fabric = fab.get();
            if (fp.isSpineSwitch(s)) {
                t.role = TierRole::spine;
                // Cross-leaf partials are not TB traffic; the leaves
                // already throttle their local GPUs.
                isp.merge.throttleEnabled = false;
            } else {
                t.role = TierRole::leaf;
                t.groupIndex = s / fp.railsPerGroup;
                t.firstLocalGpu = t.groupIndex * t.gpusPerGroup;
            }
        }
        complexes.push_back(std::make_unique<SwitchComputeComplex>(
            fab->switchChip(s), isp, t));
    }
    for (GpuId g = 0; g < cfg.fabric.numGpus; ++g) {
        gpus.push_back(std::make_unique<GpuCore>(queue, *fab, g, cfg.gpu,
                                                 cfg.seed, this));
        gpus.back()->hub().setArrivalHandler(this);
    }
    localBump.assign(static_cast<std::size_t>(cfg.fabric.numGpus),
                     allocAlign());
}

System::~System() = default;

TensorInfo &
System::defineTensor(std::string name, TensorLayout layout,
                     std::int64_t rows, std::int64_t cols,
                     int elem_bytes, int tile_rows, int need_factor)
{
    if (rows <= 0 || cols <= 0 || tile_rows <= 0 || need_factor <= 0)
        panic("tensor %s: bad parameters", name.c_str());

    auto t = std::make_unique<TensorInfo>();
    t->name = std::move(name);
    t->layout = layout;
    t->numTiles = static_cast<int>((rows + tile_rows - 1) / tile_rows);
    t->bytesPerTile = static_cast<std::uint64_t>(tile_rows) *
                      static_cast<std::uint64_t>(cols) *
                      static_cast<std::uint64_t>(elem_bytes);
    t->totalBytes =
        static_cast<std::uint64_t>(t->numTiles) * t->bytesPerTile;

    int G = numGpus();
    auto tr = std::make_unique<TileTracker>(
        t->name, G, t->numTiles,
        t->bytesPerTile * static_cast<std::uint64_t>(need_factor));
    tr->setListener(this);
    t->tracker = static_cast<int>(trackers.size());

    switch (layout) {
      case TensorLayout::rowShardedHome: {
        // Balanced sharding: shard sizes differ by at most one tile.
        int base = t->numTiles / G;
        int rem = t->numTiles % G;
        t->shardStart.assign(static_cast<std::size_t>(G) + 1, 0);
        for (GpuId g = 0; g < G; ++g) {
            int count = base + (g < rem ? 1 : 0);
            t->shardStart[static_cast<std::size_t>(g) + 1] =
                t->shardStart[static_cast<std::size_t>(g)] + count;
        }
        for (GpuId g = 0; g < G; ++g) {
            int count = t->shardStart[static_cast<std::size_t>(g) + 1] -
                        t->shardStart[static_cast<std::size_t>(g)];
            std::uint64_t bytes = count
                ? static_cast<std::uint64_t>(count) * t->bytesPerTile
                : t->bytesPerTile; // placeholder for empty shards
            t->perGpuBase.push_back(allocLocal(g, bytes));
            if (count) {
                addrMap.addRange(
                    t->perGpuBase.back(),
                    static_cast<std::uint64_t>(count) * t->bytesPerTile,
                    tr.get(),
                    t->shardStart[static_cast<std::size_t>(g)],
                    t->bytesPerTile);
            }
        }
        tr->setRelevance(t->shardStart);
        break;
      }
      case TensorLayout::replicated:
        t->sharedBase = allocShared(t->totalBytes);
        addrMap.addRange(t->sharedBase, t->totalBytes, tr.get(), 0,
                         t->bytesPerTile);
        break;
      case TensorLayout::perGpuPrivate:
        for (GpuId g = 0; g < G; ++g) {
            t->perGpuBase.push_back(allocLocal(g, t->totalBytes));
            addrMap.addRange(t->perGpuBase.back(), t->totalBytes,
                             tr.get(), 0, t->bytesPerTile);
        }
        break;
    }

    if (prof)
        tr->setProfiler(prof, t->tracker, &queue);
    trackers.push_back(std::move(tr));
    tensors.push_back(std::move(t));
    return *tensors.back();
}

void
System::setProfiler(CausalProfiler *pr)
{
    prof = pr;
    if (!pr)
        return;
    fab->setProfiler(pr);
    for (auto &g : gpus)
        g->setProfiler(pr);
    for (std::size_t i = 0; i < trackers.size(); ++i)
        trackers[i]->setProfiler(pr, static_cast<int>(i), &queue);
}

std::uint64_t
System::allocAlign() const
{
    return std::max<std::uint64_t>(4096, cfg.gpu.chunkBytes);
}

Addr
System::allocLocal(GpuId g, std::uint64_t bytes)
{
    Addr &bump = localBump[static_cast<std::size_t>(g)];
    Addr base = makeAddr(g, bump);
    // Keep ranges chunk-aligned and separated by a guard gap.
    const std::uint64_t align = allocAlign();
    bump += ceilDiv(bytes + align, align) * align;
    return base;
}

Addr
System::allocShared(std::uint64_t bytes)
{
    const std::uint64_t align = allocAlign();
    Addr base = makeAddr(sharedWindowGpu(numGpus()), sharedBump + align);
    sharedBump += ceilDiv(bytes + align, align) * align;
    return base;
}

GroupId
System::allocGroups(int n)
{
    GroupId first = nextGroup;
    nextGroup += n;
    return first;
}

KernelId
System::addKernel(KernelDesc desc)
{
    desc.id = static_cast<KernelId>(kernels.size());
    desc.validate(numGpus());
    auto ks = std::make_unique<KernelState>();
    ks->desc = std::move(desc);
    ks->remainingTbs = static_cast<int>(ks->desc.totalTbs(numGpus()));
    ks->gpuFirstDispatch.assign(
        static_cast<std::size_t>(numGpus()), 0);
    ks->gpuLastFinish.assign(static_cast<std::size_t>(numGpus()), 0);
    kernels.push_back(std::move(ks));
    return kernels.back()->desc.id;
}

KernelDesc &
System::kernel(KernelId k)
{
    return kernels.at(static_cast<std::size_t>(k))->desc;
}

const KernelDesc &
System::kernel(KernelId k) const
{
    return kernels.at(static_cast<std::size_t>(k))->desc;
}

void
System::run()
{
    unfinishedKernels = static_cast<int>(kernels.size());
    if (unfinishedKernels == 0)
        return;

    // Resolve dependency edges and lay out the TB records.
    for (auto &ks : kernels) {
        ks->remainingDeps = static_cast<int>(ks->desc.kernelDeps.size());
        for (KernelId d : ks->desc.kernelDeps)
            kernels.at(static_cast<std::size_t>(d))
                ->dependents.push_back(ks->desc.id);
        for (GpuId g = 0; g < numGpus(); ++g) {
            ks->firstTb.push_back(static_cast<TbRecId>(tbs.size()));
            const TbGrid &grid = ks->desc.grid(g);
            for (TbId i = 0; i < static_cast<TbId>(grid.size()); ++i) {
                TbRecord &r = tbs.emplace_back();
                r.ks = ks.get();
                r.gpu = g;
                r.idx = i;
            }
        }
    }

    for (auto &ks : kernels)
        if (ks->remainingDeps == 0)
            tryLaunch(*ks);

    queue.runAll(cfg.maxEvents);

    if (unfinishedKernels != 0)
        reportDeadlock();
}

void
System::tryLaunch(KernelState &ks)
{
    if (ks.launched || ks.remainingDeps > 0)
        return;
    ks.launched = true;
    ks.startAt = queue.now();

    // Register tracker completion before any TB can contribute.
    if (ks.desc.producesTracker != invalidId) {
        tracker(ks.desc.producesTracker).waitComplete(ks.desc.id);
    } else {
        ks.trackerDone = true;
    }

    if (ks.desc.totalTbs(numGpus()) == 0) {
        ks.tbsDone = true;
        maybeFinishKernel(ks);
        return;
    }

    for (GpuId g = 0; g < numGpus(); ++g) {
        Cycle delay = ks.desc.launchOverhead;
        // GPUs enter the measured region staggered (prior-kernel
        // tails, cluster interference [18]): source kernels start
        // with a per-GPU skew. Downstream kernels inherit their
        // timing from data/barrier dependencies. Pre-launch sync does
        // not skip the skew — early GPUs wait at the Group Sync Table
        // for the laggard — it only re-aligns execution afterward.
        if (ks.desc.kernelDeps.empty() && cfg.gpu.maxStartSkew > 0) {
            delay += static_cast<Cycle>(skewRng.uniform(
                0.0, static_cast<double>(cfg.gpu.maxStartSkew)));
        }
        if (prof) {
            // Launch edge per GPU: overhead + skew between the kernel
            // becoming runnable and its grid hitting this GPU's
            // scheduler. The enabling cause (the finishing dependency
            // kernel) is active now, not inside the delayed closure.
            std::uint64_t csrc = prof->causeNode();
            Cycle ct = prof->causeTime();
            queue.scheduleAfter(delay, [this, &ks, g, csrc, ct] {
                prof->record(profnode::kernel(ks.desc.id),
                             WaitClass::launch, ks.startAt,
                             queue.now(), csrc, ct);
                CausalProfiler::ScopedCause sc(
                    prof, profnode::kernel(ks.desc.id), queue.now());
                launchOnGpu(ks, g);
            });
        } else {
            queue.scheduleAfter(delay, [this, &ks, g] {
                launchOnGpu(ks, g);
            });
        }
    }
}

void
System::launchOnGpu(KernelState &ks, GpuId g)
{
    // An empty grid has no work; its share is accounted as done.
    TbRecId first = ks.firstTb[static_cast<std::size_t>(g)];
    const TbGrid &grid = ks.desc.grid(g);
    for (std::size_t i = 0; i < grid.size(); ++i)
        enqueueTb(first + static_cast<TbRecId>(i));
}

const TbDesc &
System::tbDesc(const TbRecord &r) const
{
    return r.ks->desc.grid(r.gpu).tbs[static_cast<std::size_t>(r.idx)];
}

void
System::enqueueTb(TbRecId rec)
{
    // Each dependency counts down once when its tile is ready (inside
    // waitFor if it already is); the extra count is registration's
    // own, so the TB turns ready once, after its last waitFor. A
    // selfGpu dep waits on the tile at this TB's own GPU.
    TbRecord &r = tbs[rec];
    const TbGrid &grid = r.ks->desc.grid(r.gpu);
    const TbDesc &tb = grid.tbs[static_cast<std::size_t>(r.idx)];
    r.depsLeft = static_cast<int>(tb.depCount) + 1;
    for (const TileRef &ref : grid.deps(tb))
        tracker(ref.tracker).waitFor(
            ref.atGpu == selfGpu ? r.gpu : ref.atGpu, ref.tile, rec);
    onTileReady(rec);
}

void
System::onTileReady(TbRecId rec)
{
    TbRecord &r = tbs[rec];
    if (--r.depsLeft > 0)
        return;
    const TbDesc &tb = tbDesc(r);
    // Pre-launch synchronization (Sec. III-B.2): the TB registers its
    // group and stays pending — without occupying a CTA slot — until
    // the switch has seen all participating GPUs register.
    if (r.ks->desc.preLaunchSync && tb.group != invalidId) {
        gpu(r.gpu).synchronizer().requestSync(
            tb.group, SyncPhase::preLaunch, numGpus(), rec);
        return;
    }
    queueTb(rec);
}

void
System::onSyncReleased(TbRecId rec)
{
    // A dispatched TB only waits on its pre-access barriers; before
    // dispatch the release is the pre-launch one.
    TbRecord &r = tbs[rec];
    if (r.run)
        r.run->onSyncReleased();
    else
        queueTb(rec);
}

void
System::queueTb(TbRecId rec)
{
    TbRecord &r = tbs[rec];
    const KernelDesc &k = r.ks->desc;
    r.readyAt = queue.now();
    gpu(r.gpu).scheduler().enqueue(k.smFrom, k.smTo, k.schedPriority,
                                   rec);
}

void
System::onSlotGranted(TbRecId rec, int slot)
{
    TbRecord &r = tbs[rec];
    KernelState &ks = *r.ks;

    // Occupancy-stall edge: the TB was runnable from readyAt but only
    // now won a CTA slot; the enabling cause is whatever is active —
    // the readiness event itself (immediate grant) or the retiring TB
    // whose slot this one inherits (scheduler pump).
    if (prof)
        prof->record(profnode::tb(ks.desc.id, r.gpu, r.idx),
                     WaitClass::schedulerIdle, r.readyAt, queue.now());

    r.slot = slot;
    r.run = std::make_unique<TbRun>(gpu(r.gpu).tbContext(numGpus()),
                                    r.gpu, ks.desc, tbDesc(r), r.idx,
                                    rec);
    Cycle &first = ks.gpuFirstDispatch[static_cast<std::size_t>(r.gpu)];
    if (first == 0)
        first = queue.now() ? queue.now() : 1;
    r.run->start();
}

void
System::onTbProduced(TbRecId rec)
{
    const TbRecord &r = tbs[rec];
    const KernelDesc &k = r.ks->desc;
    const TbDesc &d = tbDesc(r);
    if (k.producesTracker == invalidId || d.producesTile < 0 ||
        d.produceBytes == 0)
        return;
    tracker(k.producesTracker)
        .contribute(r.gpu, d.producesTile, d.produceBytes);
}

void
System::onTbFinished(TbRecId rec)
{
    const TbRecord &r = tbs[rec];
    KernelState &ks = *r.ks;
    ks.gpuLastFinish[static_cast<std::size_t>(r.gpu)] = queue.now();
    gpu(r.gpu).sms().release(r.slot);
    gpu(r.gpu).scheduler().pump();

    // Defer destruction: we are inside the TbRun's own call frame.
    queue.scheduleAfter(0, [this, rec] { tbs[rec].run.reset(); });

    if (--ks.remainingTbs == 0) {
        ks.tbsDone = true;
        maybeFinishKernel(ks);
    }
}

void
System::onTrackerComplete(KernelId k)
{
    KernelState &ks = *kernels[static_cast<std::size_t>(k)];
    ks.trackerDone = true;
    maybeFinishKernel(ks);
}

void
System::maybeFinishKernel(KernelState &ks)
{
    if (ks.finished || !ks.tbsDone || !ks.trackerDone)
        return;
    ks.finished = true;
    ks.finishAt = queue.now();
    if (--unfinishedKernels == 0)
        finishedAt = queue.now();

    // Kernel-finish edge: the kernel spanned [start, finish]; the last
    // retiring TB or completing tile (the active cause) closed it, and
    // dependent launches are caused by this kernel finishing.
    if (prof)
        prof->record(profnode::kernel(ks.desc.id), WaitClass::depWait,
                     ks.startAt, ks.finishAt);
    CausalProfiler::ScopedCause sc(prof, profnode::kernel(ks.desc.id),
                                   ks.finishAt);

    for (KernelId d : ks.dependents) {
        KernelState &dep = *kernels.at(static_cast<std::size_t>(d));
        if (--dep.remainingDeps == 0)
            tryLaunch(dep);
    }
}

void
System::reportDeadlock() const
{
    std::fprintf(stderr, "=== system stalled at %llu cycles ===\n",
                 static_cast<unsigned long long>(now()));
    for (const auto &ks : kernels) {
        if (ks->finished)
            continue;
        std::fprintf(stderr,
                     "  kernel %d (%s): launched=%d remainingTbs=%d "
                     "deps=%d tbsDone=%d trackerDone=%d\n",
                     ks->desc.id, ks->desc.name.c_str(),
                     ks->launched ? 1 : 0, ks->remainingTbs,
                     ks->remainingDeps, ks->tbsDone ? 1 : 0,
                     ks->trackerDone ? 1 : 0);
        if (ks->desc.producesTracker != invalidId) {
            const TileTracker &t =
                *trackers[static_cast<std::size_t>(
                    ks->desc.producesTracker)];
            std::fprintf(stderr, "    tracker %s progress %.3f\n",
                         t.name().c_str(), t.progress());
            for (GpuId g = 0; g < t.numGpus(); ++g)
                for (int tile = 0; tile < t.numTiles(); ++tile)
                    if (!t.ready(g, tile))
                        std::fprintf(stderr,
                                     "      not ready: gpu %d tile "
                                     "%d\n",
                                     g, tile);
        }
        // Live TBs in (gpu, idx) order: the record layout.
        TbRecId end = ks->firstTb.front() +
                      static_cast<TbRecId>(ks->desc.totalTbs(numGpus()));
        for (TbRecId rec = ks->firstTb.front(); rec < end; ++rec) {
            const TbRecord &r = tbs[rec];
            if (r.run)
                std::fprintf(stderr, "    live TB: gpu %d idx %d [%s]\n",
                             r.gpu, r.idx, r.run->stateStr().c_str());
        }
    }
    for (SwitchId s = 0; s < numSwitches(); ++s) {
        const auto &c = *complexes[static_cast<std::size_t>(s)];
        std::fprintf(stderr,
                     "  switch %d: nvls pending=%zu merge live=%zu "
                     "probes=%zu sync pending=%zu fwd=%llu "
                     "consumed=%llu gen=%llu\n",
                     s, c.nvls().pendingSessions(),
                     c.merge().liveSessions(),
                     c.merge().pendingProbes(),
                     c.sync().pendingGroups(),
                     static_cast<unsigned long long>(
                         fab->switchChip(s).packetsForwarded()),
                     static_cast<unsigned long long>(
                         fab->switchChip(s).packetsConsumed()),
                     static_cast<unsigned long long>(
                         fab->switchChip(s).packetsGenerated()));
    }
    for (GpuId g = 0; g < numGpus(); ++g) {
        const GpuCore &gc = *gpus[static_cast<std::size_t>(g)];
        std::fprintf(stderr,
                     "  gpu %d: sched pending=%zu hub jobs=%zu "
                     "inflight=%d sync pending=%zu\n",
                     g,
                     const_cast<GpuCore &>(gc).scheduler()
                         .pendingCount(),
                     const_cast<GpuCore &>(gc).hub().queuedJobs(),
                     const_cast<GpuCore &>(gc).hub().inflight(),
                     const_cast<GpuCore &>(gc).synchronizer()
                         .pendingCount());
    }
    panic("simulation deadlocked or event budget exhausted");
}

Cycle
System::kernelStartTime(KernelId k) const
{
    return kernels.at(static_cast<std::size_t>(k))->startAt;
}

Cycle
System::kernelFinishTime(KernelId k) const
{
    return kernels.at(static_cast<std::size_t>(k))->finishAt;
}

std::pair<Cycle, Cycle>
System::kernelGpuSpan(KernelId k, GpuId g) const
{
    const KernelState &ks = *kernels.at(static_cast<std::size_t>(k));
    Cycle first = ks.gpuFirstDispatch[static_cast<std::size_t>(g)];
    Cycle last = ks.gpuLastFinish[static_cast<std::size_t>(g)];
    if (first == 0 || last < first)
        return {0, 0};
    return {first, last};
}

void
System::registerMetrics(MetricRegistry &reg) const
{
    // Paths are added in path order, the only order the registry
    // accepts (DESIGN.md §6d): top-level names alphabetically,
    // indexed children through forEachInPathOrder.
    reg.addGaugeU64("eventq.executed",
                    [this] { return queue.executed(); });
    reg.addGaugeU64("eventq.peakPending", [this] {
        return static_cast<std::uint64_t>(queue.peakPending());
    });
    // Fig. 16 utilization-over-time series, computed over the run
    // window at snapshot time so it appears in run reports (and
    // therefore in cais_report summaries and diffs).
    reg.addTimeSeriesFn("fabric.utilSeries", cfg.fabric.utilBinWidth,
                        [this] {
        return fab->utilizationSeries(0, finishedAt ? finishedAt : 1);
    });
    MetricPath path("");
    forEachInPathOrder(0, static_cast<int>(gpus.size()), [&](int g) {
        gpus[static_cast<std::size_t>(g)]->registerMetrics(
            reg, path("gpu", g));
    });

    // Each switch's chip paths sort before its engines' (chip < merge
    // < nvls < sync). The link subtree goes in front of the first
    // switch whose name sorts above "link": every flat switch<S>, but
    // on multi-tier fabrics only the spines (leaf < link < spine).
    bool links_added = false;
    auto addLinks = [&] {
        if (!links_added)
            fab->registerMetrics(reg, "link");
        links_added = true;
    };
    forEachSwitchInPathOrder([&](SwitchId s, const std::string &name) {
        if (name > "link")
            addLinks();
        fab->switchChip(s).registerMetrics(reg, MetricPath(name)("chip"));
        complexes[static_cast<std::size_t>(s)]->registerMetrics(reg, name);
    });
    addLinks();
}

void
System::setTraceHooks(SwitchTraceHooks *h)
{
    for (auto &c : complexes)
        c->setTraceHooks(h);
}

void
System::setPeriodicObserver(Cycle period, std::function<void(Cycle)> fn)
{
    queue.setPeriodicObserver(period, std::move(fn));
}

double
System::gpuUtilization() const
{
    Cycle t = now();
    if (t == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &g : gpus)
        sum += const_cast<GpuCore &>(*g).sms().utilization(t);
    return sum / static_cast<double>(gpus.size());
}

void
System::onDataArrival(GpuId gpu_, Addr addr, std::uint32_t bytes,
                      int contribs)
{
    addrMap.dispatch(gpu_, addr, bytes, contribs);
}

} // namespace cais
