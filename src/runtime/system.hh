/**
 * @file
 * The assembled multi-GPU system and its kernel execution engine.
 *
 * A System owns the event queue, the NVLink/NVSwitch fabric with its
 * in-switch compute complexes, the GPU models, the tile trackers and
 * the global address map. Execution strategies register tensors and
 * kernels; run() then drives everything to completion:
 *
 *  - a kernel launches once all kernels in kernelDeps have finished
 *    (finished = all TBs retired AND its output tracker complete);
 *  - a TB becomes dispatchable once its tile dependencies are ready,
 *    enabling the fine-grained cross-kernel overlap of Sec. III-C;
 *    every TB's lifecycle state lives in one dense record, and every
 *    party that parks a TB hands its record id back through the
 *    TbListener interface System implements;
 *  - uncoordinated kernels receive a per-GPU start skew, modelling
 *    the execution drift that CAIS's TB coordination removes.
 */

#ifndef CAIS_RUNTIME_SYSTEM_HH
#define CAIS_RUNTIME_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "dataflow/tile_dependency.hh"
#include "gpu/gpu_core.hh"
#include "switchcompute/switch_compute.hh"

namespace cais
{

class CausalProfiler;

/** Tensor placement across the fabric. */
enum class TensorLayout : std::uint8_t
{
    rowShardedHome, ///< row-block t lives only at its owner GPU
    replicated,     ///< one shared (multimem-style) range, copy per GPU
    perGpuPrivate,  ///< independent per-GPU instance (e.g. partials)
};

/** A registered tensor: tracker + address ranges + tiling. */
struct TensorInfo
{
    std::string name;
    TensorLayout layout = TensorLayout::perGpuPrivate;
    int tracker = invalidId;

    int numTiles = 0;            ///< row-blocks
    std::uint64_t bytesPerTile = 0;
    std::uint64_t totalBytes = 0;

    /** rowShardedHome: first tile of each GPU's shard (size G+1),
     *  balanced so shard sizes differ by at most one tile. */
    std::vector<int> shardStart;

    Addr sharedBase = 0;              ///< replicated layout
    std::vector<Addr> perGpuBase;     ///< private / sharded layouts

    /** Home GPU of tile @p t (rowShardedHome: contiguous shards). */
    GpuId tileOwner(int t) const;

    /** rowShardedHome: GPU @p g owns tiles [shardBegin(g),
     *  shardBegin(g + 1)). */
    int
    shardBegin(GpuId g) const
    {
        return shardStart[static_cast<std::size_t>(g)];
    }

    /** rowShardedHome: tileOwner(@p t) for a walk over ascending
     *  tiles, stepping forward from @p from (the owner of an earlier
     *  tile, or 0) instead of searching. */
    GpuId
    tileOwnerFrom(int t, GpuId from) const
    {
        if (t < 0 || t >= numTiles)
            panic("tensor %s: tile %d out of range", name.c_str(), t);
        while (shardStart[static_cast<std::size_t>(from) + 1] <= t)
            ++from;
        return from;
    }

    /** Address of tile @p t (its unique or shared instance). */
    Addr tileAddr(int t) const;

    /** Address of tile @p t in GPU @p g's private instance. */
    Addr tileAddrAt(GpuId g, int t) const;
};

/** System assembly parameters. */
struct SystemConfig
{
    FabricParams fabric;
    GpuParams gpu;
    InSwitchParams inswitch;

    /** Master RNG seed. GPU g's jitter stream seeds as seed + g; the
     *  request-skew stream (System::skewRng) as 0xabcdef12345 ^
     *  (seed - 1), so the two never correlate and seed 1 keeps the
     *  historical skew stream. */
    std::uint64_t seed = 1;

    /** Event-budget safety valve for run(). */
    std::uint64_t maxEvents = 400ull * 1000 * 1000;
};

/** The full machine plus execution engine. */
class System : public DataArrivalHandler, public TbListener
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    EventQueue &eq() { return queue; }
    const EventQueue &eq() const { return queue; }
    Fabric &fabric() { return *fab; }
    const Fabric &fabric() const { return *fab; }
    int numGpus() const { return cfg.fabric.numGpus; }
    GpuCore &gpu(GpuId g) { return *gpus[static_cast<std::size_t>(g)]; }
    const GpuCore &gpu(GpuId g) const
    {
        return *gpus[static_cast<std::size_t>(g)];
    }
    SwitchComputeComplex &switchCompute(SwitchId s)
    {
        return *complexes[static_cast<std::size_t>(s)];
    }
    const SwitchComputeComplex &switchCompute(SwitchId s) const
    {
        return *complexes[static_cast<std::size_t>(s)];
    }
    int numSwitches() const { return cfg.fabric.numSwitches; }
    const SystemConfig &config() const { return cfg; }

    // --- Tensor / tracker management -------------------------------

    /**
     * Register a tensor of @p rows x @p cols elements, tiled in
     * row-blocks of @p tile_rows rows. The tracker requires
     * @p need_factor x tile bytes per (gpu, tile) for readiness
     * (e.g. numGpus for reduction outputs).
     */
    TensorInfo &defineTensor(std::string name, TensorLayout layout,
                             std::int64_t rows, std::int64_t cols,
                             int elem_bytes, int tile_rows,
                             int need_factor);

    TileTracker &tracker(int idx)
    {
        return *trackers[static_cast<std::size_t>(idx)];
    }

    /** Registered tensors, in definition order. */
    std::size_t numTensors() const { return tensors.size(); }
    const TensorInfo &tensor(std::size_t i) const { return *tensors[i]; }

    /**
     * Bump-allocate @p bytes in GPU @p g's window / the shared
     * window. Bases and guard gaps are multiples of allocAlign(), so
     * a chunk never straddles two interleave blocks.
     */
    Addr allocLocal(GpuId g, std::uint64_t bytes);
    Addr allocShared(std::uint64_t bytes);

    /** Allocate @p n globally unique TB group ids. */
    GroupId allocGroups(int n);

    // --- Kernel registration / execution ---------------------------

    /** Register a kernel; returns its id (also written into desc). */
    KernelId addKernel(KernelDesc desc);

    KernelDesc &kernel(KernelId k);
    const KernelDesc &kernel(KernelId k) const;

    std::size_t numKernels() const { return kernels.size(); }

    /** Run every registered kernel to completion. */
    void run();

    Cycle now() const { return queue.now(); }

    /** Sampling hook for instrumented runs (EventQueue's periodic
     *  observer: outside the event stream, never perturbs a run). */
    void setPeriodicObserver(Cycle period, std::function<void(Cycle)> fn);
    Cycle makespan() const { return finishedAt; }
    Cycle kernelStartTime(KernelId k) const;
    Cycle kernelFinishTime(KernelId k) const;

    /** Per-GPU execution span of a kernel (first TB dispatch to last
     *  TB retirement); {0, 0} if the GPU ran none of its TBs. */
    std::pair<Cycle, Cycle> kernelGpuSpan(KernelId k, GpuId g) const;

    // --- Metrics ----------------------------------------------------

    /**
     * Register the whole machine in @p reg (DESIGN.md §6d):
     * eventq.{executed,peakPending}, switch<S>.{nvls,merge,sync,chip}.*,
     * gpu<G>.{hub,hbm,sched,sync}.* and link.{up,dn}.*. Registration
     * is read-only; call once per System per registry.
     */
    void registerMetrics(MetricRegistry &reg) const;

    /**
     * Calls @p fn(s, name) for every switch in the byte order of its
     * metric-path name: leaf<G>.sw<R>, then spine.sw<K> on multi-tier
     * fabrics; flat ones keep the historical switch<S>, so report diffs
     * against older runs line up. registerMetrics and the RunResult
     * harvest both walk the switches through it, so the harvest sums
     * the per-switch stagger means in report order. @p name (a
     * const std::string &) holds until the next call.
     */
    template <class F>
    void
    forEachSwitchInPathOrder(F &&fn) const
    {
        MetricPath path("");
        const FabricParams &fp = cfg.fabric;
        if (!fp.multiTier()) {
            forEachInPathOrder(0, fp.numSwitches, [&](int s) {
                fn(static_cast<SwitchId>(s), path("switch", s));
            });
            return;
        }
        forEachInPathOrder(0, fp.numGroups, [&](int grp) {
            forEachInPathOrder(0, fp.railsPerGroup, [&](int r) {
                fn(static_cast<SwitchId>(fp.leafIndex(grp, r)),
                   path("leaf", grp, ".sw", r));
            });
        });
        forEachInPathOrder(0, fp.numSpines, [&](int k) {
            fn(static_cast<SwitchId>(fp.numLeaves() + k),
               path("spine.sw", k));
        });
    }

    /** Attach @p h to every switch's merge and sync engines. */
    void setTraceHooks(SwitchTraceHooks *h);

    /**
     * Attach the causal wait-for profiler (DESIGN.md §6g) to every
     * layer: fabric links and switches, GPU hubs/HBM/TB contexts,
     * and tile trackers (existing and future). Call before run();
     * nullptr is a no-op (profiling stays off).
     */
    void setProfiler(CausalProfiler *pr);

    CausalProfiler *profiler() { return prof; }

    /** Mean SM-slot occupancy across GPUs over the run. */
    double gpuUtilization() const;

    // DataArrivalHandler
    void onDataArrival(GpuId gpu, Addr addr, std::uint32_t bytes,
                       int contribs) override;

  private:
    struct KernelState;
    struct TbRecord;

    // TbListener: tile trackers, synchronizers, schedulers and TbRuns
    // hand back the record ids they parked.
    void onTileReady(TbRecId rec) override;
    void onTrackerComplete(KernelId k) override;
    void onSyncReleased(TbRecId rec) override;
    void onSlotGranted(TbRecId rec, int slot) override;
    void onTbProduced(TbRecId rec) override;
    void onTbFinished(TbRecId rec) override;

    const TbDesc &tbDesc(const TbRecord &r) const;
    void tryLaunch(KernelState &ks);
    void launchOnGpu(KernelState &ks, GpuId g);
    void enqueueTb(TbRecId rec);
    void queueTb(TbRecId rec);
    void maybeFinishKernel(KernelState &ks);
    void reportDeadlock() const;

    /** Allocation alignment: max(4 KiB, the chunk size). */
    std::uint64_t allocAlign() const;

    SystemConfig cfg;
    EventQueue queue;
    std::unique_ptr<Fabric> fab;
    std::vector<std::unique_ptr<SwitchComputeComplex>> complexes;
    std::vector<std::unique_ptr<GpuCore>> gpus;

    std::vector<std::unique_ptr<TileTracker>> trackers;
    std::vector<std::unique_ptr<TensorInfo>> tensors;
    AddressMap addrMap;

    std::vector<Addr> localBump;
    Addr sharedBump = 0;
    GroupId nextGroup = 0;

    std::vector<std::unique_ptr<KernelState>> kernels;
    /** One record per (kernel, GPU, TB), kernel-major then GPU-major,
     *  laid out by run(). */
    std::vector<TbRecord> tbs;
    int unfinishedKernels = 0;
    Cycle finishedAt = 0;
    Rng skewRng;
    CausalProfiler *prof = nullptr;
};

} // namespace cais

#endif // CAIS_RUNTIME_SYSTEM_HH
