/**
 * @file
 * Kernel and thread-block descriptors.
 *
 * A KernelDesc is the unit the execution strategies schedule: one
 * logical operator kernel with a grid of thread blocks per GPU, or one
 * grid that every GPU runs when the kernel is GPU-invariant. Each
 * TbDesc carries a compute cost, remote communication ops (pull side
 * issued with compute, push side issued after), CAIS TB-group
 * membership, fine-grained tile dependencies, and the tile it
 * produces. These are *descriptors*: the runtime engine interprets
 * them against the GPU and fabric models.
 *
 * A TbGrid keeps one grid's TBs dense: every TB's ops and deps live in
 * three flat arrays of the grid, and a TbDesc holds only a begin and a
 * count into each. Emitters reserve exact sizes first (DESIGN.md §6j).
 */

#ifndef CAIS_GPU_KERNEL_HH
#define CAIS_GPU_KERNEL_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cais
{

/** Kinds of remote operations a TB can issue. */
enum class RemoteOpKind : std::uint8_t
{
    plainLoad,    ///< ld.global to a peer GPU (P2P read)
    plainWrite,   ///< st.global to a peer GPU (P2P write)
    nvlsLdReduce, ///< multimem.ld_reduce (pull, in-switch reduce)
    nvlsSt,       ///< multimem.st (push, in-switch multicast)
    nvlsRed,      ///< multimem.red (push, in-switch reduce-to-all)
    caisLoad,     ///< ld.cais (pull, mergeable)
    caisRed,      ///< red.cais (push, mergeable)
};

/** True for pull-mode kinds (issued alongside compute). */
inline bool
isPullKind(RemoteOpKind k)
{
    return k == RemoteOpKind::plainLoad ||
           k == RemoteOpKind::nvlsLdReduce ||
           k == RemoteOpKind::caisLoad;
}

/** True for kinds the compiler may lower to CAIS variants. */
bool isCaisKind(RemoteOpKind k);

/** One contiguous remote access stream of a thread block. */
struct RemoteOp
{
    RemoteOpKind kind = RemoteOpKind::plainLoad;
    Addr base = 0;
    std::uint64_t bytes = 0;

    /** Expected participants for merge/reduction sessions. */
    int expected = 0;

    /** Data moves under a software collective protocol (in-band
     *  flags/padding): the wire carries ~1/3 extra bytes. */
    bool protocolPad = false;
};

/** TileRef::atGpu of a consumer-local dep: the tile at the GPU that
 *  runs the TB. Such a dep names no GPU id, so a grid whose deps are
 *  all local or GPU-invariant can be shared by every GPU. */
constexpr GpuId selfGpu = -2;

/** Reference to a tile of a tracked tensor, at a specific GPU or at
 *  selfGpu (System::enqueueTb resolves it). */
struct TileRef
{
    int tracker = invalidId; ///< index into the system's trackers
    int tile = 0;
    GpuId atGpu = invalidId;
};

/** One thread block of a kernel. Its pull ops, push ops and deps are
 *  [begin, begin + count) slices of its TbGrid's flat arrays. */
struct TbDesc
{
    /** Compute cost in cycles (before jitter). */
    Cycle computeCycles = 0;

    /** Bytes credited to producesTile when this TB completes. */
    std::uint64_t produceBytes = 0;

    /** CAIS TB group (same blockIdx across GPUs); invalidId if none. */
    GroupId group = invalidId;

    /** Tile contributed to the kernel's tracker on completion at the
     *  executing GPU; -1 when the kernel output is pushed remotely. */
    int producesTile = -1;

    /** Remote reads issued with compute (overlappable). */
    std::uint32_t pullBegin = 0;
    std::uint32_t pullCount = 0;

    /** Remote writes/reductions issued after compute. */
    std::uint32_t pushBegin = 0;
    std::uint32_t pushCount = 0;

    /** Tiles that must be ready before this TB may launch. */
    std::uint32_t depBegin = 0;
    std::uint32_t depCount = 0;
};

static_assert(sizeof(TbDesc) <= 48, "TbDesc must stay dense");

/** One grid of thread blocks, with their ops and deps in flat arrays. */
class TbGrid
{
  public:
    std::vector<TbDesc> tbs;

    /** Size every array for its final contents up front: an emitter
     *  that knows its counts never grows (or over-allocates) one. */
    void
    reserve(std::size_t num_tbs, std::size_t num_pulls,
            std::size_t num_pushes, std::size_t num_deps)
    {
        tbs.reserve(num_tbs);
        pulls.reserve(num_pulls);
        pushes.reserve(num_pushes);
        depRefs.reserve(num_deps);
    }

    /** Append a TB; addPull/addPush/addDep extend the newest one.
     *  addPull takes only pull kinds and addPush only push kinds, so
     *  every grid's op lists hold the right kinds by construction. */
    TbDesc &
    add()
    {
        TbDesc &tb = tbs.emplace_back();
        tb.pullBegin = static_cast<std::uint32_t>(pulls.size());
        tb.pushBegin = static_cast<std::uint32_t>(pushes.size());
        tb.depBegin = static_cast<std::uint32_t>(depRefs.size());
        return tb;
    }

    void
    addPull(const RemoteOp &op)
    {
        if (!isPullKind(op.kind))
            panic("TbGrid: push op in pull list");
        last().pullCount++;
        pulls.push_back(op);
    }

    void
    addPush(const RemoteOp &op)
    {
        if (isPullKind(op.kind))
            panic("TbGrid: pull op in push list");
        last().pushCount++;
        pushes.push_back(op);
    }

    void
    addDep(const TileRef &ref)
    {
        last().depCount++;
        depRefs.push_back(ref);
    }

    std::span<const RemoteOp>
    pullOps(const TbDesc &tb) const
    {
        return {pulls.data() + tb.pullBegin, tb.pullCount};
    }

    std::span<const RemoteOp>
    pushOps(const TbDesc &tb) const
    {
        return {pushes.data() + tb.pushBegin, tb.pushCount};
    }

    std::span<const TileRef>
    deps(const TbDesc &tb) const
    {
        return {depRefs.data() + tb.depBegin, tb.depCount};
    }

    /** Every TB's ops or deps, in TB order. */
    std::span<const RemoteOp> allPulls() const { return pulls; }
    std::span<const RemoteOp> allPushes() const { return pushes; }
    std::span<const TileRef> allDeps() const { return depRefs; }

    std::size_t size() const { return tbs.size(); }

    /** Reserved but unused entries over the four arrays. */
    std::size_t
    slack() const
    {
        return tbs.capacity() - tbs.size() + pulls.capacity() -
               pulls.size() + pushes.capacity() - pushes.size() +
               depRefs.capacity() - depRefs.size();
    }

  private:
    TbDesc &
    last()
    {
        if (tbs.empty())
            panic("TbGrid: op or dep added before any TB");
        return tbs.back();
    }

    std::vector<RemoteOp> pulls;
    std::vector<RemoteOp> pushes;
    std::vector<TileRef> depRefs;
};

/** One logical operator kernel across all GPUs. */
struct KernelDesc
{
    KernelId id = invalidId;
    std::string name;

    /** One grid per GPU, indexed by GPU id, or exactly one grid that
     *  every GPU runs (a GPU-invariant kernel). Read through grid(). */
    std::vector<TbGrid> grids;

    /** The grid GPU @p g runs. */
    const TbGrid &
    grid(GpuId g) const
    {
        return grids.size() == 1 ? grids.front()
                                 : grids[static_cast<std::size_t>(g)];
    }

    /** Tracker index fed by this kernel's output; invalidId if none. */
    int producesTracker = invalidId;

    /** Merging-aware TB coordination flags (Sec. III-B). */
    bool preLaunchSync = false;
    bool preAccessSync = false;

    /** SM partition [smFrom, smTo) as a fraction of the SM array,
     *  used by asymmetric kernel overlapping (Sec. III-C.2). */
    double smFrom = 0.0;
    double smTo = 1.0;

    /** Kernels that must fully complete before this one launches
     *  (the coarse global barrier of communication-centric designs). */
    std::vector<KernelId> kernelDeps;

    /** Launch overhead charged once per GPU at kernel start. */
    Cycle launchOverhead = 0;

    /** Communication kernel (collective), for comm/compute-time
     *  accounting (Fig. 2). */
    bool commKernel = false;

    /** Dispatch priority (lower first). The lowering's collective
     *  kernels (NVLS and software RS/AG/AR) use 0 so queued compute
     *  waves cannot starve the data pipeline; compute, staging and
     *  LADM kernels keep 1. */
    int schedPriority = 1;

    /** Total thread blocks across @p num_gpus GPUs. */
    std::size_t totalTbs(int num_gpus) const;

    /** Sum of compute cycles over all TBs on @p gpu. */
    Cycle computeWork(GpuId gpu) const;

    /** Panics unless there is one grid, or one grid per GPU, and the
     *  SM partition is a non-empty range within [0, 1]. TbGrid checks
     *  op kinds. */
    void validate(int num_gpus) const;
};

} // namespace cais

#endif // CAIS_GPU_KERNEL_HH
