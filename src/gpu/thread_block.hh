/**
 * @file
 * Thread-block execution state machine.
 *
 * A TbRun models one resident CTA:
 *
 *   dispatch -> [pre-launch sync] -> {compute || [pre-access sync ->]
 *   pull ops} -> push ops injected -> retire
 *
 * Pull-mode communication overlaps compute inside the TB (the paper's
 * "TB-level local barrier" instead of a global one); push ops are
 * issued after compute and the CTA retires once they are on the wire.
 * Compute time receives a per-(GPU, TB) jitter multiplier modelling
 * the scheduling drift that staggers requests across GPUs.
 */

#ifndef CAIS_GPU_THREAD_BLOCK_HH
#define CAIS_GPU_THREAD_BLOCK_HH

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "gpu/hub.hh"
#include "gpu/kernel.hh"
#include "gpu/synchronizer.hh"
#include "gpu/tb_listener.hh"

namespace cais
{

/** Shared per-GPU context handed to every TbRun. */
struct TbRunContext
{
    EventQueue *eq = nullptr;
    GpuHub *hub = nullptr;
    Synchronizer *sync = nullptr;
    Rng *rng = nullptr;
    TbListener *listener = nullptr;
    double jitterSigma = 0.0;
    int numGpus = 0;

    /** Causal profiler (DESIGN.md §6g); null when not profiling. */
    CausalProfiler *prof = nullptr;
};

/** One in-flight thread block. */
class TbRun
{
  public:
    /** @param rec record id reported to ctx.listener: onTbProduced
     *        (output tile local), onTbFinished (CTA retired), and
     *        onSyncReleased for pre-access barriers. */
    TbRun(const TbRunContext &ctx, GpuId gpu, const KernelDesc &kernel,
          const TbDesc &tb, TbId index, TbRecId rec);

    /** Begin execution (the CTA already owns its slot). */
    void start();

    /** Resume points: the hub got every pull response; the
     *  pre-access barrier (before pulls or pushes) released. */
    void onLoadsDone();
    void onSyncReleased();

    /** Diagnostic state string for stall reports. */
    std::string stateStr() const;

  private:
    void issueLoads();
    void onComputeDone();
    void maybeAdvance();
    void issuePushes();
    void finish();

    /** This TB's profile-graph node. */
    std::uint64_t profNode() const;

    /** The executing GPU's grid, which holds this TB's ops. */
    const TbGrid &
    grid() const
    {
        return kernel.grid(gpuId);
    }

    TbRunContext ctx;
    GpuId gpuId;
    const KernelDesc &kernel;
    const TbDesc &tb;
    TbId idx;
    TbRecId rec;

    bool computeDone = false;
    bool loadsDone = false;
    bool advanced = false;
    bool pushSynced = false;

    Cycle startAt = 0;      ///< profiler: compute-edge origin
    Cycle loadsIssueAt = 0; ///< profiler: load-wait origin
    Cycle syncReqAt = 0;    ///< profiler: barrier-wait origin
};

} // namespace cais

#endif // CAIS_GPU_THREAD_BLOCK_HH
