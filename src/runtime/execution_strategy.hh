/**
 * @file
 * Operator-graph lowering: turns an OpGraph into kernels on a System
 * under a configurable execution paradigm. One engine implements all
 * of the paper's execution strategies; the strategy_*.cc translation
 * units define the named option presets (Sec. IV-C's nine baselines
 * plus the CAIS variants).
 *
 * Collective realizations (CollectiveImpl) and the emitter each
 * preset reaches:
 *
 *   emitter                  realization          presets
 *   emitNvlsAllReduce        nvls, nvlsPipelined  TP-NVLS, CoCoNet-NVLS,
 *                                                 FuseLib-NVLS
 *   emitNvlsReduceScatter    nvls                 SP-NVLS
 *   emitNvlsAllGather        nvls, t3 + t3Nvls    SP-NVLS, T3-NVLS
 *   emitSoftwareAllGather    t3                   T3
 *   emitSoftwareReduceScatter
 *     + emitSoftwareAllGather
 *     (AllReduce via a       softwarePipelined    CoCoNet, FuseLib
 *      ".scratch" shard)
 *   emitLadmAllReduce        ladm                 LADM
 *   emitPullStage            cais, ladm           CAIS, CAIS-Base
 *
 * nvls/t3/ladm collectives barrier on their producers; the pipelined
 * realizations chunk-pipeline with the adjacent GEMMs on the top
 * fifth of the SM array instead. t3 fuses the ReduceScatter into the
 * producer GEMM as per-tile DMA writes (track & trigger), and the
 * consumer GEMM overlaps its AllGather through tile deps; cais
 * dissolves every collective into compute kernels via compiler-
 * lowered ld.cais / red.cais.
 */

#ifndef CAIS_RUNTIME_EXECUTION_STRATEGY_HH
#define CAIS_RUNTIME_EXECUTION_STRATEGY_HH

#include <string>
#include <vector>

#include "dataflow/fusion_planner.hh"
#include "runtime/system.hh"
#include "workload/gemm_model.hh"

namespace cais
{

/** How collective communication is realized. */
enum class CollectiveImpl : std::uint8_t
{
    nvls,
    nvlsPipelined,
    softwarePipelined,
    t3,
    cais,
    ladm,
};

/** Full lowering configuration. */
struct LoweringOptions
{
    CollectiveImpl collectives = CollectiveImpl::nvls;

    /** Re-associate RS..AG into AllReduce (basic-TP strategies). */
    bool reassociateToAllReduce = false;

    /** CAIS merging-aware TB coordination (Sec. III-B). */
    bool caisCoordination = false;

    /** CAIS graph-level dataflow optimizer (Sec. III-C). */
    bool graphOptimizer = false;

    /** Asymmetric kernel overlapping within the graph optimizer
     *  (disable for the deep-fusion-only ablation). */
    bool asymmetricOverlap = true;

    /** Per-comm-TB launch cost (CoCoNet's per-chunk kernels). */
    Cycle perCommTbOverhead = 0;

    /** Extra per-kernel launch cost of a decomposed (multi-launch)
     *  collective pipeline (CoCoNet); fused kernels pay none. */
    Cycle commKernelExtraLaunch = 0;

    /** T3-NVLS: DMA reductions go through the switch reducer and the
     *  AllGather uses NVLS multicast. */
    bool t3Nvls = false;
};

/** A named strategy preset. */
struct StrategySpec
{
    std::string name;
    LoweringOptions opts;

    /** Collapse data VCs (CAIS-Partial's missing traffic control). */
    bool unifiedDataVc = false;
};

/** Preset factories (defined in strategy_*.cc). */
StrategySpec makeTpNvls();
StrategySpec makeSpNvls();
StrategySpec makeCoconet(bool with_nvls);
StrategySpec makeFuselib(bool with_nvls);
StrategySpec makeT3(bool with_nvls);
StrategySpec makeLadm();
StrategySpec makeCais();        ///< full CAIS
StrategySpec makeCaisBase();    ///< no coordination, no graph opt
StrategySpec makeCaisPartial(); ///< no traffic control
StrategySpec makeCaisNoCoord(); ///< graph opt without coordination

/** Every strategy of Figs. 11/12, in paper order. */
std::vector<StrategySpec> allStrategies();

/** Lookup by name; fatal() on unknown names. */
StrategySpec strategyByName(const std::string &name);

/** The lowering engine. */
class GraphLowering
{
  public:
    GraphLowering(System &sys, const OpGraph &graph,
                  const LoweringOptions &opts);

    /** Emit all kernels for the graph. */
    void lower();

    /** Kernel that finalizes op's output (for external probes). */
    KernelId opKernel(OpId id) const
    {
        return lastKernel[static_cast<std::size_t>(id)];
    }

    /** Output tensor of an op (nullptr if folded away). */
    const TensorInfo *opTensor(OpId id) const
    {
        return outT[static_cast<std::size_t>(id)];
    }

  private:
    // Per-kind lowering.
    void lowerLayerNorm(OpId id);
    void lowerElementwise(OpId id);
    void lowerAttention(OpId id);
    void lowerGemmCol(OpId id);
    void lowerGemmRow(OpId id);
    void lowerReduceScatter(OpId id);
    void lowerAllGather(OpId id);
    void lowerAllReduceAt(OpId rs_id);

    // Collective kernel emitters. The software ones take their
    // kernel-name suffix and barrier deps from the caller, so the
    // software AllReduce is the RS emitter followed by the AG one.
    void emitNvlsReduceScatter(OpId rs, const TensorInfo &partial);
    void emitNvlsAllGather(OpId ag, const TensorInfo &in);
    void emitNvlsAllReduce(OpId rs, const TensorInfo &partial);
    KernelId emitSoftwareReduceScatter(OpId rs,
                                       const TensorInfo &partial,
                                       const TensorInfo &out,
                                       const char *suffix,
                                       std::vector<KernelId> deps);
    void emitSoftwareAllGather(OpId ag, const TensorInfo &in,
                               const char *suffix,
                               std::vector<KernelId> deps);
    void emitLadmAllReduce(OpId rs, const TensorInfo &partial);

    // Consumer-side staging (CAIS / LADM pull of gathered rows).
    void emitPullStage(OpId ag, const TensorInfo &src,
                       RemoteOpKind kind, double sm_from, double sm_to);

    // Helpers.
    const OpNode &node(OpId id) const { return graph.node(id); }
    OpId realInput(OpId id) const;
    std::vector<KernelId> barrierDeps(OpId id) const;
    TensorInfo &defineOutput(OpId id, TensorLayout layout,
                             std::int64_t cols, int need_factor);

    /** A kernel with one grid per GPU, or with one grid that every
     *  GPU runs when @p gpu_invariant. */
    KernelDesc newKernel(const std::string &name,
                         bool gpu_invariant = false);

    /** Header of a collective kernel: comm accounting, priority 0,
     *  @p deps as barriers, or the comm SM partition when pipelined. */
    KernelDesc newCommKernel(OpId id, const char *suffix,
                             const TensorInfo &out,
                             std::vector<KernelId> deps);
    KernelId finishKernel(OpId id, KernelDesc &&k);
    bool consumerIsReduction(OpId id) const;

    /** Collectives chunk-pipeline with the adjacent GEMMs. */
    bool pipelined() const;

    /** Tile-level edges replace kernel barriers (CAIS graph opt). */
    bool tileDeps() const;

    System &sys;
    const OpGraph &graph;
    LoweringOptions opts;
    FusionPlan fusion;
    GemmTiling tiling;
    int G;
    int tileRows;

    std::vector<TensorInfo *> outT;
    std::vector<KernelId> lastKernel;
};

} // namespace cais

#endif // CAIS_RUNTIME_EXECUTION_STRATEGY_HH
