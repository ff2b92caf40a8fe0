#include "runtime/execution_strategy.hh"

#include <algorithm>

#include "common/log.hh"
#include "compiler/cais_lowering.hh"

namespace cais
{

namespace
{

/** Pipelined collectives run on the top fifth of the SM array: the
 *  SM stealing of CoCoNet / FuseLib's comm kernels. */
constexpr double pipelinedCommSmFrom = 0.8;

/**
 * Tile deps on @p src (null: the op has no input), at the GPU where
 * each producer instance lives, for a walk over ascending tiles: a
 * sharded producer's owner is stepped forward, never searched; any
 * other input is the consumer's own (selfGpu). Either way the deps do
 * not depend on the consumer GPU.
 */
class DepAt
{
  public:
    explicit DepAt(const TensorInfo *src_)
        : src(src_),
          sharded(src_ && src_->layout == TensorLayout::rowShardedHome),
          gpu(sharded ? 0 : selfGpu)
    {
    }

    TileRef
    operator()(int tile)
    {
        if (sharded)
            gpu = src->tileOwnerFrom(tile, gpu);
        return TileRef{src->tracker, tile, gpu};
    }

  private:
    const TensorInfo *src;
    bool sharded;
    GpuId gpu;
};

/** Tiles of @p t that GPU @p g owns (rowShardedHome). */
int
shardSize(const TensorInfo &t, GpuId g)
{
    return t.shardBegin(g + 1) - t.shardBegin(g);
}

} // namespace

GraphLowering::GraphLowering(System &sys_, const OpGraph &graph_,
                             const LoweringOptions &opts_)
    : sys(sys_), graph(graph_), opts(opts_), G(sys_.numGpus()),
      tileRows(tiling.tileM)
{
    FusionOptions fo;
    fo.enableTileDeps = opts.graphOptimizer;
    fo.enableAsymmetricOverlap =
        opts.graphOptimizer && opts.asymmetricOverlap;
    fusion = FusionPlanner().plan(graph, fo);

    outT.assign(graph.size(), nullptr);
    lastKernel.assign(graph.size(), invalidId);
}

void
GraphLowering::lower()
{
    for (OpId id : graph.topoOrder()) {
        switch (node(id).kind) {
          case OpKind::layerNorm:
          case OpKind::elementwise:
            lowerElementwise(id);
            break;
          case OpKind::attentionCore:
            lowerAttention(id);
            break;
          case OpKind::gemmColParallel:
            lowerGemmCol(id);
            break;
          case OpKind::gemmRowParallel:
            lowerGemmRow(id);
            break;
          case OpKind::reduceScatter:
            lowerReduceScatter(id);
            break;
          case OpKind::allGather:
            lowerAllGather(id);
            break;
          default:
            panic("cannot lower op kind %d",
                  static_cast<int>(node(id).kind));
        }
    }
}

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

OpId
GraphLowering::realInput(OpId id) const
{
    const auto &ins = node(id).inputs;
    return ins.empty() ? invalidId : ins.front();
}

std::vector<KernelId>
GraphLowering::barrierDeps(OpId id) const
{
    std::vector<KernelId> deps;
    for (OpId in : node(id).inputs) {
        KernelId k = lastKernel[static_cast<std::size_t>(in)];
        if (k != invalidId &&
            std::find(deps.begin(), deps.end(), k) == deps.end())
            deps.push_back(k);
    }
    return deps;
}

TensorInfo &
GraphLowering::defineOutput(OpId id, TensorLayout layout,
                            std::int64_t cols, int need_factor)
{
    TensorInfo &t = sys.defineTensor(node(id).name, layout,
                                     node(id).rows, cols,
                                     node(id).elemBytes, tileRows,
                                     need_factor);
    outT[static_cast<std::size_t>(id)] = &t;
    return t;
}

KernelDesc
GraphLowering::newKernel(const std::string &name, bool gpu_invariant)
{
    KernelDesc k;
    k.name = name;
    k.grids.resize(gpu_invariant ? 1 : static_cast<std::size_t>(G));
    k.launchOverhead = sys.config().gpu.kernelLaunchOverhead;
    return k;
}

KernelDesc
GraphLowering::newCommKernel(OpId id, const char *suffix,
                             const TensorInfo &out,
                             std::vector<KernelId> deps)
{
    KernelDesc k = newKernel(node(id).name + suffix);
    k.commKernel = true;
    k.schedPriority = 0;
    k.launchOverhead += opts.commKernelExtraLaunch;
    if (pipelined())
        k.smFrom = pipelinedCommSmFrom;
    else
        k.kernelDeps = std::move(deps);
    k.producesTracker = out.tracker;
    return k;
}

KernelId
GraphLowering::finishKernel(OpId id, KernelDesc &&k)
{
    return lastKernel[static_cast<std::size_t>(id)] =
               sys.addKernel(std::move(k));
}

bool
GraphLowering::consumerIsReduction(OpId id) const
{
    for (OpId c : graph.consumers(id)) {
        OpKind k = node(c).kind;
        if (k == OpKind::reduceScatter || k == OpKind::allReduce)
            return true;
    }
    return false;
}

bool
GraphLowering::pipelined() const
{
    return opts.collectives == CollectiveImpl::nvlsPipelined ||
           opts.collectives == CollectiveImpl::softwarePipelined;
}

bool
GraphLowering::tileDeps() const
{
    return opts.collectives == CollectiveImpl::cais &&
           opts.graphOptimizer;
}

// --------------------------------------------------------------------
// Compute operators
// --------------------------------------------------------------------

void
GraphLowering::lowerElementwise(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;

    bool replicated_mode =
        n.rowSharded && opts.reassociateToAllReduce;
    bool row_sharded = n.rowSharded && !replicated_mode;
    std::int64_t cols_local = n.colSharded ? n.cols / G : n.cols;

    TensorInfo &out = defineOutput(
        id, row_sharded ? TensorLayout::rowShardedHome
                        : TensorLayout::perGpuPrivate,
        cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;

    // Only a row-sharded output differs per GPU (its home shard).
    KernelDesc k = newKernel(n.name, !row_sharded);
    if (!tileDeps() && in != invalidId)
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    Cycle cost = memBoundTbCycles(
        gp, out.bytesPerTile, n.kind == OpKind::layerNorm ? 3.0 : 2.0);

    for (std::size_t gi = 0; gi < k.grids.size(); ++gi) {
        const auto g = static_cast<GpuId>(gi);
        TbGrid &grid = k.grids[gi];
        const int lo = row_sharded ? out.shardBegin(g) : 0;
        const int hi = row_sharded ? out.shardBegin(g + 1) : out.numTiles;
        const auto tbs = static_cast<std::size_t>(hi - lo);
        grid.reserve(tbs, 0, 0, inT ? tbs : 0);
        DepAt dep(inT);
        for (int t = lo; t < hi; ++t) {
            TbDesc &tb = grid.add();
            tb.computeCycles = cost;
            tb.producesTile = t;
            tb.produceBytes = out.bytesPerTile;
            if (inT)
                grid.addDep(dep(t));
        }
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerAttention(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t cols_local = n.cols / G;

    TensorInfo &out =
        defineOutput(id, TensorLayout::perGpuPrivate, cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;

    KernelDesc k = newKernel(n.name, true);
    if (!tileDeps())
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    Cycle cost = static_cast<Cycle>(
        static_cast<double>(attentionTbCycles(gp, n.inner, cols_local,
                                              tileRows)) *
        n.flopScale);

    const auto tbs = static_cast<std::size_t>(out.numTiles);
    TbGrid &grid = k.grids.front();
    grid.reserve(tbs, 0, 0, inT ? tbs : 0);
    DepAt dep(inT);
    for (int t = 0; t < out.numTiles; ++t) {
        TbDesc &tb = grid.add();
        tb.computeCycles = cost;
        tb.producesTile = t;
        tb.produceBytes = out.bytesPerTile;
        if (inT)
            grid.addDep(dep(t));
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerGemmCol(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t cols_local = n.cols / G;

    TensorInfo &out =
        defineOutput(id, TensorLayout::perGpuPrivate, cols_local, 1);

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;
    if (in != invalidId && !inT)
        panic("gemm %s: input tensor missing", n.name.c_str());

    bool input_is_stage = in != invalidId &&
        node(in).kind == OpKind::allGather &&
        (opts.collectives == CollectiveImpl::cais ||
         opts.collectives == CollectiveImpl::ladm);
    bool input_is_collective =
        in != invalidId && isCommOp(node(in).kind);

    KernelDesc k = newKernel(n.name, true);
    k.smFrom = fusion.of(id).smFrom;
    k.smTo = fusion.of(id).smTo;

    // Edge policy: staged inputs and T3's AG-GEMM overlap use tile
    // deps; everything else barriers unless the graph optimizer is on.
    bool barrier = !tileDeps() && !input_is_stage &&
                   !(opts.collectives == CollectiveImpl::t3 &&
                     input_is_collective);
    if (barrier)
        k.kernelDeps = barrierDeps(id);
    k.producesTracker = out.tracker;

    int nt = static_cast<int>(ceilDiv(cols_local, tiling.tileN));
    Cycle cost = static_cast<Cycle>(
        static_cast<double>(gemmTbCycles(gp, tiling, n.inner)) *
        n.flopScale);
    std::uint64_t portion = static_cast<std::uint64_t>(tiling.tileM) *
                            static_cast<std::uint64_t>(tiling.tileN) *
                            static_cast<std::uint64_t>(n.elemBytes);

    const auto tbs = static_cast<std::size_t>(out.numTiles) *
                     static_cast<std::size_t>(nt);
    TbGrid &grid = k.grids.front();
    grid.reserve(tbs, 0, 0, inT ? tbs : 0);
    DepAt dep(inT);
    for (int i = 0; i < out.numTiles; ++i) {
        const TileRef in_tile = inT ? dep(i) : TileRef{};
        for (int j = 0; j < nt; ++j) {
            TbDesc &tb = grid.add();
            tb.computeCycles = cost;
            tb.producesTile = i;
            tb.produceBytes = portion;
            if (inT)
                grid.addDep(in_tile);
        }
    }
    finishKernel(id, std::move(k));
}

void
GraphLowering::lowerGemmRow(OpId id)
{
    const OpNode &n = node(id);
    const GpuParams &gp = sys.config().gpu;
    std::int64_t k_local = n.inner / G;

    OpId in = realInput(id);
    const TensorInfo *inT =
        in != invalidId ? outT[static_cast<std::size_t>(in)] : nullptr;
    if (in != invalidId && !inT)
        panic("gemm %s: input tensor missing", n.name.c_str());

    bool fused_reduction =
        !opts.reassociateToAllReduce &&
        (opts.collectives == CollectiveImpl::cais ||
         opts.collectives == CollectiveImpl::t3) &&
        consumerIsReduction(id);

    // A fused reduction pushes each GPU's partials off its home shard;
    // materialized partials are the same grid on every GPU.
    KernelDesc k = newKernel(n.name, !fused_reduction);
    k.smFrom = fusion.of(id).smFrom;
    k.smTo = fusion.of(id).smTo;
    if (!tileDeps())
        k.kernelDeps = barrierDeps(id);

    int nt_cols = static_cast<int>(ceilDiv(n.cols, tiling.tileN));
    Cycle cost = static_cast<Cycle>(
        static_cast<double>(gemmTbCycles(gp, tiling, k_local)) *
        n.flopScale);
    std::uint64_t portion = static_cast<std::uint64_t>(tiling.tileM) *
                            static_cast<std::uint64_t>(tiling.tileN) *
                            static_cast<std::uint64_t>(n.elemBytes);

    if (fused_reduction) {
        // The reduction op's output tensor is defined here and the
        // RS op itself folds away (GEMM TBs push red.cais / DMA
        // writes straight into it — track & trigger / CAIS style).
        OpId rs = graph.consumers(id).front();
        TensorInfo &rsOut = sys.defineTensor(
            node(rs).name, TensorLayout::rowShardedHome, n.rows,
            n.cols, n.elemBytes, tileRows, G);
        outT[static_cast<std::size_t>(rs)] = &rsOut;
        outT[static_cast<std::size_t>(id)] = &rsOut;
        k.producesTracker = rsOut.tracker;

        RemoteOpKind push_kind = RemoteOpKind::plainWrite;
        if (opts.collectives == CollectiveImpl::cais ||
            opts.t3Nvls)
            push_kind = RemoteOpKind::caisRed;

        // Compiler pass: static index analysis + TB grouping + CAIS
        // lowering (groups only materialize under coordination).
        TbGroupingPlan plan;
        if (opts.caisCoordination &&
            push_kind == RemoteOpKind::caisRed) {
            IrKernel ir;
            ir.name = n.name;
            ir.gridX = nt_cols;
            ir.gridY = rsOut.numTiles;
            MemInstr red;
            red.op = Opcode::redGlobal;
            red.remote = true;
            red.bytesPerTb = portion;
            red.addr = AddressExpr::term(AddrVar::blockIdxY,
                                         static_cast<std::int64_t>(
                                             rsOut.bytesPerTile)) +
                       AddressExpr::term(AddrVar::blockIdxX,
                                         static_cast<std::int64_t>(
                                             portion));
            ir.accesses.push_back(red);
            auto lowered =
                lowerToCais(ir, sys.allocGroups(ir.numTbs()));
            plan = lowered.plan;
            k.preLaunchSync = true;
            k.preAccessSync = true;
        }

        const auto cols = static_cast<std::size_t>(nt_cols);
        const auto tbs = static_cast<std::size_t>(rsOut.numTiles) * cols;
        for (GpuId g = 0; g < G; ++g) {
            TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
            const int lo = rsOut.shardBegin(g);
            const int hi = rsOut.shardBegin(g + 1);
            grid.reserve(tbs, 0,
                         tbs - static_cast<std::size_t>(hi - lo) * cols,
                         inT ? tbs : 0);
            DepAt dep(inT);
            GpuId owner = 0;
            for (int i = 0; i < rsOut.numTiles; ++i) {
                const TileRef in_tile = inT ? dep(i) : TileRef{};
                // The home GPU's partial reduces locally; every other
                // GPU pushes its portions into the home shard.
                const bool home = i >= lo && i < hi;
                Addr tile_addr = 0;
                if (!home) {
                    owner = rsOut.tileOwnerFrom(i, owner);
                    tile_addr = rsOut.tileAddrAt(
                        owner, i - rsOut.shardBegin(owner));
                }
                for (int j = 0; j < nt_cols; ++j) {
                    TbDesc &tb = grid.add();
                    tb.computeCycles = cost;
                    if (inT)
                        grid.addDep(in_tile);
                    if (plan.grouped)
                        tb.group = plan.groupOfTb[static_cast<
                            std::size_t>(i * nt_cols + j)];
                    if (home) {
                        tb.producesTile = i;
                        tb.produceBytes = portion;
                    } else {
                        RemoteOp op;
                        op.kind = push_kind;
                        op.base = tile_addr +
                                  static_cast<std::uint64_t>(j) *
                                      portion;
                        op.bytes = portion;
                        op.expected = G - 1;
                        grid.addPush(op);
                    }
                }
            }
        }
        finishKernel(id, std::move(k));
        // The RS op is folded; record the producing kernel for it.
        lastKernel[static_cast<std::size_t>(rs)] =
            lastKernel[static_cast<std::size_t>(id)];
        return;
    }

    // Partials materialize; a collective kernel reduces them later.
    bool shared_window =
        opts.collectives == CollectiveImpl::nvls ||
        opts.collectives == CollectiveImpl::nvlsPipelined;
    TensorInfo &out = defineOutput(
        id,
        shared_window ? TensorLayout::replicated
                      : TensorLayout::perGpuPrivate,
        n.cols, 1);
    k.producesTracker = out.tracker;

    const auto tbs = static_cast<std::size_t>(out.numTiles) *
                     static_cast<std::size_t>(nt_cols);
    TbGrid &grid = k.grids.front();
    grid.reserve(tbs, 0, 0, inT ? tbs : 0);
    DepAt dep(inT);
    for (int i = 0; i < out.numTiles; ++i) {
        const TileRef in_tile = inT ? dep(i) : TileRef{};
        for (int j = 0; j < nt_cols; ++j) {
            TbDesc &tb = grid.add();
            tb.computeCycles = cost;
            tb.producesTile = i;
            tb.produceBytes = portion;
            if (inT)
                grid.addDep(in_tile);
        }
    }
    finishKernel(id, std::move(k));
}

// --------------------------------------------------------------------
// Communication operators
// --------------------------------------------------------------------

void
GraphLowering::lowerReduceScatter(OpId id)
{
    if (opts.reassociateToAllReduce) {
        lowerAllReduceAt(id);
        return;
    }
    if (outT[static_cast<std::size_t>(id)]) {
        // Folded into the producer GEMM (CAIS / T3).
        return;
    }

    const TensorInfo &partial = *outT[static_cast<std::size_t>(
        realInput(id))];

    if (opts.collectives == CollectiveImpl::nvls ||
        opts.collectives == CollectiveImpl::nvlsPipelined) {
        emitNvlsReduceScatter(id, partial);
    } else {
        const TensorInfo &out = defineOutput(
            id, TensorLayout::rowShardedHome, node(id).cols, G);
        emitSoftwareReduceScatter(id, partial, out, ".sw-rs",
                                  barrierDeps(id));
    }
}

void
GraphLowering::lowerAllGather(OpId id)
{
    OpId in = realInput(id);
    const TensorInfo &src = *outT[static_cast<std::size_t>(in)];

    if (opts.reassociateToAllReduce) {
        // The tensor is already replicated after the AllReduce.
        outT[static_cast<std::size_t>(id)] =
            outT[static_cast<std::size_t>(in)];
        lastKernel[static_cast<std::size_t>(id)] =
            lastKernel[static_cast<std::size_t>(in)];
        return;
    }

    switch (opts.collectives) {
      case CollectiveImpl::cais: {
        // AG folds into a pull stage feeding the consumer GEMM, on
        // the consumer's SM range.
        auto consumers = graph.consumers(id);
        OpSchedule sm;
        if (!consumers.empty())
            sm = fusion.of(consumers.front());
        emitPullStage(id, src, RemoteOpKind::caisLoad, sm.smFrom,
                      sm.smTo);
        return;
      }
      case CollectiveImpl::ladm:
        emitPullStage(id, src, RemoteOpKind::plainLoad, 0.0, 1.0);
        return;
      case CollectiveImpl::nvls:
      case CollectiveImpl::nvlsPipelined:
        emitNvlsAllGather(id, src);
        return;
      case CollectiveImpl::t3:
        if (opts.t3Nvls)
            emitNvlsAllGather(id, src);
        else
            emitSoftwareAllGather(id, src, ".sw-ag", barrierDeps(id));
        return;
      default:
        emitSoftwareAllGather(id, src, ".sw-ag", barrierDeps(id));
        return;
    }
}

void
GraphLowering::lowerAllReduceAt(OpId rs_id)
{
    const TensorInfo &partial = *outT[static_cast<std::size_t>(
        realInput(rs_id))];

    switch (opts.collectives) {
      case CollectiveImpl::nvls:
      case CollectiveImpl::nvlsPipelined:
        emitNvlsAllReduce(rs_id, partial);
        return;
      case CollectiveImpl::ladm:
        emitLadmAllReduce(rs_id, partial);
        return;
      default: {
        // Two-phase direct software AllReduce: RS into a scratch
        // shard, then AG back to every GPU (ring-equivalent volume).
        const OpNode &n = node(rs_id);
        const TensorInfo &scratch = sys.defineTensor(
            n.name + ".scratch", TensorLayout::rowShardedHome, n.rows,
            n.cols, n.elemBytes, tileRows, G);
        KernelId rs_k = emitSoftwareReduceScatter(
            rs_id, partial, scratch, ".rs", barrierDeps(rs_id));
        emitSoftwareAllGather(rs_id, scratch, ".ag", {rs_k});
        return;
      }
    }
}

// --------------------------------------------------------------------
// Collective kernel emitters
// --------------------------------------------------------------------

void
GraphLowering::emitNvlsReduceScatter(OpId rs, const TensorInfo &partial)
{
    const TensorInfo &out = defineOutput(
        rs, TensorLayout::rowShardedHome, node(rs).cols, G);
    KernelDesc k = newCommKernel(rs, ".nvls-rs", out, barrierDeps(rs));

    const auto gpus = static_cast<std::size_t>(G);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        const auto tbs = static_cast<std::size_t>(shardSize(out, g));
        grid.reserve(tbs, tbs, 0, tbs * gpus);
        for (int i = out.shardBegin(g); i < out.shardBegin(g + 1); ++i) {
            TbDesc &tb = grid.add();
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp op;
            op.kind = RemoteOpKind::nvlsLdReduce;
            op.protocolPad = true;
            op.base = partial.tileAddr(i);
            op.bytes = partial.bytesPerTile;
            op.expected = G;
            grid.addPull(op);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile *
                              static_cast<std::uint64_t>(G);
            for (GpuId p = 0; p < G; ++p)
                grid.addDep(TileRef{partial.tracker, i, p});
        }
    }
    finishKernel(rs, std::move(k));
}

void
GraphLowering::emitNvlsAllGather(OpId ag, const TensorInfo &in)
{
    const TensorInfo &out =
        defineOutput(ag, TensorLayout::replicated, node(ag).cols, 1);
    KernelDesc k = newCommKernel(ag, ".nvls-ag", out, barrierDeps(ag));

    // Each owner multicasts its shard; its deps are its own tiles.
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        const int lo = in.shardBegin(g);
        const int hi = std::min(in.shardBegin(g + 1), out.numTiles);
        const auto tbs = static_cast<std::size_t>(std::max(hi - lo, 0));
        grid.reserve(tbs, 0, tbs, tbs);
        for (int i = lo; i < hi; ++i) {
            TbDesc &tb = grid.add();
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp op;
            op.kind = RemoteOpKind::nvlsSt;
            op.protocolPad = true;
            op.base = out.tileAddr(i);
            op.bytes = out.bytesPerTile;
            grid.addPush(op);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            grid.addDep(TileRef{in.tracker, i, g});
        }
    }
    finishKernel(ag, std::move(k));
}

void
GraphLowering::emitNvlsAllReduce(OpId rs, const TensorInfo &partial)
{
    const TensorInfo &out =
        defineOutput(rs, TensorLayout::replicated, node(rs).cols, 1);
    KernelDesc k = newCommKernel(rs, ".nvls-ar", out, barrierDeps(rs));

    const int per_gpu = (out.numTiles + G - 1) / G;
    const auto gpus = static_cast<std::size_t>(G);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        const int lo = std::min(g * per_gpu, out.numTiles);
        const int hi = std::min(lo + per_gpu, out.numTiles);
        const auto tbs = static_cast<std::size_t>(hi - lo);
        grid.reserve(tbs, tbs, tbs, tbs * gpus);
        for (int i = lo; i < hi; ++i) {
            TbDesc &tb = grid.add();
            tb.computeCycles = opts.perCommTbOverhead;
            RemoteOp pull;
            pull.kind = RemoteOpKind::nvlsLdReduce;
            pull.protocolPad = true;
            pull.base = partial.tileAddr(i);
            pull.bytes = partial.bytesPerTile;
            pull.expected = G;
            grid.addPull(pull);
            RemoteOp push;
            push.kind = RemoteOpKind::nvlsSt;
            push.protocolPad = true;
            push.base = out.tileAddr(i);
            push.bytes = out.bytesPerTile;
            grid.addPush(push);
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            for (GpuId p = 0; p < G; ++p)
                grid.addDep(TileRef{partial.tracker, i, p});
        }
    }
    finishKernel(rs, std::move(k));
}

KernelId
GraphLowering::emitSoftwareReduceScatter(OpId rs,
                                         const TensorInfo &partial,
                                         const TensorInfo &out,
                                         const char *suffix,
                                         std::vector<KernelId> deps)
{
    const GpuParams &gp = sys.config().gpu;
    KernelDesc k = newCommKernel(rs, suffix, out, std::move(deps));

    // Every GPU ships its partial of tile i to owner(i).
    const Cycle cost = memBoundTbCycles(gp, out.bytesPerTile, 1.0) +
                       opts.perCommTbOverhead;
    const auto tbs = static_cast<std::size_t>(out.numTiles);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        grid.reserve(tbs, 0,
                     tbs - static_cast<std::size_t>(shardSize(out, g)),
                     tbs);
        DepAt dep(&partial);
        GpuId owner = 0;
        for (int i = 0; i < out.numTiles; ++i) {
            TbDesc &tb = grid.add();
            tb.computeCycles = cost;
            grid.addDep(dep(i));
            owner = out.tileOwnerFrom(i, owner);
            if (owner == g) {
                tb.producesTile = i;
                tb.produceBytes = out.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.protocolPad = true;
                op.base =
                    out.tileAddrAt(owner, i - out.shardBegin(owner));
                op.bytes = out.bytesPerTile;
                grid.addPush(op);
            }
        }
    }
    return finishKernel(rs, std::move(k));
}

void
GraphLowering::emitSoftwareAllGather(OpId ag, const TensorInfo &in,
                                     const char *suffix,
                                     std::vector<KernelId> deps)
{
    const GpuParams &gp = sys.config().gpu;
    const TensorInfo &out = defineOutput(
        ag, TensorLayout::perGpuPrivate, node(ag).cols, 1);
    KernelDesc k = newCommKernel(ag, suffix, out, std::move(deps));

    // Owners broadcast their tiles to all peers.
    const Cycle cost = memBoundTbCycles(gp, out.bytesPerTile, 1.0) +
                       opts.perCommTbOverhead;
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        const int lo = in.shardBegin(g);
        const int hi = std::min(in.shardBegin(g + 1), out.numTiles);
        const auto tbs = static_cast<std::size_t>(std::max(hi - lo, 0));
        grid.reserve(tbs, 0, tbs * static_cast<std::size_t>(G - 1), tbs);
        for (int i = lo; i < hi; ++i) {
            TbDesc &tb = grid.add();
            tb.computeCycles = cost;
            grid.addDep(TileRef{in.tracker, i, g});
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            for (GpuId p = 0; p < G; ++p) {
                if (p == g)
                    continue;
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.protocolPad = true;
                op.base = out.tileAddrAt(p, i);
                op.bytes = out.bytesPerTile;
                grid.addPush(op);
            }
        }
    }
    finishKernel(ag, std::move(k));
}

void
GraphLowering::emitLadmAllReduce(OpId rs, const TensorInfo &partial)
{
    const OpNode &n = node(rs);
    const GpuParams &gp = sys.config().gpu;
    TensorInfo &out =
        defineOutput(rs, TensorLayout::perGpuPrivate, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".ladm-ar");
    k.commKernel = true;
    k.kernelDeps = barrierDeps(rs);
    k.producesTracker = out.tracker;

    const Cycle cost = memBoundTbCycles(
        gp, partial.bytesPerTile * static_cast<std::uint64_t>(G), 1.0);
    const auto tbs = static_cast<std::size_t>(out.numTiles);
    const auto gpus = static_cast<std::size_t>(G);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        grid.reserve(tbs, tbs * (gpus - 1), 0, tbs * gpus);
        for (int i = 0; i < out.numTiles; ++i) {
            TbDesc &tb = grid.add();
            // Locality-aware placement dedups reads within a GPU but
            // every GPU still pulls every peer's partial remotely.
            for (GpuId p = 0; p < G; ++p) {
                grid.addDep(TileRef{partial.tracker, i, p});
                if (p == g)
                    continue;
                RemoteOp op;
                op.kind = RemoteOpKind::plainLoad;
                op.base = partial.tileAddrAt(p, i);
                op.bytes = partial.bytesPerTile;
                grid.addPull(op);
            }
            tb.computeCycles = cost;
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
        }
    }
    finishKernel(rs, std::move(k));
}

void
GraphLowering::emitPullStage(OpId ag, const TensorInfo &src,
                             RemoteOpKind kind, double sm_from,
                             double sm_to)
{
    const OpNode &n = node(ag);
    TensorInfo &out =
        defineOutput(ag, TensorLayout::perGpuPrivate, n.cols, 1);

    KernelDesc k = newKernel(n.name + ".stage");
    k.commKernel = true;
    k.smFrom = sm_from;
    k.smTo = sm_to;
    if (!tileDeps())
        k.kernelDeps = barrierDeps(ag);
    k.producesTracker = out.tracker;

    // Compiler pass over the stage kernel: the load index depends
    // only on blockIdx (GPU-invariant) -> mergeable, grouped.
    TbGroupingPlan plan;
    if (opts.caisCoordination && kind == RemoteOpKind::caisLoad) {
        IrKernel ir;
        ir.name = n.name + ".stage";
        ir.gridX = out.numTiles;
        ir.gridY = 1;
        MemInstr ld;
        ld.op = Opcode::ldGlobal;
        ld.remote = true;
        ld.bytesPerTb = src.bytesPerTile;
        ld.addr = AddressExpr::term(
            AddrVar::blockIdxX,
            static_cast<std::int64_t>(src.bytesPerTile));
        ir.accesses.push_back(ld);
        auto lowered = lowerToCais(ir, sys.allocGroups(ir.numTbs()));
        plan = lowered.plan;
        k.preLaunchSync = true;
        k.preAccessSync = true;
    }

    // Every GPU pulls the tiles of the other GPUs' shards.
    const auto tbs = static_cast<std::size_t>(src.numTiles);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        grid.reserve(tbs,
                     tbs - static_cast<std::size_t>(shardSize(src, g)), 0,
                     tbs);
        GpuId owner = 0;
        for (int i = 0; i < src.numTiles; ++i) {
            owner = src.tileOwnerFrom(i, owner);
            TbDesc &tb = grid.add();
            tb.producesTile = i;
            tb.produceBytes = out.bytesPerTile;
            grid.addDep(TileRef{src.tracker, i, owner});
            if (plan.grouped)
                tb.group =
                    plan.groupOfTb[static_cast<std::size_t>(i)];
            if (owner != g) {
                RemoteOp op;
                op.kind = kind;
                op.base =
                    src.tileAddrAt(owner, i - src.shardBegin(owner));
                op.bytes = src.bytesPerTile;
                op.expected = G - 1;
                grid.addPull(op);
            }
        }
    }
    finishKernel(ag, std::move(k));
}

} // namespace cais
