#include "workload/collectives.hh"

#include <algorithm>

#include "common/log.hh"

namespace cais
{

void
precontribute(System &sys, const TensorInfo &t)
{
    TileTracker &tr = sys.tracker(t.tracker);
    std::uint64_t need = tr.needBytesPerTile();
    for (GpuId g = 0; g < sys.numGpus(); ++g)
        for (int i = 0; i < t.numTiles; ++i)
            tr.contribute(g, i, need);
}

CollectiveBench
buildNvlsAllReduce(System &sys, std::uint64_t bytes, int tb_bytes_log2)
{
    int G = sys.numGpus();
    std::uint64_t per_tb = 1ull << tb_bytes_log2;
    std::int64_t cols = static_cast<std::int64_t>(per_tb / 2);
    std::int64_t rows =
        static_cast<std::int64_t>((bytes + per_tb - 1) / per_tb);
    if (rows < G)
        rows = G;

    // Model the buffer as rows x cols fp16 with one row per TB chunk.
    TensorInfo &partial = sys.defineTensor(
        "arbench.partial", TensorLayout::replicated, rows, cols, 2, 1,
        1);
    TensorInfo &out = sys.defineTensor(
        "arbench.out", TensorLayout::replicated, rows, cols, 2, 1, 1);
    precontribute(sys, partial);

    KernelDesc k;
    k.name = "nvls-allreduce";
    k.commKernel = true;
    k.grids.resize(static_cast<std::size_t>(G));
    k.producesTracker = out.tracker;

    const int per_gpu = (out.numTiles + G - 1) / G;
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        const int lo = std::min(g * per_gpu, out.numTiles);
        const int hi = std::min(lo + per_gpu, out.numTiles);
        const auto tbs = static_cast<std::size_t>(hi - lo);
        grid.reserve(tbs, tbs, tbs, 0);
        for (int i = lo; i < hi; ++i) {
            TbDesc &tb = grid.add();
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
        }
    }

    CollectiveBench b;
    b.bytes = static_cast<std::uint64_t>(rows) *
              static_cast<std::uint64_t>(cols) * 2;
    b.kernel = sys.addKernel(std::move(k));
    return b;
}

CollectiveBench
buildSoftwareAllReduce(System &sys, std::uint64_t bytes,
                       int tb_bytes_log2)
{
    int G = sys.numGpus();
    std::uint64_t per_tb = 1ull << tb_bytes_log2;
    std::int64_t cols = static_cast<std::int64_t>(per_tb / 2);
    std::int64_t rows =
        static_cast<std::int64_t>((bytes + per_tb - 1) / per_tb);
    if (rows < G)
        rows = G;

    TensorInfo &partial = sys.defineTensor(
        "swar.partial", TensorLayout::perGpuPrivate, rows, cols, 2, 1,
        1);
    TensorInfo &scratch = sys.defineTensor(
        "swar.scratch", TensorLayout::rowShardedHome, rows, cols, 2, 1,
        G);
    TensorInfo &out = sys.defineTensor(
        "swar.out", TensorLayout::perGpuPrivate, rows, cols, 2, 1, 1);
    precontribute(sys, partial);

    // Phase 1: ship partials to shard owners.
    KernelDesc k1;
    k1.name = "sw-allreduce.rs";
    k1.commKernel = true;
    k1.grids.resize(static_cast<std::size_t>(G));
    k1.producesTracker = scratch.tracker;
    const auto tiles = static_cast<std::size_t>(scratch.numTiles);
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k1.grids[static_cast<std::size_t>(g)];
        const int lo = scratch.shardBegin(g);
        const int hi = scratch.shardBegin(g + 1);
        grid.reserve(tiles, 0, tiles - static_cast<std::size_t>(hi - lo),
                     0);
        GpuId owner = 0;
        for (int i = 0; i < scratch.numTiles; ++i) {
            TbDesc &tb = grid.add();
            owner = scratch.tileOwnerFrom(i, owner);
            if (owner == g) {
                tb.producesTile = i;
                tb.produceBytes = scratch.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::plainWrite;
                op.protocolPad = true;
                op.base = scratch.tileAddrAt(
                    owner, i - scratch.shardBegin(owner));
                op.bytes = scratch.bytesPerTile;
                grid.addPush(op);
            }
        }
    }
    KernelId rs_k = sys.addKernel(std::move(k1));

    // Phase 2: owners broadcast their reduced shard.
    KernelDesc k2;
    k2.name = "sw-allreduce.ag";
    k2.commKernel = true;
    k2.grids.resize(static_cast<std::size_t>(G));
    k2.producesTracker = out.tracker;
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k2.grids[static_cast<std::size_t>(g)];
        const int lo = scratch.shardBegin(g);
        const int hi = std::min(scratch.shardBegin(g + 1), out.numTiles);
        const auto tbs = static_cast<std::size_t>(std::max(hi - lo, 0));
        grid.reserve(tbs, 0, tbs * static_cast<std::size_t>(G - 1), tbs);
        for (int i = lo; i < hi; ++i) {
            TbDesc &tb = grid.add();
            grid.addDep(TileRef{scratch.tracker, i, g});
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

    CollectiveBench b;
    b.bytes = static_cast<std::uint64_t>(rows) *
              static_cast<std::uint64_t>(cols) * 2;
    b.kernel = sys.addKernel(std::move(k2));
    (void)rs_k;
    return b;
}

double
nvlsAllReduceAnalyticCycles(int num_gpus, double bw_per_dir,
                            std::uint64_t bytes, Cycle rtt)
{
    double G = static_cast<double>(num_gpus);
    // Per-GPU, per-direction wire volume: the full partial is fetched
    // once for the gather-reduce (uplink), plus the 1/G result push;
    // downlink mirrors it with the multicast.
    double volume = static_cast<double>(bytes) * (G + 1.0) / G;
    return volume / bw_per_dir + static_cast<double>(rtt);
}

double
allReduceBusBw(int num_gpus, std::uint64_t bytes, double cycles)
{
    double G = static_cast<double>(num_gpus);
    double alg = static_cast<double>(bytes) / cycles;
    return alg * 2.0 * (G - 1.0) / G;
}

} // namespace cais
