/**
 * @file
 * Using the lower-level fabric/system API directly: build a custom
 * interconnect (GPU count, switch count, bandwidth, latency), define
 * tensors, hand-craft a kernel with compute + remote reductions, and
 * run it — no workload/strategy layer involved. Also demonstrates the
 * compiler pass on a kernel IR and the deterministic routing.
 *
 *   ./example_custom_interconnect [gpus=4] [switches=2] [bw=300]
 */

#include <cstdio>

#include "common/config.hh"
#include "compiler/cais_lowering.hh"
#include "runtime/system.hh"

using namespace cais;

int
main(int argc, char **argv)
{
    Params args = Params::fromArgs(argc, argv);

    // --- 1. a custom fabric -----------------------------------------
    SystemConfig sc;
    sc.fabric.numGpus = static_cast<int>(args.getInt("gpus", 4));
    sc.fabric.numSwitches =
        static_cast<int>(args.getInt("switches", 2));
    sc.fabric.perGpuBytesPerCycle = args.getDouble("bw", 300.0);
    sc.fabric.linkLatency = static_cast<Cycle>(
        args.getInt("latency_ns", 200));
    sc.gpu.numSms = static_cast<int>(args.getInt("sms", 16));
    sc.gpu.jitterSigma = 0.02;

    System sys(sc);
    int G = sys.numGpus();
    std::printf("fabric: %s\n", sc.fabric.str().c_str());
    std::printf("gpu   : %s\n\n", sc.gpu.str().c_str());

    // --- 2. the compiler pass on a toy kernel IR ---------------------
    IrKernel ir;
    ir.name = "toy.reduce";
    ir.gridX = 8;
    MemInstr red;
    red.op = Opcode::redGlobal;
    red.remote = true;
    red.bytesPerTb = 64 * 1024;
    red.addr = AddressExpr::term(AddrVar::blockIdxX, 64 * 1024);
    ir.accesses.push_back(red);

    LoweringResult lowered = lowerToCais(ir, sys.allocGroups(8));
    std::printf("compiler: %d instruction(s) lowered to CAIS; "
                "%d TB groups\n",
                lowered.numLowered, lowered.plan.numGroups);
    std::printf("  %s\n\n", lowered.kernel.accesses[0].str().c_str());

    // --- 3. a hand-built kernel: every GPU reduces 8 tiles into a
    //        row-sharded output via red.cais ------------------------
    TensorInfo &out = sys.defineTensor(
        "toy.out", TensorLayout::rowShardedHome, 8 * 128, 256, 2, 128,
        G);

    KernelDesc k;
    k.name = "toy.reduce";
    k.grids.resize(static_cast<std::size_t>(G));
    k.producesTracker = out.tracker;
    k.preLaunchSync = true;
    k.preAccessSync = true;
    for (GpuId g = 0; g < G; ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        for (int t = 0; t < out.numTiles; ++t) {
            TbDesc &tb = grid.add();
            tb.computeCycles = 5000;
            tb.group =
                lowered.plan.groupOfTb[static_cast<std::size_t>(t)];
            if (out.tileOwner(t) == g) {
                tb.producesTile = t;
                tb.produceBytes = out.bytesPerTile;
            } else {
                RemoteOp op;
                op.kind = RemoteOpKind::caisRed;
                op.base = out.tileAddr(t);
                op.bytes = out.bytesPerTile;
                op.expected = G - 1;
                grid.addPush(op);
            }
        }
    }
    sys.addKernel(std::move(k));
    sys.run();

    std::printf("run: makespan %.1f us, tracker complete: %s\n",
                static_cast<double>(sys.makespan()) / cyclesPerUs,
                sys.tracker(out.tracker).complete() ? "yes" : "no");
    std::printf("fabric moved %.2f MB of wire data; mean link "
                "utilization %.1f%%\n",
                static_cast<double>(sys.fabric().totalWireBytes()) /
                    (1 << 20),
                100.0 * sys.fabric().avgUtilization(0, sys.makespan()));

    // --- 4. merge effectiveness --------------------------------------
    std::uint64_t red_reqs = 0, merged = 0;
    for (SwitchId s = 0; s < sys.numSwitches(); ++s) {
        red_reqs += sys.switchCompute(s).merge().stats()
                        .redReqs.value();
        merged += sys.switchCompute(s).merge().stats()
                      .mergedWrites.value();
    }
    std::printf("merge unit: %llu red.cais contributions collapsed "
                "into %llu merged writes\n",
                static_cast<unsigned long long>(red_reqs),
                static_cast<unsigned long long>(merged));

    // --- 5. deterministic routing demo -------------------------------
    const DeterministicRouting &r = sys.fabric().routing();
    std::printf("\nrouting: tile 0 of toy.out always converges on "
                "switch %d (hash of 0x%llx)\n",
                r.switchForAddr(out.tileAddr(0)),
                static_cast<unsigned long long>(out.tileAddr(0)));
    return 0;
}
