/**
 * @file
 * Baselines 3 and 6: CoCoNet [19] and CoCoNet-NVLS. CoCoNet overlaps
 * GEMM with AllReduce through software pipelining: chunked collective
 * kernels launch as producer chunks complete, but occupy SMs
 * (resource contention with compute) and pay a per-chunk kernel-
 * launch cost. It does not overlap communication with the *following*
 * GEMM. The NVLS variant drives the chunks with multimem
 * instructions.
 */

#include "runtime/execution_strategy.hh"

namespace cais
{

StrategySpec
makeCoconet(bool with_nvls)
{
    StrategySpec s;
    s.name = with_nvls ? "CoCoNet-NVLS" : "CoCoNet";
    s.opts.collectives = with_nvls ? CollectiveImpl::nvlsPipelined
                                   : CollectiveImpl::softwarePipelined;
    s.opts.reassociateToAllReduce = true;
    // Per-chunk kernel-launch overhead of the decomposed pipeline
    // (~4 sequential chunk launches per collective).
    s.opts.perCommTbOverhead = 3 * cyclesPerUs;
    s.opts.commKernelExtraLaunch = 12 * cyclesPerUs;
    return s;
}

} // namespace cais
