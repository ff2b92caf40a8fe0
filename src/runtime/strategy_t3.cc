/**
 * @file
 * Baselines 5 and 8: T3 [43] and T3-NVLS. T3's transparent tracking &
 * triggering fuses the ReduceScatter into the producer GEMM: each
 * output tile triggers a DMA of the partial to the tile's home GPU,
 * where it is reduced near memory. We extend T3 to overlap AllGather
 * with the consumer GEMM (per Sec. IV-C), but the RS -> LN -> AG
 * stages keep coarse-grained barriers. T3-NVLS adopts the DMA-based
 * NVLS design of [24]: partials reduce in the switch on their way to
 * the home GPU, and the AllGather uses NVLS multicast.
 */

#include "runtime/execution_strategy.hh"

namespace cais
{

StrategySpec
makeT3(bool with_nvls)
{
    StrategySpec s;
    s.name = with_nvls ? "T3-NVLS" : "T3";
    s.opts.collectives = CollectiveImpl::t3;
    s.opts.t3Nvls = with_nvls;
    return s;
}

} // namespace cais
