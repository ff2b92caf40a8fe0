/**
 * @file
 * GPU model parameters, calibrated to NVIDIA H100 specifications and
 * the paper's scaled-down evaluation setup (Sec. IV-B: matrix
 * dimensions and SM count halved relative to the full part).
 */

#ifndef CAIS_GPU_GPU_CONFIG_HH
#define CAIS_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace cais
{

/** Per-GPU model parameters. */
struct GpuParams
{
    /** Streaming multiprocessors (66 = half-scale H100, per paper). */
    int numSms = 66;

    /** Concurrent thread blocks resident per SM. */
    int ctasPerSm = 2;

    /**
     * Dense fp16 FLOPs per cycle per SM at peak. An H100 sustains
     * ~989 TFLOP/s over 132 SMs at ~1 GHz -> ~7500 FLOP/cycle/SM.
     */
    static constexpr double flopsPerCyclePerSm = 7500.0;

    /** Fraction of peak a tuned CUTLASS GEMM sustains. */
    static constexpr double gemmEfficiency = 0.65;

    /** HBM access latency in cycles. */
    static constexpr Cycle hbmLatency = 300;

    /** HBM3 bandwidth in bytes per cycle (3350 GB/s on H100). */
    double hbmBytesPerCycle = 3350.0;

    /** Remote-request granularity (coalesced burst per packet). */
    std::uint32_t chunkBytes = 4096;

    /** Injection window: chunks sent to the fabric but not yet on
     *  the wire; provides backpressure into the SMs. */
    int maxInflightChunks = 512;

    /**
     * Outstanding ld.cais chunks awaiting their response, per GPU —
     * the "request throttling mechanism [that] limits the number of
     * outstanding remote requests per GPU" (Sec. V-C.2). Bounds the
     * switch merging-table working set.
     */
    int maxCaisLoadOutstanding = 256;

    /**
     * Std-dev of the per-TB execution-time multiplier, modelling the
     * scheduling/DRAM jitter that causes cross-GPU drift [18].
     */
    double jitterSigma = 0.08;

    /**
     * Uncoordinated kernel-start skew across GPUs, modelling
     * prior-kernel tail imbalance and cluster interference [18];
     * together with per-TB jitter it produces the ~35 us request
     * stagger the paper measures without coordination. Pre-launch
     * synchronization realigns TBs regardless of this skew.
     */
    Cycle maxStartSkew = 10 * cyclesPerUs;

    /** Kernel launch overhead charged once per kernel per GPU. */
    Cycle kernelLaunchOverhead = 2 * cyclesPerUs;

    /** Effective GEMM throughput per SM in FLOP/cycle. */
    double effectiveFlopsPerCyclePerSm() const
    {
        return flopsPerCyclePerSm * gemmEfficiency;
    }

    /** Empty when the parameters are usable, else why not. */
    std::string validationError() const;

    /** fatal() with validationError() unless it is empty. */
    void validate() const;

    std::string str() const;
};

/** Full-scale H100 configuration (Table II "Full" row). */
GpuParams fullScaleH100();

/** Half-scale configuration used throughout the evaluation. */
GpuParams halfScaleH100();

} // namespace cais

#endif // CAIS_GPU_GPU_CONFIG_HH
