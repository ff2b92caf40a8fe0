/**
 * @file
 * One-call experiment driver: assemble a System for a strategy,
 * lower a workload graph, run it, and harvest the metrics the
 * paper's figures report (makespan, link utilization in both
 * directions, GPU utilization, merge-unit statistics, request
 * stagger, comm/compute kernel-time split, utilization-over-time
 * series).
 */

#ifndef CAIS_RUNTIME_SIMULATION_DRIVER_HH
#define CAIS_RUNTIME_SIMULATION_DRIVER_HH

#include <string>
#include <vector>

#include "common/log.hh"
#include "runtime/execution_strategy.hh"

namespace cais
{

/** Machine/scale knobs of one experiment run. */
struct RunConfig
{
    int numGpus = 8;
    int numSwitches = 4;

    /**
     * Fabric preset name ("dgx-h100", "nvl72",
     * "rail-optimized-2node", "rail-optimized-4node"); empty keeps
     * the flat numGpus x numSwitches shape above. Presets are scaled
     * to numGpus via FabricParams::withGpus, so sweeps can vary the
     * GPU count while keeping the preset's tier structure.
     */
    std::string topology;

    /** GPU model. gpu.chunkBytes is the run's one chunk size: it is
     *  also the fabric's interleave width, the merge unit's chunk and
     *  the unit of mergeTableEntriesPerPort. */
    GpuParams gpu;

    /**
     * Master seed of the run. Every random stream in the simulation
     * derives from it (GPU jitter/skew RNGs as seed + gpuId, the
     * system-wide request-stagger RNG via an xor fold), so two runs
     * with equal configs and seeds are bit-identical. The default of
     * 1 reproduces the historical streams exactly.
     */
    std::uint64_t seed = 1;

    double perGpuBwPerDir = 450.0; ///< bytes/cycle per direction
    Cycle linkLatency = 250;

    /**
     * Merging-table capacity as entries per port; the paper's 40 KB
     * at its 128 B request granularity is 320 entries, which we keep
     * at our coarser chunk granularity (see EXPERIMENTS.md on
     * reporting 128 B-equivalent sizes).
     */
    int mergeTableEntriesPerPort = 320;

    /** Explicit byte capacity; 0 derives entries x chunkBytes. */
    std::uint64_t mergeTableBytesPerPort = 0;

    bool unboundedMergeTable = false; ///< Fig. 13a sizing mode
    Cycle mergeTimeout = 50 * cyclesPerUs;

    Cycle utilBinWidth = 2000;
    std::uint64_t maxEvents = 400ull * 1000 * 1000;

    /**
     * Retired: the event core is sequential (DESIGN.md §6f). Kept
     * only so existing callers that assign 1 still compile;
     * validationError() rejects any other value.
     */
    int shards = 1;

    /** When non-empty, a Chrome trace (Perfetto-loadable) of kernel
     *  spans, switch-side merge/sync lanes and counter tracks is
     *  written here (see analysis/deep_trace.hh for the lane map). */
    std::string tracePath;

    /** When non-empty, the schema-versioned JSON metrics report
     *  (analysis/report.hh) is written here. */
    std::string metricsPath;

    /**
     * When non-empty, the causal critical-path profile
     * (cais-profile-v1 JSON, analysis/causal_profile.hh) is written
     * here. Hooks only append to out-of-band edge logs, so a
     * profiled run is bit-identical to an unprofiled one.
     */
    std::string profilePath;

    /**
     * Counter-track sample period for the deep trace, in cycles. The
     * sampler runs outside the event stream (it never schedules
     * events and is not counted in eventsExecuted), so tracing is
     * bit-identical to not tracing. 0 disables the counter tracks.
     */
    Cycle traceSampleCycles = 1000;

    /** Per-run verbosity, installed as a thread-local override for
     *  the duration of the run (sweep jobs don't race on the global
     *  log level). */
    LogLevel verbosity = LogLevel::normal;

    /**
     * Run the cais-verify static checker (analysis/verify.hh) over
     * the lowered system before the first event and abort on any
     * diagnostic. The pass is read-only, so a verified run stays
     * bit-identical to an unverified one; benches expose --no-verify
     * as the escape hatch.
     */
    bool verify = true;

    /** Rule ids ("V1".."V9") the verification gates should skip. */
    std::vector<std::string> verifySuppress;

    /**
     * V9 slack threshold for the post-run gate: fail the run when
     * makespan exceeds boundSlackRatio times the composite static
     * bound and the causal profiler cannot explain the slack
     * (analysis/bound_model.hh). 0 disables V9; V8 (makespan >= the
     * static bound) is always part of the gate while verify is on.
     */
    double boundSlackRatio = 0.0;

    /** First bounds violation as a message, or "" when valid. */
    std::string validationError() const;

    /** Abort with a clear message on the first bounds violation. */
    void validate() const;

    /** Build the system configuration for a strategy. */
    SystemConfig toSystemConfig(const StrategySpec &spec) const;
};

/** Start/finish of one kernel, for timeline analysis. */
struct KernelTiming
{
    std::string name;
    Cycle start = 0;
    Cycle finish = 0;
    bool comm = false;
};

/** Harvested metrics of one run. */
struct RunResult
{
    std::string strategy;
    std::string workload;

    Cycle makespan = 0;

    /** Events the simulator executed for this run (perf tracking). */
    std::uint64_t eventsExecuted = 0;

    double avgUtil = 0.0; ///< mean link utilization, both directions
    double upUtil = 0.0;  ///< GPU-to-switch
    double dnUtil = 0.0;  ///< switch-to-GPU
    double gpuUtil = 0.0; ///< mean SM-slot occupancy

    std::uint64_t wireBytes = 0;

    // Merge-unit aggregates over all switches.
    double staggerUs = 0.0;
    std::uint64_t staggerSamples = 0;
    std::uint64_t peakMergeBytes = 0;
    std::uint64_t mergeLoadReqs = 0;
    std::uint64_t mergeRedReqs = 0;
    std::uint64_t mergeLoadHits = 0;
    std::uint64_t mergeRedHits = 0;
    std::uint64_t mergeFetches = 0;
    std::uint64_t lruEvictions = 0;
    std::uint64_t timeoutEvictions = 0;
    std::uint64_t throttleHints = 0;
    std::uint64_t sessionsClosed = 0;

    /** Serialized comm/compute kernel time (for Fig. 2). */
    Cycle commKernelCycles = 0;
    Cycle computeKernelCycles = 0;

    std::vector<KernelTiming> kernels;

    /** Per-bin mean link utilization over the run (Fig. 16). */
    std::vector<double> utilSeries;
    Cycle utilBinWidth = 0;

    /**
     * Static analytical bounds (analysis/bound_model.hh), computed
     * for every run so tools can report sim-vs-bound ratios without
     * rebuilding the System.
     */
    Cycle boundComposite = 0;
    Cycle boundCompute = 0;
    Cycle boundHbm = 0;
    Cycle boundLink = 0;
    Cycle boundMerge = 0;
    Cycle boundCritPath = 0;
    std::string boundBinding;

    /** makespan in microseconds. */
    double makespanUs() const
    {
        return static_cast<double>(makespan) /
               static_cast<double>(cyclesPerUs);
    }
};

/**
 * Fill @p r's run-wide results from the finished @p sys, read off its
 * components: makespan, events, GPU and link utilization (the Fig. 16
 * series included), wire bytes, and the merge, eviction and throttle
 * counters, peak table bytes and stagger summed over the switches.
 * The harvest step of runGraph; it needs no metric registry.
 */
void harvestCounters(const System &sys, RunResult &r);

/** Run @p graph under @p spec and collect metrics. */
RunResult runGraph(const StrategySpec &spec, const OpGraph &graph,
                   const RunConfig &cfg,
                   const std::string &workload_name);

/** base.makespan / x.makespan. */
double speedupOver(const RunResult &base, const RunResult &x);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &v);

} // namespace cais

#endif // CAIS_RUNTIME_SIMULATION_DRIVER_HH
