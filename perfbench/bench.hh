/**
 * @file
 * Host-cost benchmark of the CAIS simulator (see perfbench/README.md).
 *
 * A workload is a fixed list of jobs, each one configuration the
 * simulator's public API runs: runGraph() for the executing workloads,
 * construct -> GraphLowering::lower -> verify::verifySystem ->
 * computeBound for the static one. A pass runs every job once, in
 * order, on the calling thread. An untraced pass calls the library
 * exactly as a user does; a traced pass calls the same public steps one
 * by one and records a span around each, plus the counts of the
 * MetricRegistry snapshot taken after each job.
 *
 * Every job yields a SimResult: the simulated outputs a pure speed-up
 * of the simulator must leave unchanged. Their hash is the workload's
 * sim_digest.
 */

#ifndef CAIS_PERFBENCH_BENCH_HH
#define CAIS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataflow/op_graph.hh"
#include "runtime/simulation_driver.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
double seconds(Clock::time_point from, Clock::time_point to);

/** The simulated outputs of one job, compared bit for bit. */
struct SimResult
{
    std::uint64_t makespan = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t events = 0;
    std::uint64_t mergeLoadReqs = 0;
    std::uint64_t mergeRedReqs = 0;
    std::uint64_t mergeLoadHits = 0;
    std::uint64_t mergeRedHits = 0;
    std::uint64_t sessionsClosed = 0;
    std::uint64_t evictions = 0;
    std::uint64_t boundComposite = 0;

    bool operator==(const SimResult &) const = default;
};

/** FNV-1a hash over every field of every result, in job order. */
std::uint64_t simDigest(const std::vector<SimResult> &results);

/** "%016llx" rendering of a digest. */
std::string hexDigest(std::uint64_t d);

/**
 * Indices of the jobs whose result differs between @p a and @p b
 * (every index past the shorter list counts as different).
 */
std::vector<std::size_t> mismatches(const std::vector<SimResult> &a,
                                    const std::vector<SimResult> &b);

/** One configuration the simulator runs. */
struct Job
{
    std::string tag; ///< "model/L1/CAIS@topology", for messages
    cais::StrategySpec spec;
    cais::RunConfig cfg;
    std::string workload;   ///< sub-layer / layer name
    std::size_t graph = 0;  ///< index into Workload::graphs

    /** Speedup group (-1: not part of speedup_dev_pct); jobs of one
     *  group differ only in strategy. */
    int group = -1;
    std::size_t strategy = 0; ///< index into cais::allStrategies()
};

/** A fixed job set plus what the benchmark needs to run it. */
struct Workload
{
    std::string name;

    /** true: jobs execute events (runGraph); false: static gates. */
    bool executes = true;

    /** The speedup groups are the paper's Fig. 12 grid, so
     *  speedupDevPct() is the paper error (paper_err_pct). */
    bool paperGrid = false;

    /** Passes every run makes even past its time budget, so the tail
     *  percentile is taken over a fixed minimum sample. */
    int minPasses = 1;

    std::vector<cais::OpGraph> graphs;
    std::vector<Job> jobs;
};

/** Names of the workloads buildWorkload() knows, in benchmark order. */
const std::vector<std::string> &workloadNames();

/**
 * Build the graphs and jobs of workload @p name with every job's
 * RunConfig::seed set to @p seed. @p smoke shrinks the job set and the
 * model sizes to a few seconds in total, keeping every layer it
 * exercises; the benchmark's own tests use it. Throws
 * std::invalid_argument for an unknown name.
 */
Workload buildWorkload(const std::string &name, std::uint64_t seed,
                       bool smoke = false);

/** Layers a traced job is split into, in call order. */
enum class Layer
{
    construct, ///< RunConfig::validate, System::System, registerMetrics
    lower,     ///< GraphLowering::lower
    verify,    ///< verify::verifySystem (V1-V7)
    run,       ///< System::run
    bound,     ///< computeBound
    snapshot,  ///< MetricRegistry::snapshot
    postrun,   ///< result harvest and verify::verifyPostRun (V8/V9)
    count
};

/** Metric name of a layer's host time ("runtime.run_s", ...). */
const char *layerMetric(Layer l);

/** Counts read from the MetricRegistry snapshot, summed over jobs. */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t linkPackets = 0;
    std::uint64_t linkWireBytes = 0;
    std::uint64_t linkBusyCycles = 0;
    std::uint64_t linkCycles = 0; ///< links x makespan
    std::uint64_t chipForwarded = 0;
    std::uint64_t hubChunks = 0;
    std::uint64_t mergeReqs = 0;
    std::uint64_t mergeHits = 0;
    std::uint64_t mergeEvictions = 0;
    std::uint64_t nvlsOps = 0;
    std::uint64_t syncRequests = 0;
    std::uint64_t schedDispatched = 0;
    std::uint64_t hbmBytes = 0;

    void add(const LayerCounts &o);
};

/** One recorded span: a job (layer == count) or a layer inside it. */
struct Span
{
    Layer layer = Layer::count;
    int pass = 0;
    std::size_t job = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/** What one pass over a workload produced. */
struct PassResult
{
    bool traced = false;
    Clock::time_point start; ///< when the pass began
    double wallSeconds = 0.0; ///< sum of jobSeconds
    std::vector<double> jobSeconds;

    std::vector<double> jobMid; ///< job midpoints, s since pass start

    /** HostSpeedProbe samples taken around and between the jobs, and
     *  when each was taken (s since pass start). */
    std::vector<double> speeds;
    std::vector<double> speedAt;

    /** Mean of speeds (1 when none were taken). */
    double speed() const;

    /** jobSeconds, each scaled by the mean of the samples taken while
     *  it ran or within kSpeedWindow of it (all samples when none
     *  were; unscaled when no samples were taken). */
    std::vector<double> scaledJobSeconds() const;
    std::vector<SimResult> results;

    /** Jobs that tripped a check: job index -> reason. */
    std::map<std::size_t, std::string> failures;

    // Traced passes only.
    double layerSeconds[static_cast<int>(Layer::count)] = {};
    std::vector<double> jobLayerSeconds; ///< sum of a job's layer spans
    LayerCounts counts;
    std::vector<double> boundRatios; ///< makespan / boundComposite
};

/**
 * Run job @p i of @p w. With @p spans null this is the untraced path
 * (one runGraph call for executing workloads); otherwise each public
 * step gets a span appended to @p spans and the snapshot counts are
 * added to @p counts. Returns "" when the job passed its checks, else
 * the reason it failed.
 */
std::string runJob(const Workload &w, std::size_t i, SimResult &out,
                   std::vector<Span> *spans = nullptr,
                   LayerCounts *counts = nullptr, int pass = 0);

class HostSpeedProbe;

/**
 * Run every job of @p w once, in order. With a @p probe, also sample
 * the host speed before the first job, after the last, and between
 * jobs when one is due. @p between, when set, is called after each
 * job. Neither sampling nor @p between is part of any job's time.
 */
PassResult runPass(const Workload &w, bool traced,
                   std::vector<Span> *spans = nullptr, int pass = 0,
                   HostSpeedProbe *probe = nullptr,
                   const std::function<void()> &between = {});

/**
 * Share of an untraced pass's host time that the layer spans of a
 * traced pass over the same jobs account for: the sum over jobs of the
 * traced layer spans over the sum of the untraced job times, each at
 * reference speed (PassResult::scaledJobSeconds). Near 1 when the
 * traced steps do the work runGraph does; 0 when either pass is empty.
 */
double spanCoverage(const PassResult &untraced, const PassResult &traced);

/**
 * 100 x mean over baselines of |ln(measured / paper)|, where measured
 * is the geomean over speedup groups of the speedup of CAIS over the
 * baseline (makespan ratio, or static-bound ratio for a workload that
 * does not execute) and paper the Fig. 12 geomean the paper reports.
 * On the Fig. 12 grid (sublayer8) this is the paper error; elsewhere it
 * is how far the workload's speedups sit from those figures. Returns a
 * negative value when no job belongs to a speedup group.
 */
double speedupDevPct(const Workload &w,
                     const std::vector<SimResult> &results);

/** A tail percentile with the sample it was taken from. */
struct TailStat
{
    double percentile = 0.0; ///< e.g. 95 for p95
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples strictly above its rank
};

/**
 * The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
 * least 10 of @p select_n samples above it (p50 when none does), read
 * by nearest rank from @p values. @p select_n, clamped to
 * values.size(), fixes the choice so that runs which finish a different
 * number of passes still report the same percentile.
 */
TailStat tailPercentile(std::vector<double> values, std::size_t select_n);

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> v);

/**
 * Host time of the reference kernel on the machine the benchmark was
 * defined on (4-core x86 Xeon VM, Release build, quiet moment).
 */
inline constexpr double kReferenceSeconds = 0.015;

/** Seconds either side of a job whose speed samples scale it. */
inline constexpr double kSpeedWindow = 2.0;

/** Seconds between host-speed samples taken between jobs. */
inline constexpr double kSampleEvery = 1.0;

/**
 * Samples the speed of this host relative to that machine:
 * kReferenceSeconds over the median time of three runs of a fixed
 * kernel with the simulator's host-side mix (a binary heap, a growing
 * hash map, random reads over a 16 MiB table). Shared virtual machines
 * swing by tens of percent within seconds to minutes; a host time
 * multiplied by the mean of the samples taken while it ran is the time
 * the reference machine would have taken. The kernel is part of the
 * benchmark, so no simulator change moves it.
 *
 * The constructor pins this process to its current CPU and forks a
 * helper process (same CPU) that runs the kernel on request, so the
 * kernel's memory stays out of this process's peak RSS; the destructor
 * stops and reaps it. Exits the program if the helper cannot be
 * started or stops answering.
 */
class HostSpeedProbe
{
  public:
    HostSpeedProbe();
    ~HostSpeedProbe();

    HostSpeedProbe(const HostSpeedProbe &) = delete;
    HostSpeedProbe &operator=(const HostSpeedProbe &) = delete;

    /** One sample now. */
    double sample();

    /** True when kSampleEvery seconds have passed since the last
     *  sample. */
    bool due() const;

  private:
    int pid = -1;
    int toHelper = -1;
    int fromHelper = -1;
    Clock::time_point last;
};

/** Resident-memory high-water mark of this process, MB. */
double peakRssMb();

/** Machine and build fingerprint as one JSON object. */
std::string fingerprintJson();

} // namespace perfbench

#endif // CAIS_PERFBENCH_BENCH_HH
