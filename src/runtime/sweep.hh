/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * Every headline experiment is a sweep of independent runGraph()
 * simulations (strategies x models x table sizes x GPU counts). Each
 * System is fully self-contained — it owns its event queue, fabric,
 * packet-id allocator, stats and RNGs — so sweep jobs are
 * embarrassingly parallel. SweepRunner executes a vector of jobs on a
 * std::thread pool and guarantees:
 *
 *  - results are returned in submission order, independent of the
 *    worker count or scheduling;
 *  - every RunResult is bit-identical between CAIS_JOBS=1 and
 *    CAIS_JOBS=N (no simulation observes cross-System state);
 *  - the first exception (in submission order) is rethrown after the
 *    pool drains; later jobs are not started once a job has failed.
 *
 * The worker count comes from the CAIS_JOBS environment variable,
 * falling back to std::thread::hardware_concurrency().
 */

#ifndef CAIS_RUNTIME_SWEEP_HH
#define CAIS_RUNTIME_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "runtime/simulation_driver.hh"

namespace cais
{

/** One independent simulation in a sweep. */
struct SweepJob
{
    StrategySpec spec;

    /** Graph builder, invoked on the worker thread that runs the
     *  job (keeps per-job graph construction off the hot path of
     *  submission and out of shared state). */
    std::function<OpGraph()> graph;

    RunConfig cfg;
    std::string workload;
};

/** Job over an already-built graph (copied; jobs stay independent). */
SweepJob makeSweepJob(StrategySpec spec, OpGraph graph, RunConfig cfg,
                      std::string workload);

/** Fixed-size worker pool executing sweep jobs. */
class SweepRunner
{
  public:
    /** @p threads <= 0 resolves defaultThreads(). */
    explicit SweepRunner(int threads = 0);

    /**
     * Run all jobs to completion. Results are indexed exactly like
     * @p jobs. If any job throws, the exception of the
     * earliest-submitted failing job is rethrown once all in-flight
     * jobs have drained (jobs not yet started are skipped).
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &jobs);

    int threads() const { return nThreads; }

    /** CAIS_JOBS if set (>0), else hardware_concurrency(), min 1. */
    static int defaultThreads();

  private:
    int nThreads;
};

/** One-shot sweep on a default-sized (CAIS_JOBS) runner. */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs);

} // namespace cais

#endif // CAIS_RUNTIME_SWEEP_HH
