/**
 * @file
 * Per-phase host cost of one simulation job.
 *
 * A runGraph job that writes a metrics report (metrics=) is nine
 * phases: build the System, register its metrics, lower the graph,
 * verify it, run it, snapshot the registry, compute the static bound,
 * harvest the result (counters and utilization read off the System,
 * post-run gate) and tear everything down. Without a report runGraph
 * skips registerMetrics and snapshot, so those two rows are what a
 * report costs. On a 72-GPU fabric the fixed phases can cost as much
 * as the simulation itself, so this bench times each phase separately
 * and counts the heap allocations it makes, through an operator new
 * hook local to this binary.
 *
 * Runs TP-NVLS on Llama-7B L1 (dim 1/16, tok 1/32: perfbench's tier72
 * sizes) over the flat 8-GPU fabric, nvl72 and rail-optimized-4node,
 * and CAIS-Base on nvl72 at the same sizes, plus one full-size static
 * job: LADM on MegaGPT-4B L1 (dim 1, tok 1) over nvl72, built,
 * lowered, verified and bounded without running, as every job of
 * perfbench's static_gates is. Each job runs one untimed rep of its
 * own before its timed reps, so the pages the process heap has
 * already faulted in come from that job, not from the row before it.
 * glibc's trim and mmap thresholds are pinned at start, so whether
 * freed heap goes back to the OS (and faults in again on the next
 * rep) does not hang on the heap layout, which moves with as little
 * as the length of the out= path. Writes
 * BENCH_job_overhead.json (cais-job-overhead-v2) and prints one
 * markdown table per job.
 *
 *     ./build/bench/perf_job_overhead [reps=5] [out=BENCH_job_overhead.json]
 *     ./build/bench/perf_job_overhead --smoke   # 1 rep, tok 1/64
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bound_model.hh"
#include "analysis/verify.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/llm_config.hh"
#include "workload/transformer.hh"

namespace
{

// Allocation hook: every global operator new of this binary counts
// here. Jobs run on the main thread only.
// cais-lint: allow(D4) -- the operator new hook needs global counters
std::uint64_t gAllocs = 0;
// cais-lint: allow(D4) -- companion of gAllocs, same rationale
std::uint64_t gAllocBytes = 0;

} // namespace

// The hook stays out of line: inlined, GCC pairs the malloc()/free()
// inside it with the new/delete expressions of the callers and warns
// (-Wmismatched-new-delete) although the pairs match.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++gAllocs;
    gAllocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace cais;
using Clock = std::chrono::steady_clock;

enum Phase : int
{
    construct,
    registerMetrics,
    lower,
    verifyPhase,
    run,
    snapshot,
    bound,
    harvest,
    teardown,
    numPhases,
};

const char *const kPhaseNames[numPhases] = {
    "construct", "registerMetrics", "lower", "verify",  "run",
    "snapshot",  "bound",           "harvest", "teardown",
};

struct Sample
{
    bool ran[numPhases] = {}; ///< a static job skips the run phases
    double ms[numPhases] = {};
    std::uint64_t allocs[numPhases] = {};
    std::uint64_t bytes[numPhases] = {};
    std::uint64_t faults[numPhases] = {}; ///< minor page faults
    std::size_t metrics = 0;
    std::uint64_t events = 0;
    Cycle makespan = 0;
    Cycle bound = 0; ///< composite static bound
};

std::uint64_t
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

/** Phase stopwatch: time, allocations and page faults since the
 *  last mark. */
struct Meter
{
    Sample &s;
    std::uint64_t allocs = gAllocs;
    std::uint64_t bytes = gAllocBytes;
    std::uint64_t faults = minorFaults();
    Clock::time_point last = Clock::now();

    void
    mark(Phase p)
    {
        const Clock::time_point now = Clock::now();
        const std::uint64_t f = minorFaults();
        s.ran[p] = true;
        s.ms[p] = std::chrono::duration<double, std::milli>(now - last)
                      .count();
        s.allocs[p] = gAllocs - allocs;
        s.bytes[p] = gAllocBytes - bytes;
        s.faults[p] = f - faults;
        allocs = gAllocs;
        bytes = gAllocBytes;
        faults = f;
        last = Clock::now();
    }
};

/**
 * One job, runGraph's steps one public call at a time. A static job
 * (@p executes false) stops at the bound, as perfbench's static_gates
 * jobs do: no metrics, no run, no harvest.
 */
Sample
runJob(const StrategySpec &spec, const OpGraph &graph,
       const RunConfig &cfg, bool executes)
{
    Sample s;
    Meter m{s};
    cfg.validate();
    auto sys = std::make_unique<System>(cfg.toSystemConfig(spec));
    m.mark(construct);

    auto reg = std::make_unique<MetricRegistry>();
    if (executes) {
        sys->registerMetrics(*reg);
        m.mark(registerMetrics);
    }

    auto lowering = std::make_unique<GraphLowering>(*sys, graph, spec.opts);
    lowering->lower();
    m.mark(lower);

    verify::Options vo;
    vo.strategy = spec.name;
    vo.workload = "L1";
    if (!verify::verifySystem(*sys, vo).ok())
        fatal("static verification failed for %s", spec.name.c_str());
    m.mark(verifyPhase);

    if (!executes) {
        s.bound = computeBound(*sys).composite;
        m.mark(bound);
        reg.reset();
        lowering.reset();
        sys.reset();
        m.mark(teardown);
        return s;
    }

    sys->run();
    m.mark(run);

    auto snap = std::make_unique<MetricSnapshot>(reg->snapshot());
    m.mark(snapshot);

    const BoundResult bound_result = computeBound(*sys);
    s.bound = bound_result.composite;
    m.mark(bound);

    // runGraph's harvest, read off the System (counters, utilization
    // and the series in one walk), and the post-run gate.
    RunResult r;
    harvestCounters(*sys, r);
    if (!verify::verifyPostRun(*sys, bound_result, r.makespan, nullptr,
                               vo)
             .ok())
        fatal("post-run verification failed for %s", spec.name.c_str());
    m.mark(harvest);

    s.metrics = reg->size();
    s.events = r.eventsExecuted;
    s.makespan = r.makespan;
    snap.reset();
    reg.reset();
    lowering.reset();
    sys.reset();
    m.mark(teardown);
    return s;
}

/** One measured job: a strategy and model on a fabric. */
struct JobCase
{
    const char *fabric;
    const char *topology; ///< "" = flat gpus x switches
    int gpus;
    const char *strategy;
    /** A full-size static job (MegaGPT-4B dim 1 tok 1; no metrics, no
     *  run), else a run of Llama-7B at perfbench's tier72 sizes. */
    bool fullStatic;
};

const JobCase kJobs[] = {
    {"flat-8", "", 8, "TP-NVLS", false},
    {"nvl72", "nvl72", 72, "TP-NVLS", false},
    {"rail-optimized-4node", "rail-optimized-4node", 32, "TP-NVLS", false},
    {"nvl72", "nvl72", 72, "LADM", true},
    // tier72's median job: 6th of its 11 strategies by job time.
    {"nvl72", "nvl72", 72, "CAIS-Base", false},
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    // Keep freed heap in the process and large blocks on the heap up
    // to glibc's 64-bit mmap-threshold ceiling (32 MiB): a teardown
    // then never hands pages back that the next rep faults in again.
    // An allocator without these settings (a sanitizer's) still runs
    // the bench, with page faults left to its own policy.
    if (!mallopt(M_TRIM_THRESHOLD, 256 << 20) ||
        !mallopt(M_MMAP_THRESHOLD, 32 << 20))
        std::fprintf(stderr, "perf_job_overhead: mallopt failed; page "
                             "faults are not pinned\n");
    const Params params = Params::fromArgs(argc, argv);
    const int reps =
        static_cast<int>(params.getInt("reps", smoke ? 1 : 5));
    const std::string out =
        params.getString("out", "BENCH_job_overhead.json");
    if (reps < 1) {
        std::fprintf(stderr, "perf_job_overhead: reps must be >= 1\n");
        return 2;
    }

    const double tok = smoke ? 0.015625 : 0.03125;
    const OpGraph small =
        buildSubLayer(llama7B().scaled(0.0625, tok), SubLayerId::L1);
    const OpGraph full =
        buildSubLayer(megaGpt4B().scaled(1.0, 1.0), SubLayerId::L1);

#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    JsonWriter w;
    w.beginObject()
        .field("schema", "cais-job-overhead-v2")
        .field("threads", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()))
        .field("compiler", __VERSION__)
        .field("ndebug", ndebug)
        .field("reps", reps);
    w.key("jobs").beginArray();
    for (const JobCase &job : kJobs) {
        RunConfig cfg;
        cfg.topology = job.topology;
        cfg.numGpus = job.gpus;
        cfg.verbosity = LogLevel::quiet;
        const StrategySpec spec = strategyByName(job.strategy);
        const bool executes = !job.fullStatic;
        const char *workload =
            job.fullStatic ? "MegaGPT-4B/L1" : "Llama-7B/L1";
        const double dim = job.fullStatic ? 1.0 : 0.0625;
        const double job_tok = job.fullStatic ? 1.0 : tok;

        const OpGraph &graph = job.fullStatic ? full : small;
        runJob(spec, graph, cfg, executes); // untimed: warms the heap
        std::vector<Sample> samples;
        for (int r = 0; r < reps; ++r)
            samples.push_back(runJob(spec, graph, cfg, executes));
        const Sample &last = samples.back();

        std::printf("\n%s on %s (%d GPUs, dim %g tok %g), %s: %zu "
                    "metrics, %llu events, median of %d\n\n",
                    spec.name.c_str(), job.fabric, job.gpus, dim,
                    job_tok, executes ? "run" : "static gates only",
                    last.metrics,
                    static_cast<unsigned long long>(last.events), reps);
        std::printf("| phase | ms | allocations | MB allocated | "
                    "page faults |\n");
        std::printf("|---|---|---|---|---|\n");
        w.beginObject()
            .field("fabric", job.fabric)
            .field("gpus", job.gpus)
            .field("strategy", spec.name)
            .field("workload", workload)
            .field("dim", dim)
            .field("tok", job_tok)
            .field("executes", executes)
            .field("metrics", static_cast<std::uint64_t>(last.metrics))
            .field("events", last.events)
            .field("makespan", static_cast<std::uint64_t>(last.makespan))
            .field("bound", static_cast<std::uint64_t>(last.bound));
        w.key("phases").beginArray();
        double total = 0.0;
        for (int p = 0; p < numPhases; ++p) {
            if (!last.ran[p])
                continue;
            std::vector<double> ms;
            for (const Sample &s : samples)
                ms.push_back(s.ms[p]);
            const double med = median(ms);
            total += med;
            const double mb = static_cast<double>(last.bytes[p]) / 1e6;
            std::printf("| %s | %.2f | %llu | %.1f | %llu |\n",
                        kPhaseNames[p], med,
                        static_cast<unsigned long long>(last.allocs[p]), mb,
                        static_cast<unsigned long long>(last.faults[p]));
            w.beginObject()
                .field("phase", kPhaseNames[p])
                .field("ms_p50", med)
                .field("ms_min", *std::min_element(ms.begin(), ms.end()))
                .field("allocs", last.allocs[p])
                .field("alloc_bytes", last.bytes[p])
                .field("page_faults", last.faults[p])
                .endObject();
        }
        w.endArray().field("ms_total_p50", total).endObject();
        std::printf("| **total** | %.2f | | | |\n", total);
    }
    w.endArray().endObject();

    std::ofstream os(out);
    os << w.str() << "\n";
    if (!os) {
        std::fprintf(stderr, "perf_job_overhead: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
