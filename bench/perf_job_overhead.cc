/**
 * @file
 * Per-phase host cost of one simulation job.
 *
 * A runGraph job is eight phases: build the System, register its
 * metrics, lower the graph, verify it, run it, snapshot the registry,
 * harvest the result (bound, counters, utilization, post-run gate)
 * and tear everything down. On a 72-GPU fabric the fixed phases can
 * cost as much as the simulation itself, so this bench times each
 * phase separately and counts the heap allocations it makes, through
 * an operator new hook local to this binary.
 *
 * Runs TP-NVLS on Llama-7B L1 (dim 1/16, tok 1/32: perfbench's tier72
 * sizes) over the flat 8-GPU fabric, nvl72 and rail-optimized-4node;
 * writes BENCH_job_overhead.json (cais-job-overhead-v1) and prints one
 * markdown table per fabric.
 *
 *     ./build/bench/perf_job_overhead [reps=5] [out=BENCH_job_overhead.json]
 *     ./build/bench/perf_job_overhead --smoke   # 1 rep, tok 1/64
 */

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
    harvest,
    teardown,
    numPhases,
};

const char *const kPhaseNames[numPhases] = {
    "construct", "registerMetrics", "lower", "verify",
    "run",       "snapshot",        "harvest", "teardown",
};

struct Sample
{
    double ms[numPhases] = {};
    std::uint64_t allocs[numPhases] = {};
    std::uint64_t bytes[numPhases] = {};
    std::uint64_t faults[numPhases] = {}; ///< minor page faults
    std::size_t metrics = 0;
    std::uint64_t events = 0;
    Cycle makespan = 0;
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

/** One job, runGraph's steps one public call at a time. */
Sample
runJob(const StrategySpec &spec, const OpGraph &graph,
       const RunConfig &cfg)
{
    Sample s;
    Meter m{s};
    cfg.validate();
    auto sys = std::make_unique<System>(cfg.toSystemConfig(spec));
    m.mark(construct);

    auto reg = std::make_unique<MetricRegistry>();
    sys->registerMetrics(*reg);
    m.mark(registerMetrics);

    auto lowering = std::make_unique<GraphLowering>(*sys, graph, spec.opts);
    lowering->lower();
    m.mark(lower);

    verify::Options vo;
    vo.strategy = spec.name;
    vo.workload = "L1";
    if (!verify::verifySystem(*sys, vo).ok())
        fatal("static verification failed for %s", spec.name.c_str());
    m.mark(verifyPhase);

    sys->run();
    m.mark(run);

    auto snap = std::make_unique<MetricSnapshot>(reg->snapshot());
    m.mark(snapshot);

    // runGraph's harvest: the bound, the snapshot walk, the windowed
    // utilization aggregates, the series and the post-run gate.
    const BoundResult bound = computeBound(*sys);
    RunResult r;
    r.makespan = sys->makespan();
    harvestCounters(*snap, r);
    const Cycle end = r.makespan ? r.makespan : 1;
    r.avgUtil = sys->fabric().avgUtilization(0, end);
    r.upUtil = sys->fabric().dirUtilization(true, 0, end);
    r.dnUtil = sys->fabric().dirUtilization(false, 0, end);
    r.gpuUtil = sys->gpuUtilization();
    if (const MetricValue *ts = snap->find("fabric.utilSeries"))
        r.utilSeries = ts->bins;
    if (!verify::verifyPostRun(*sys, bound, r.makespan, nullptr, vo).ok())
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

struct FabricCase
{
    const char *name;
    const char *topology; ///< "" = flat gpus x switches
    int gpus;
};

const FabricCase kFabrics[] = {
    {"flat-8", "", 8},
    {"nvl72", "nvl72", 72},
    {"rail-optimized-4node", "rail-optimized-4node", 32},
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
    const LlmConfig model = llama7B().scaled(0.0625, tok);
    const OpGraph graph = buildSubLayer(model, SubLayerId::L1);
    const StrategySpec spec = strategyByName("TP-NVLS");

#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    JsonWriter w;
    w.beginObject()
        .field("schema", "cais-job-overhead-v1")
        .field("threads", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()))
        .field("compiler", __VERSION__)
        .field("ndebug", ndebug)
        .field("workload", "Llama-7B/L1")
        .field("strategy", spec.name)
        .field("dim", 0.0625)
        .field("tok", tok)
        .field("reps", reps);
    w.key("fabrics").beginArray();
    for (const FabricCase &f : kFabrics) {
        RunConfig cfg;
        cfg.topology = f.topology;
        cfg.numGpus = f.gpus;
        cfg.verbosity = LogLevel::quiet;

        std::vector<Sample> samples;
        for (int r = 0; r < reps; ++r)
            samples.push_back(runJob(spec, graph, cfg));
        const Sample &last = samples.back();

        std::printf("\n%s (%d GPUs): %zu metrics, %llu events, "
                    "median of %d\n\n",
                    f.name, f.gpus, last.metrics,
                    static_cast<unsigned long long>(last.events), reps);
        std::printf("| phase | ms | allocations | MB allocated | "
                    "page faults |\n");
        std::printf("|---|---|---|---|---|\n");
        w.beginObject()
            .field("fabric", f.name)
            .field("gpus", f.gpus)
            .field("metrics", static_cast<std::uint64_t>(last.metrics))
            .field("events", last.events)
            .field("makespan", static_cast<std::uint64_t>(last.makespan));
        w.key("phases").beginArray();
        double total = 0.0;
        for (int p = 0; p < numPhases; ++p) {
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
