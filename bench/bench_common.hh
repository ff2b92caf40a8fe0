/**
 * @file
 * Shared helpers for the figure/table reproduction benches: argument
 * handling, default scaled-down model dims (shape-preserving; pass
 * dim=1 tok=1 for the paper's Table-I sizes), and row formatting.
 *
 * Every bench prints the rows/series of one paper figure or table,
 * plus the paper's reported values for side-by-side comparison.
 */

#ifndef CAIS_BENCH_BENCH_COMMON_HH
#define CAIS_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/sweep.hh"
#include "workload/llm_config.hh"

namespace cais::bench
{

/** Parsed bench options. */
struct BenchArgs
{
    Params params;

    /** Shape-preserving reduction factors (Sec. IV-B methodology,
     *  extended: the paper halves dims, we further reduce so every
     *  bench runs in seconds; pass dim=1 tok=1 for Table-I sizes). */
    double dimFactor = 0.5;
    double tokFactor = 0.25;

    int gpus = 8;
    int switches = 4;

    /** Fabric preset (topology=nvl72 etc.); empty keeps the flat
     *  gpus x switches shape. */
    std::string topology;

    /** Upper bound for GPU-count sweeps (max_gpus=; 0 = no cap). */
    int maxGpus = 0;

    static BenchArgs
    parse(int argc, char **argv, double dim_def = 0.5,
          double tok_def = 0.25)
    {
        BenchArgs a;
        a.params = Params::fromArgs(argc, argv);
        // --no-verify: skip the cais-verify static gate (the one
        // bench flag that is not key=value, mirroring cais_verify).
        for (int i = 1; i < argc; ++i)
            if (std::string(argv[i]) == "--no-verify")
                a.params.set("verify", "0");
        a.dimFactor = a.params.getDouble("dim", dim_def);
        a.tokFactor = a.params.getDouble("tok", tok_def);
        std::string err = LlmConfig::scaleError(a.dimFactor, a.tokFactor);
        if (!err.empty()) {
            std::fprintf(stderr, "bench: invalid config: %s\n",
                         err.c_str());
            std::exit(2);
        }
        a.topology = a.params.getString("topology", "");
        // With a preset, default the GPU count to the preset's own
        // (nvl72 -> 72) instead of the flat default of 8.
        int gpus_def = 8;
        if (const FabricParams *p =
                FabricParams::findPreset(a.topology))
            gpus_def = p->numGpus;
        a.gpus = static_cast<int>(a.params.getInt("gpus", gpus_def));
        a.switches = static_cast<int>(a.params.getInt("switches", 4));
        a.maxGpus = static_cast<int>(a.params.getInt("max_gpus", 0));
        return a;
    }

    RunConfig
    runConfig() const
    {
        RunConfig cfg;
        cfg.numGpus = gpus;
        cfg.numSwitches = switches;
        cfg.topology = topology;
        cfg.gpu.chunkBytes = static_cast<std::uint32_t>(
            params.getInt("chunk", cfg.gpu.chunkBytes));
        cfg.gpu.numSms = static_cast<int>(
            params.getInt("sms", cfg.gpu.numSms));
        cfg.gpu.maxStartSkew = static_cast<Cycle>(params.getInt(
            "skew_us",
            static_cast<std::int64_t>(cfg.gpu.maxStartSkew /
                                      cyclesPerUs))) * cyclesPerUs;
        // Observability knobs (DESIGN.md §6d): --seed=<n> reseeds
        // every random stream, --trace=<path> writes the Perfetto
        // trace, --metrics=<path> the JSON run report. Multi-job
        // benches uniquify the paths per job (see sweep()).
        cfg.seed = static_cast<std::uint64_t>(params.getInt(
            "seed", static_cast<std::int64_t>(cfg.seed)));
        cfg.tracePath = params.getString("trace", "");
        cfg.metricsPath = params.getString("metrics", "");
        // --profile=<path> writes the causal critical-path profile
        // (cais-profile-v1 JSON, DESIGN.md §6g).
        cfg.profilePath = params.getString("profile", "");
        cfg.traceSampleCycles = static_cast<Cycle>(params.getInt(
            "trace_sample",
            static_cast<std::int64_t>(cfg.traceSampleCycles)));
        cfg.verify = params.getBool("verify", true);
        // Reject bad values (chunk=3000, gpus=1, ...) here with
        // the bounds message instead of aborting deep inside the
        // first queued run — and never silently clamp them.
        std::string err = cfg.validationError();
        if (!err.empty()) {
            std::fprintf(stderr, "bench: invalid config: %s\n",
                         err.c_str());
            std::exit(2);
        }
        return cfg;
    }

    LlmConfig
    model(const LlmConfig &base) const
    {
        return base.scaled(dimFactor, tokFactor);
    }
};

/** Print the bench banner with the effective configuration. */
inline void
banner(const char *what, const BenchArgs &a)
{
    std::printf("== %s ==\n", what);
    if (!a.topology.empty())
        std::printf("config: %s preset, %d GPUs, dim=%.3g tok=%.3g, "
                    "%d sim jobs (CAIS_JOBS)\n"
                    "(pass dim=1 tok=1 for Table-I sizes)\n\n",
                    a.topology.c_str(), a.gpus, a.dimFactor,
                    a.tokFactor, SweepRunner::defaultThreads());
    else
        std::printf("config: %d GPUs x %d switches, dim=%.3g "
                    "tok=%.3g, %d sim jobs (CAIS_JOBS)\n"
                    "(pass dim=1 tok=1 for Table-I sizes)\n\n",
                    a.gpus, a.switches, a.dimFactor, a.tokFactor,
                    SweepRunner::defaultThreads());
}

/**
 * Sweep scaffolding shared by every grid-shaped bench: queue jobs in
 * the order the printing code will consume them, then execute the
 * whole grid on the CAIS_JOBS worker pool. Results come back in
 * submission order and are bit-identical to a serial run.
 */
inline void
addJob(std::vector<SweepJob> &jobs, StrategySpec spec, OpGraph graph,
       RunConfig cfg, std::string workload)
{
    jobs.push_back(makeSweepJob(std::move(spec), std::move(graph),
                                std::move(cfg),
                                std::move(workload)));
}

/** "out.json" + index 2 -> "out.2.json"; index 0 keeps the name, so
 *  single-job benches write exactly the path the user gave. */
inline std::string
uniquifyPath(const std::string &path, std::size_t index)
{
    if (path.empty() || index == 0)
        return path;
    // Built by appends: GCC 12 flags `"." + std::to_string(index)`
    // with a false -Wrestrict warning (const char * + std::string &&).
    std::string suffix = ".";
    suffix += std::to_string(index);
    auto dot = path.rfind('.');
    if (dot == std::string::npos || dot == 0)
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

/** Run a queued grid on the default (CAIS_JOBS-sized) pool. Trace,
 *  metrics and profile output paths are uniquified per job index so
 *  a grid bench run with --trace/--metrics/--profile does not
 *  overwrite itself. */
inline std::vector<RunResult>
sweep(std::vector<SweepJob> jobs)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].cfg.tracePath = uniquifyPath(jobs[i].cfg.tracePath, i);
        jobs[i].cfg.metricsPath =
            uniquifyPath(jobs[i].cfg.metricsPath, i);
        jobs[i].cfg.profilePath =
            uniquifyPath(jobs[i].cfg.profilePath, i);
    }
    return runSweep(jobs);
}

/** "1.38x"-style speedup cell. */
inline std::string
x(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", v);
    return buf;
}

} // namespace cais::bench

#endif // CAIS_BENCH_BENCH_COMMON_HH
