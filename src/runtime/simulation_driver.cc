#include "runtime/simulation_driver.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "analysis/bound_model.hh"
#include "analysis/causal_profile.hh"
#include "analysis/deep_trace.hh"
#include "analysis/report.hh"
#include "analysis/trace.hh"
#include "analysis/verify.hh"
#include "common/log.hh"
#include "common/metrics.hh"

namespace cais
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

int
RunConfig::effectiveShards() const
{
    if (shards != 0)
        return shards;
    const char *env = std::getenv("CAIS_SHARDS");
    if (!env || !*env)
        return 1;
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1)
        return 1;
    return static_cast<int>(v);
}

std::string
RunConfig::validationError() const
{
    if (numGpus < 2)
        return strfmt("numGpus must be >= 2 (got %d)", numGpus);
    if (numGpus > 120)
        return strfmt("numGpus must be <= 120: GPUs and switches "
                      "share the fabric's 128-bit participant masks "
                      "(got %d)",
                      numGpus);
    if (numSwitches < 1)
        return strfmt("numSwitches must be >= 1 (got %d)",
                      numSwitches);
    if (!topology.empty() && !FabricParams::findPreset(topology)) {
        std::string known;
        for (const std::string &n : FabricParams::presetNames())
            known += (known.empty() ? "" : ", ") + n;
        return strfmt("unknown topology preset \"%s\" (expected one "
                      "of: %s)",
                      topology.c_str(), known.c_str());
    }
    if (!isPowerOfTwo(chunkBytes))
        return strfmt("chunkBytes is the address-hash interleave "
                      "width and must be a non-zero power of two "
                      "(got %u)",
                      chunkBytes);
    if (chunkBytes < 128)
        return strfmt("chunkBytes must be >= 128, one coalesced packet "
                      "(got %u)",
                      chunkBytes);
    if (perGpuBwPerDir <= 0.0)
        return strfmt("perGpuBwPerDir must be positive (got %g)",
                      perGpuBwPerDir);
    if (utilBinWidth == 0)
        return "utilBinWidth must be non-zero";
    if (boundSlackRatio < 0.0)
        return strfmt("boundSlackRatio must be >= 0 (got %g)",
                      boundSlackRatio);
    if (maxEvents == 0)
        return "maxEvents must be non-zero";
    if (mergeTimeout == 0)
        return "mergeTimeout must be non-zero";
    if (mergeTableEntriesPerPort < 0)
        return strfmt("mergeTableEntriesPerPort must be >= 0 "
                      "(got %d)",
                      mergeTableEntriesPerPort);
    if (gpu.numSms < 1)
        return strfmt("gpu.numSms must be >= 1 (got %d)",
                      gpu.numSms);
    if (gpu.maxCaisLoadOutstanding < 1)
        return strfmt("gpu.maxCaisLoadOutstanding must be >= 1 "
                      "(got %d)",
                      gpu.maxCaisLoadOutstanding);
    if (shards < 0)
        return strfmt("shards must be >= 0 (0 resolves CAIS_SHARDS; "
                      "got %d)",
                      shards);
    // Fabric-level bounds (VC count, credits, buffer depths) on the
    // derived SystemConfig, so zero-VC / zero-credit setups are
    // rejected here with the same message the Fabric would fatal
    // with instead of constructing a nonsense System.
    SystemConfig sc = toSystemConfig(StrategySpec{});
    std::string fab_err = sc.fabric.validationError();
    if (!fab_err.empty())
        return fab_err;
    // Sharded execution needs lookahead: some latency on every link
    // that crosses shards (checked on the clamped shard count — the
    // count the System would actually run).
    int eff = std::min(effectiveShards(),
                       Fabric::numDomains(sc.fabric));
    if (eff > 1 && Fabric::crossShardLookahead(sc.fabric, eff) == 0)
        return strfmt("shards=%d requires a non-zero cross-shard "
                      "link latency (conservative lookahead); "
                      "linkLatency is 0",
                      effectiveShards());
    return "";
}

void
RunConfig::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        fatal("invalid RunConfig: %s", err.c_str());
}

SystemConfig
RunConfig::toSystemConfig(const StrategySpec &spec) const
{
    SystemConfig sc;
    if (!topology.empty()) {
        sc.fabric = FabricParams::preset(topology).withGpus(numGpus);
    } else {
        sc.fabric.numGpus = numGpus;
        sc.fabric.numSwitches = numSwitches;
    }
    sc.fabric.perGpuBytesPerCycle = perGpuBwPerDir;
    sc.fabric.linkLatency = linkLatency;
    sc.fabric.interleaveBytes = chunkBytes;
    sc.fabric.utilBinWidth = utilBinWidth;
    sc.fabric.sw.unifiedDataVc = spec.unifiedDataVc;

    sc.gpu = gpu;
    sc.gpu.chunkBytes = chunkBytes;
    sc.gpu.seed = seed;
    // Fold the master seed into the skew stream without disturbing
    // the seed == 1 default (which must match the historical runs).
    sc.skewSeed = 0xabcdef12345ull ^ (seed - 1);

    sc.inswitch.merge.chunkBytes = chunkBytes;
    std::uint64_t table_bytes = mergeTableBytesPerPort
        ? mergeTableBytesPerPort
        : static_cast<std::uint64_t>(mergeTableEntriesPerPort) *
              chunkBytes;
    sc.inswitch.merge.tableBytesPerPort =
        unboundedMergeTable ? 0 : table_bytes;
    sc.inswitch.merge.timeout = mergeTimeout;
    sc.inswitch.merge.throttleEnabled = spec.opts.caisCoordination;

    sc.maxEvents = maxEvents;
    sc.shards = effectiveShards();
    return sc;
}

namespace
{

/**
 * Fill @p r's counter-shaped fields in one walk over @p snap. Each
 * test below is exactly the '*' pattern it replaces: a path matches
 * "*.merge.<tail>" iff its last ".merge." is followed by <tail>, and
 * "link.*.wireBytes" iff it has both ends without overlap. The walk
 * visits paths in the same order as the pattern queries, so the
 * stagger mean sums identically.
 */
void
harvestCounters(const MetricSnapshot &snap, RunResult &r)
{
    static constexpr std::string_view merge = ".merge.";
    static constexpr std::string_view linkHead = "link.";
    static constexpr std::string_view wireTail = ".wireBytes";
    static constexpr std::pair<std::string_view,
                               std::uint64_t RunResult::*>
        mergeSums[] = {
            {"loadReqs", &RunResult::mergeLoadReqs},
            {"redReqs", &RunResult::mergeRedReqs},
            {"loadHits", &RunResult::mergeLoadHits},
            {"redHits", &RunResult::mergeRedHits},
            {"fetches", &RunResult::mergeFetches},
            {"sessionsClosed", &RunResult::sessionsClosed},
            {"evictions.lru", &RunResult::lruEvictions},
            {"evictions.timeout", &RunResult::timeoutEvictions},
            {"throttle.hintsSent", &RunResult::throttleHints},
        };
    double stagger_weighted = 0.0;
    std::uint64_t stagger_n = 0;
    for (const auto &[path, v] : snap.all()) {
        std::string_view p = path;
        if (p == "eventq.executed") {
            r.eventsExecuted += integerReading(v);
            continue;
        }
        if (p.size() >= linkHead.size() + wireTail.size() &&
            p.starts_with(linkHead) && p.ends_with(wireTail)) {
            r.wireBytes += integerReading(v);
            continue;
        }
        std::size_t at = p.rfind(merge);
        if (at == std::string_view::npos)
            continue;
        std::string_view tail = p.substr(at + merge.size());
        if (tail == "stagger") {
            stagger_weighted += v.mean * static_cast<double>(v.count);
            stagger_n += v.count;
        } else if (tail == "peakTableBytes") {
            r.peakMergeBytes =
                std::max(r.peakMergeBytes, integerReading(v));
        } else {
            for (const auto &[name, field] : mergeSums)
                if (tail == name) {
                    r.*field += integerReading(v);
                    break;
                }
        }
    }
    // Count-weighted mean over the per-switch stagger histograms.
    r.staggerSamples = stagger_n;
    r.staggerUs = stagger_n
        ? stagger_weighted / static_cast<double>(stagger_n) /
              static_cast<double>(cyclesPerUs)
        : 0.0;
}

} // namespace

RunResult
runGraph(const StrategySpec &spec, const OpGraph &graph,
         const RunConfig &cfg, const std::string &workload_name)
{
    ScopedLogLevel verbosity(cfg.verbosity);
    cfg.validate();
    System sys(cfg.toSystemConfig(spec));

    // The registry holds non-owning readers; registering before the
    // run costs nothing and cannot perturb it.
    MetricRegistry reg;
    sys.registerMetrics(reg);

    // Deep trace: switch-side lifecycle hooks plus a periodic
    // counter-track sampler that runs outside the event stream, so a
    // traced run stays bit-identical to an untraced one.
    bool tracing = !cfg.tracePath.empty();
    TraceCollector tc;
    DeepTraceProbe probe(sys, tc);
    if (tracing) {
        sys.setTraceHooks(&probe);
        if (cfg.traceSampleCycles > 0)
            sys.setPeriodicObserver(
                cfg.traceSampleCycles,
                [&probe](Cycle at) { probe.sample(at); });
    }

    // Causal profiler: attach before lowering so tile trackers
    // created by the strategy are wired as they are defined.
    bool profiling = !cfg.profilePath.empty();
    CausalProfiler prof;
    if (profiling)
        sys.setProfiler(&prof);

    GraphLowering lowering(sys, graph, spec.opts);
    lowering.lower();

    // Static verification gate (DESIGN.md §6e): a read-only pass over
    // the lowered system, so a verified run is bit-identical to an
    // unverified one.
    if (cfg.verify) {
        verify::Options vo;
        vo.strategy = spec.name;
        vo.workload = workload_name;
        vo.suppress.insert(cfg.verifySuppress.begin(),
                           cfg.verifySuppress.end());
        verify::VerifyResult vr = verify::verifySystem(sys, vo);
        if (!vr.ok())
            fatal("static verification failed for %s / %s:\n%s",
                  spec.name.c_str(), workload_name.c_str(),
                  vr.text().c_str());
    }

    sys.run();

    RunResult r;
    r.strategy = spec.name;
    r.workload = workload_name;
    r.makespan = sys.makespan();

    // Static analytical bound (DESIGN.md §6h): descriptor-only, so
    // computing it never perturbs the finished event state. Harvested
    // into the result for sim-vs-bound reporting and checked by the
    // post-run V8/V9 gate below.
    const BoundResult bound = computeBound(sys);
    r.boundComposite = bound.composite;
    r.boundCompute = bound.smCompute;
    r.boundHbm = bound.hbm;
    r.boundLink = bound.linkSerialization;
    r.boundMerge = bound.mergeService;
    r.boundCritPath = bound.criticalPath;
    r.boundBinding = bound.binding;

    // Everything counter-shaped is harvested from the registry; only
    // the windowed utilization aggregates still need Fabric methods
    // (they are computations over [0, makespan), not plain readings).
    MetricSnapshot snap = reg.snapshot();
    harvestCounters(snap, r);

    Cycle end = r.makespan ? r.makespan : 1;
    r.avgUtil = sys.fabric().avgUtilization(0, end);
    r.upUtil = sys.fabric().dirUtilization(true, 0, end);
    r.dnUtil = sys.fabric().dirUtilization(false, 0, end);
    r.gpuUtil = sys.gpuUtilization();
    // The Fig. 16 series now lives in the registry (timeSeries kind),
    // so the harvested copy and the report's metrics section agree by
    // construction.
    if (const MetricValue *ts = snap.find("fabric.utilSeries")) {
        r.utilSeries = ts->bins;
        r.utilBinWidth = ts->binWidth;
    }

    // One pass over the kernels builds the timeline and (when
    // tracing) the per-GPU kernel spans.
    for (std::size_t k = 0; k < sys.numKernels(); ++k) {
        const KernelDesc &d = sys.kernel(static_cast<KernelId>(k));
        KernelTiming t;
        t.name = d.name;
        t.comm = d.commKernel;
        t.start = sys.kernelStartTime(static_cast<KernelId>(k));
        t.finish = sys.kernelFinishTime(static_cast<KernelId>(k));
        if (t.finish > t.start) {
            if (t.comm)
                r.commKernelCycles += t.finish - t.start;
            else
                r.computeKernelCycles += t.finish - t.start;
        }
        if (tracing) {
            for (GpuId g = 0; g < sys.numGpus(); ++g) {
                auto [s0, s1] =
                    sys.kernelGpuSpan(static_cast<KernelId>(k), g);
                if (s1 > 0)
                    tc.addSpan(d.name,
                               d.commKernel ? "comm" : "compute", 0,
                               g, s0, s1);
            }
        }
        r.kernels.push_back(std::move(t));
    }

    Attribution attr;
    if (profiling) {
        for (std::size_t k = 0; k < sys.numKernels(); ++k)
            prof.setName(
                profnode::kernel(static_cast<KernelId>(k)),
                sys.kernel(static_cast<KernelId>(k)).name);
        prof.finalize();
        // Walk backward from the makespan-defining event: the kernel
        // that finished last (ties break toward the lowest id, which
        // is deterministic across shard counts).
        KernelId crit = invalidId;
        Cycle crit_finish = 0;
        for (std::size_t k = 0; k < sys.numKernels(); ++k) {
            Cycle f = sys.kernelFinishTime(static_cast<KernelId>(k));
            if (f > crit_finish) {
                crit_finish = f;
                crit = static_cast<KernelId>(k);
            }
        }
        attr = prof.analyze(
            crit != invalidId ? profnode::kernel(crit)
                              : profnode::root(),
            r.makespan);
        if (tracing)
            prof.emitFlameLanes(tc, 2, attr);
        if (!prof.writeFile(cfg.profilePath, attr, spec.name,
                            workload_name))
            warn("could not write profile to %s",
                 cfg.profilePath.c_str());
    }

    if (tracing) {
        tc.nameProcess(0, "GPUs (" + spec.name + ")");
        tc.nameProcess(1, "fabric");
        for (GpuId g = 0; g < sys.numGpus(); ++g)
            tc.nameLane(0, g, strfmt("GPU %d", g));
        tc.nameLane(1, sys.numGpus(), "mean link utilization");
        probe.announceLanes();
        for (std::size_t i = 0; i < r.utilSeries.size(); ++i)
            tc.addCounter("link util %", 1,
                          static_cast<Cycle>(i) * cfg.utilBinWidth,
                          100.0 * r.utilSeries[i]);
        if (!tc.writeFile(cfg.tracePath))
            warn("could not write trace to %s",
                 cfg.tracePath.c_str());
    }

    if (!cfg.metricsPath.empty() &&
        !writeMetricsReport(cfg.metricsPath, cfg, r, snap))
        warn("could not write metrics report to %s",
             cfg.metricsPath.c_str());

    // Post-run verification gate (V8/V9): placed after the artifact
    // writers so traces/metrics/profiles survive a fatal diagnostic
    // for post-mortem analysis.
    if (cfg.verify) {
        verify::Options vo;
        vo.strategy = spec.name;
        vo.workload = workload_name;
        vo.suppress.insert(cfg.verifySuppress.begin(),
                           cfg.verifySuppress.end());
        vo.v9SlackRatio = cfg.boundSlackRatio;
        verify::VerifyResult pr = verify::verifyPostRun(
            sys, bound, r.makespan, profiling ? &attr : nullptr, vo);
        if (!pr.ok())
            fatal("post-run verification failed for %s / %s:\n%s",
                  spec.name.c_str(), workload_name.c_str(),
                  pr.text().c_str());
    }

    return r;
}

double
speedupOver(const RunResult &base, const RunResult &x)
{
    if (x.makespan == 0)
        return 0.0;
    return static_cast<double>(base.makespan) /
           static_cast<double>(x.makespan);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

} // namespace cais
