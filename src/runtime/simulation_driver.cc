#include "runtime/simulation_driver.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "analysis/bound_model.hh"
#include "analysis/causal_profile.hh"
#include "analysis/deep_trace.hh"
#include "analysis/report.hh"
#include "analysis/trace.hh"
#include "analysis/verify.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/nodemask.hh"

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

std::string
RunConfig::validationError() const
{
    if (numGpus < 2)
        return strfmt("numGpus must be >= 2 (got %d)", numGpus);
    if (numGpus > maxFabricGpus)
        return strfmt("numGpus must be <= %d: GPUs and switches "
                      "share the fabric's 128-bit participant masks "
                      "(got %d)",
                      maxFabricGpus, numGpus);
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
    if (!isPowerOfTwo(gpu.chunkBytes))
        return strfmt("chunkBytes is the address-hash interleave "
                      "width and must be a non-zero power of two "
                      "(got %u)",
                      gpu.chunkBytes);
    if (gpu.chunkBytes < 128)
        return strfmt("chunkBytes must be >= 128, one coalesced packet "
                      "(got %u)",
                      gpu.chunkBytes);
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
    if (shards != 1)
        return strfmt("shards must be 1: the event core is sequential "
                      "and intra-run sharding was removed (got %d)",
                      shards);
    // Fabric- and GPU-level bounds (VC count, credits, buffer depths,
    // SM/CTA slots, injection window, HBM, jitter) on the derived
    // SystemConfig, so such setups are rejected here with the same
    // message the System would fatal with instead of constructing a
    // nonsense one.
    SystemConfig sc = toSystemConfig(StrategySpec{});
    std::string fab_err = sc.fabric.validationError();
    if (!fab_err.empty())
        return fab_err;
    return sc.gpu.validationError();
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
    sc.fabric.interleaveBytes = gpu.chunkBytes;
    sc.fabric.utilBinWidth = utilBinWidth;
    sc.fabric.sw.unifiedDataVc = spec.unifiedDataVc;

    sc.gpu = gpu;
    sc.seed = seed;

    sc.inswitch.merge.chunkBytes = gpu.chunkBytes;
    std::uint64_t table_bytes = mergeTableBytesPerPort
        ? mergeTableBytesPerPort
        : static_cast<std::uint64_t>(mergeTableEntriesPerPort) *
              gpu.chunkBytes;
    sc.inswitch.merge.tableBytesPerPort =
        unboundedMergeTable ? 0 : table_bytes;
    sc.inswitch.merge.timeout = mergeTimeout;
    sc.inswitch.merge.throttleEnabled = spec.opts.caisCoordination;

    sc.maxEvents = maxEvents;
    return sc;
}

void
harvestCounters(const System &sys, RunResult &r)
{
    r.makespan = sys.makespan();
    r.eventsExecuted = sys.eq().executed();
    r.gpuUtil = sys.gpuUtilization();

    // The window the report's fabric.utilSeries reader uses.
    const Fabric &fab = sys.fabric();
    Fabric::Utilization u = fab.utilization(0, r.makespan ? r.makespan : 1);
    r.avgUtil = u.avg;
    r.upUtil = u.up;
    r.dnUtil = u.dn;
    r.utilSeries = std::move(u.series);
    r.utilBinWidth = fab.params().utilBinWidth;
    r.wireBytes = fab.totalWireBytes();

    // Switches in path order: the stagger mean is a double sum, and
    // this is the order the report lists the histograms in.
    double stagger_weighted = 0.0;
    std::uint64_t stagger_n = 0;
    sys.forEachSwitchInPathOrder([&](SwitchId s, const std::string &) {
        const MergeUnit &m = sys.switchCompute(s).merge();
        const MergeStats &st = m.stats();
        r.mergeLoadReqs += st.loadReqs.value();
        r.mergeRedReqs += st.redReqs.value();
        r.mergeLoadHits += st.loadHits.value();
        r.mergeRedHits += st.redHits.value();
        r.mergeFetches += st.fetches.value();
        r.sessionsClosed += st.sessionsClosed.value();
        r.lruEvictions += m.evictionStats().lruEvictions.value();
        r.timeoutEvictions += m.evictionStats().timeoutEvictions.value();
        r.throttleHints += m.throttler().hintsSent();
        r.peakMergeBytes = std::max(r.peakMergeBytes, m.peakTableBytes());
        const Histogram &h = m.staggerHist();
        stagger_weighted += h.mean() * static_cast<double>(h.count());
        stagger_n += h.count();
    });
    // Count-weighted mean over the per-switch stagger histograms.
    r.staggerSamples = stagger_n;
    r.staggerUs = stagger_n
        ? stagger_weighted / static_cast<double>(stagger_n) /
              static_cast<double>(cyclesPerUs)
        : 0.0;
}

RunResult
runGraph(const StrategySpec &spec, const OpGraph &graph,
         const RunConfig &cfg, const std::string &workload_name)
{
    ScopedLogLevel verbosity(cfg.verbosity);
    cfg.validate();
    System sys(cfg.toSystemConfig(spec));

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
    harvestCounters(sys, r);

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
        // is deterministic).
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

    // The registry serves only the report: registration and the
    // snapshot are read-only, so building them after the run reads
    // the same values as building them before it would.
    if (!cfg.metricsPath.empty()) {
        MetricRegistry reg;
        sys.registerMetrics(reg);
        if (!writeMetricsReport(cfg.metricsPath, cfg, r, reg.snapshot()))
            warn("could not write metrics report to %s",
                 cfg.metricsPath.c_str());
    }

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
