#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "analysis/bound_model.hh"
#include "analysis/verify.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "runtime/system.hh"
#include "workload/llm_config.hh"
#include "workload/transformer.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench
{

using namespace cais;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// --- Results and digests ---------------------------------------------

std::uint64_t
simDigest(const std::vector<SimResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const SimResult &r : results) {
        mix(r.makespan);
        mix(r.wireBytes);
        mix(r.events);
        mix(r.mergeLoadReqs);
        mix(r.mergeRedReqs);
        mix(r.mergeLoadHits);
        mix(r.mergeRedHits);
        mix(r.sessionsClosed);
        mix(r.evictions);
        mix(r.boundComposite);
    }
    return h;
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

std::vector<std::size_t>
mismatches(const std::vector<SimResult> &a,
           const std::vector<SimResult> &b)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i)
        if (i >= a.size() || i >= b.size() || !(a[i] == b[i]))
            out.push_back(i);
    return out;
}

// --- Workloads -----------------------------------------------------------

namespace
{

/** Static-gate workload list of cais_verify / cais_bound. */
struct GraphKind
{
    const char *name;
    OpGraph (*build)(const LlmConfig &);
};

const GraphKind kGraphKinds[] = {
    {"L1", [](const LlmConfig &m) { return buildSubLayer(m, SubLayerId::L1); }},
    {"L2", [](const LlmConfig &m) { return buildSubLayer(m, SubLayerId::L2); }},
    {"L3", [](const LlmConfig &m) { return buildSubLayer(m, SubLayerId::L3); }},
    {"L4", [](const LlmConfig &m) { return buildSubLayer(m, SubLayerId::L4); }},
    {"layer_fwd",
     [](const LlmConfig &m) {
         return buildTransformerLayer(m, Pass::forward);
     }},
    {"layer_bwd",
     [](const LlmConfig &m) {
         return buildTransformerLayer(m, Pass::backward);
     }},
};

RunConfig
baseConfig(const std::string &topology, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.topology = topology;
    if (const FabricParams *p = FabricParams::findPreset(topology))
        cfg.numGpus = p->numGpus;
    cfg.seed = seed;
    cfg.shards = 1; // never CAIS_SHARDS: the benchmark pins its threads
    cfg.verbosity = LogLevel::quiet;
    // V9 is opt-in through a slack ratio: a run more than 10x its static
    // bound fails (the workloads peak at 7.7x at seed 1).
    cfg.boundSlackRatio = 10.0;
    return cfg;
}

/** One job per strategy of @p strategies over graph @p graph. */
void
addStrategyJobs(Workload &w, const std::vector<StrategySpec> &strategies,
                const RunConfig &cfg, const std::string &prefix,
                const std::string &sublayer, std::size_t graph, int group)
{
    const std::vector<StrategySpec> all = allStrategies();
    for (const StrategySpec &spec : strategies) {
        Job j;
        j.tag = prefix + "/" + spec.name;
        j.spec = spec;
        j.cfg = cfg;
        j.workload = sublayer;
        j.graph = graph;
        j.group = group;
        j.strategy = static_cast<std::size_t>(
            std::find_if(all.begin(), all.end(),
                         [&](const StrategySpec &s) {
                             return s.name == spec.name;
                         }) -
            all.begin());
        w.jobs.push_back(std::move(j));
    }
}

/** Fig. 12 grid on the flat 8-GPU x 4-switch fabric. */
Workload
sublayer8(std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = "sublayer8";
    w.minPasses = 2;
    w.paperGrid = true;
    const RunConfig cfg = baseConfig("", seed);
    std::vector<LlmConfig> models = tableOneModels();
    int num_sub = 4;
    double dim = 0.5, tok = 0.25;
    if (smoke) {
        models.resize(1);
        num_sub = 2;
        dim = 0.125;
        tok = 0.0625;
    }
    for (const LlmConfig &base : models) {
        const LlmConfig m = base.scaled(dim, tok);
        for (int L = 0; L < num_sub; ++L) {
            const GraphKind &k = kGraphKinds[L];
            w.graphs.push_back(k.build(m));
            addStrategyJobs(w, allStrategies(), cfg,
                            base.name + "/" + k.name, k.name,
                            w.graphs.size() - 1,
                            static_cast<int>(w.graphs.size() - 1));
        }
    }
    return w;
}

/** The nvl72 preset's golden configs at a reduced token count. */
Workload
tier72(std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = "tier72";
    w.minPasses = 4;
    const RunConfig cfg = baseConfig("nvl72", seed);
    // At 72 GPUs the token count bottoms out near tok 1/64, where LADM
    // alone still takes ~10 s; halving dim halves it again.
    const LlmConfig m = smoke ? llama7B().scaled(0.0625, 0.015625)
                              : llama7B().scaled(0.0625, 0.03125);
    w.graphs.push_back(buildSubLayer(m, SubLayerId::L1));
    std::vector<StrategySpec> strategies = allStrategies();
    if (smoke)
        strategies = {strategyByName("TP-NVLS"), strategyByName("LADM"),
                      strategyByName("CAIS")};
    addStrategyJobs(w, strategies, cfg, "Llama-7B/L1@nvl72", "L1", 0, 0);
    return w;
}

/** The cais_verify / cais_bound matrix: flat + every preset. */
Workload
staticGates(std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = "static_gates";
    w.executes = false;
    w.minPasses = 2;
    std::vector<std::string> topologies = {""};
    for (const std::string &n : FabricParams::presetNames())
        topologies.push_back(n);
    if (smoke)
        topologies.resize(2);
    const LlmConfig m = smoke ? megaGpt4B().scaled(0.25, 0.125)
                              : megaGpt4B().scaled(1.0, 1.0);
    for (const GraphKind &k : kGraphKinds)
        w.graphs.push_back(k.build(m));
    for (const std::string &topo : topologies) {
        const RunConfig cfg = baseConfig(topo, seed);
        const std::string where = topo.empty() ? "" : "@" + topo;
        for (const StrategySpec &spec : allStrategies()) {
            for (std::size_t g = 0; g < std::size(kGraphKinds); ++g) {
                // Bound-implied speedups: the flat sub-layers.
                const int group =
                    topo.empty() && g < 4 ? static_cast<int>(g) : -1;
                addStrategyJobs(w, {spec}, cfg,
                                std::string("MegaGPT-4B/") +
                                    kGraphKinds[g].name + where,
                                kGraphKinds[g].name, g, group);
            }
        }
    }
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sublayer8", "tier72",
                                                   "static_gates"};
    return names;
}

Workload
buildWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "sublayer8")
        return sublayer8(seed, smoke);
    if (name == "tier72")
        return tier72(seed, smoke);
    if (name == "static_gates")
        return staticGates(seed, smoke);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- Jobs ------------------------------------------------------------------

const char *
layerMetric(Layer l)
{
    switch (l) {
      case Layer::construct: return "runtime.construct_s";
      case Layer::lower: return "runtime.lower_s";
      case Layer::verify: return "analysis.verify_s";
      case Layer::run: return "runtime.run_s";
      case Layer::bound: return "analysis.bound_s";
      case Layer::snapshot: return "common.metrics.snapshot_s";
      case Layer::postrun: return "analysis.postrun_s";
      case Layer::count: break;
    }
    return "job_s";
}

void
LayerCounts::add(const LayerCounts &o)
{
    events += o.events;
    linkPackets += o.linkPackets;
    linkWireBytes += o.linkWireBytes;
    linkBusyCycles += o.linkBusyCycles;
    linkCycles += o.linkCycles;
    chipForwarded += o.chipForwarded;
    hubChunks += o.hubChunks;
    mergeReqs += o.mergeReqs;
    mergeHits += o.mergeHits;
    mergeEvictions += o.mergeEvictions;
    nvlsOps += o.nvlsOps;
    syncRequests += o.syncRequests;
    schedDispatched += o.schedDispatched;
    hbmBytes += o.hbmBytes;
}

namespace
{

SimResult
fromRunResult(const RunResult &r)
{
    SimResult s;
    s.makespan = r.makespan;
    s.wireBytes = r.wireBytes;
    s.events = r.eventsExecuted;
    s.mergeLoadReqs = r.mergeLoadReqs;
    s.mergeRedReqs = r.mergeRedReqs;
    s.mergeLoadHits = r.mergeLoadHits;
    s.mergeRedHits = r.mergeRedHits;
    s.sessionsClosed = r.sessionsClosed;
    s.evictions = r.lruEvictions + r.timeoutEvictions;
    s.boundComposite = r.boundComposite;
    return s;
}

/** Per-layer counts of one finished job, read from its snapshot. */
LayerCounts
countsOf(const MetricSnapshot &snap, Cycle makespan)
{
    LayerCounts c;
    c.events = snap.sumU64("eventq.executed");
    c.linkPackets = snap.sumU64("link.*.packets");
    c.linkWireBytes = snap.sumU64("link.*.wireBytes");
    std::uint64_t links = 0;
    snap.forEach("link.*.busyCycles",
                 [&](const std::string &, const MetricValue &v) {
        c.linkBusyCycles += v.u64;
        ++links;
    });
    c.linkCycles = links * makespan;
    c.chipForwarded = snap.sumU64("*.chip.forwarded");
    c.hubChunks = snap.sumU64("gpu*.hub.chunksInjected");
    c.mergeReqs = snap.sumU64("*.merge.loadReqs") +
                  snap.sumU64("*.merge.redReqs");
    c.mergeHits = snap.sumU64("*.merge.loadHits") +
                  snap.sumU64("*.merge.redHits");
    c.mergeEvictions = snap.sumU64("*.merge.evictions.lru") +
                       snap.sumU64("*.merge.evictions.timeout");
    c.nvlsOps = snap.sumU64("*.nvls.multicasts") +
                snap.sumU64("*.nvls.gatherReduces") +
                snap.sumU64("*.nvls.pushReduces");
    // Switch-side group sync only: GPUs register a sync engine too.
    c.syncRequests = snap.sumU64("*.sync.requests") -
                     snap.sumU64("gpu*.sync.requests");
    c.schedDispatched = snap.sumU64("gpu*.sched.dispatched");
    c.hbmBytes = snap.sumU64("gpu*.hbm.bytes");
    return c;
}

/** Checks every job's simulated result must pass. */
std::string
checkResult(const Workload &w, const SimResult &r)
{
    if (r.boundComposite == 0)
        return "static bound is 0";
    if (!w.executes)
        return "";
    if (r.makespan == 0 || r.events == 0)
        return "run executed nothing";
    if (r.makespan < r.boundComposite)
        return "makespan below the static bound (V8)";
    if (r.mergeLoadHits > r.mergeLoadReqs ||
        r.mergeRedHits > r.mergeRedReqs)
        return "more merge hits than requests";
    return "";
}

/** Records [start, now) as a span of @p layer when tracing. */
struct SpanClock
{
    std::vector<Span> *spans;
    int pass;
    std::size_t job;
    Clock::time_point last = Clock::now();

    void
    mark(Layer layer)
    {
        const Clock::time_point now = Clock::now();
        if (spans)
            spans->push_back({layer, pass, job, last, now});
        last = now;
    }
};

verify::Options
verifyOptions(const Job &job)
{
    verify::Options vo;
    vo.strategy = job.spec.name;
    vo.workload = job.workload;
    vo.suppress.insert(job.cfg.verifySuppress.begin(),
                       job.cfg.verifySuppress.end());
    vo.v9SlackRatio = job.cfg.boundSlackRatio;
    return vo;
}

/**
 * runGraph's steps, one public call at a time, with a span around each
 * when @p spans is set. Static-gate jobs stop after the bound and always
 * take this path. Each step does the work runGraph does, so the spans
 * account for an untraced job's host time; spanCoverage() measures how
 * nearly they do.
 */
std::string
runSteps(const Workload &w, const Job &job, SimResult &out,
         std::vector<Span> *spans, LayerCounts *counts, int pass,
         std::size_t index)
{
    ScopedLogLevel verbosity(job.cfg.verbosity);
    const Clock::time_point start = Clock::now();
    SpanClock sc{spans, pass, index, start};

    job.cfg.validate();
    System sys(job.cfg.toSystemConfig(job.spec));
    MetricRegistry reg;
    if (w.executes)
        sys.registerMetrics(reg);
    sc.mark(Layer::construct);

    GraphLowering lowering(sys, w.graphs[job.graph], job.spec.opts);
    lowering.lower();
    sc.mark(Layer::lower);

    const verify::Options vo = verifyOptions(job);
    const verify::VerifyResult vr = verify::verifySystem(sys, vo);
    sc.mark(Layer::verify);
    if (!vr.ok())
        return "static verification failed:\n" + vr.text();

    if (w.executes) {
        sys.run();
        sc.mark(Layer::run);
    }

    const BoundResult bound = computeBound(sys);
    sc.mark(Layer::bound);
    out = SimResult{};
    out.boundComposite = bound.composite;

    if (w.executes) {
        const MetricSnapshot snap = reg.snapshot();
        sc.mark(Layer::snapshot);

        // runGraph's harvest and post-run gate.
        RunResult r;
        r.strategy = job.spec.name;
        r.workload = job.workload;
        r.makespan = sys.makespan();
        r.boundComposite = bound.composite;
        r.boundCompute = bound.smCompute;
        r.boundHbm = bound.hbm;
        r.boundLink = bound.linkSerialization;
        r.boundMerge = bound.mergeService;
        r.boundCritPath = bound.criticalPath;
        r.boundBinding = bound.binding;
        r.eventsExecuted = snap.sumU64("eventq.executed");
        r.wireBytes = snap.sumU64("link.*.wireBytes");
        r.mergeLoadReqs = snap.sumU64("*.merge.loadReqs");
        r.mergeRedReqs = snap.sumU64("*.merge.redReqs");
        r.mergeLoadHits = snap.sumU64("*.merge.loadHits");
        r.mergeRedHits = snap.sumU64("*.merge.redHits");
        r.mergeFetches = snap.sumU64("*.merge.fetches");
        r.sessionsClosed = snap.sumU64("*.merge.sessionsClosed");
        r.lruEvictions = snap.sumU64("*.merge.evictions.lru");
        r.timeoutEvictions = snap.sumU64("*.merge.evictions.timeout");
        r.throttleHints = snap.sumU64("*.merge.throttle.hintsSent");
        r.peakMergeBytes = snap.maxU64("*.merge.peakTableBytes");
        double stagger_weighted = 0.0;
        snap.forEach("*.merge.stagger",
                     [&](const std::string &, const MetricValue &v) {
            stagger_weighted += v.mean * static_cast<double>(v.count);
            r.staggerSamples += v.count;
        });
        r.staggerUs = r.staggerSamples
            ? stagger_weighted / static_cast<double>(r.staggerSamples) /
                  static_cast<double>(cyclesPerUs)
            : 0.0;
        const Cycle end = r.makespan ? r.makespan : 1;
        r.avgUtil = sys.fabric().avgUtilization(0, end);
        r.upUtil = sys.fabric().dirUtilization(true, 0, end);
        r.dnUtil = sys.fabric().dirUtilization(false, 0, end);
        r.gpuUtil = sys.gpuUtilization();
        if (const MetricValue *ts = snap.find("fabric.utilSeries")) {
            r.utilSeries = ts->bins;
            r.utilBinWidth = ts->binWidth;
        }
        for (std::size_t k = 0; k < sys.numKernels(); ++k) {
            const auto id = static_cast<KernelId>(k);
            KernelTiming t{sys.kernel(id).name, sys.kernelStartTime(id),
                           sys.kernelFinishTime(id),
                           sys.kernel(id).commKernel};
            if (t.finish > t.start)
                (t.comm ? r.commKernelCycles : r.computeKernelCycles) +=
                    t.finish - t.start;
            r.kernels.push_back(std::move(t));
        }
        const verify::VerifyResult pr = verify::verifyPostRun(
            sys, bound, r.makespan, nullptr, vo);
        out = fromRunResult(r);
        sc.mark(Layer::postrun);
        if (!pr.ok())
            return "post-run verification failed:\n" + pr.text();
        if (counts)
            counts->add(countsOf(snap, r.makespan));
    }
    if (spans)
        spans->push_back({Layer::count, pass, index, start, sc.last});
    return checkResult(w, out);
}

} // namespace

std::string
runJob(const Workload &w, std::size_t i, SimResult &out,
       std::vector<Span> *spans, LayerCounts *counts, int pass)
{
    const Job &job = w.jobs[i];
    if (w.executes && !spans) {
        // What a user calls: one runGraph with V1-V9 on.
        out = fromRunResult(
            runGraph(job.spec, w.graphs[job.graph], job.cfg, job.workload));
        return checkResult(w, out);
    }
    return runSteps(w, job, out, spans, counts, pass, i);
}

double
PassResult::speed() const
{
    if (speeds.empty())
        return 1.0;
    double sum = 0.0;
    for (double v : speeds)
        sum += v;
    return sum / static_cast<double>(speeds.size());
}

std::vector<double>
PassResult::scaledJobSeconds() const
{
    std::vector<double> out = jobSeconds;
    if (speeds.empty())
        return out;
    const double all = speed();
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double from = jobMid[i] - 0.5 * jobSeconds[i] - kSpeedWindow;
        const double to = jobMid[i] + 0.5 * jobSeconds[i] + kSpeedWindow;
        double sum = 0.0;
        int n = 0;
        for (std::size_t k = 0; k < speeds.size(); ++k) {
            if (speedAt[k] >= from && speedAt[k] <= to) {
                sum += speeds[k];
                ++n;
            }
        }
        out[i] *= n ? sum / n : all;
    }
    return out;
}

PassResult
runPass(const Workload &w, bool traced, std::vector<Span> *spans,
        int pass, HostSpeedProbe *probe,
        const std::function<void()> &between)
{
    PassResult p;
    p.traced = traced;
    p.results.resize(w.jobs.size());
    p.jobSeconds.reserve(w.jobs.size());
    std::vector<Span> local;
    std::vector<Span> *sink = traced ? (spans ? spans : &local) : nullptr;
    const Clock::time_point start = p.start = Clock::now();
    auto sample = [&] {
        const double before = seconds(start, Clock::now());
        p.speeds.push_back(probe->sample());
        p.speedAt.push_back(0.5 * (before + seconds(start, Clock::now())));
    };
    if (probe)
        sample();
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const std::size_t first_span = sink ? sink->size() : 0;
        const Clock::time_point t0 = Clock::now();
        const std::string err = runJob(w, i, p.results[i], sink,
                                       traced ? &p.counts : nullptr, pass);
        const double took = seconds(t0, Clock::now());
        p.jobSeconds.push_back(took);
        p.jobMid.push_back(seconds(start, t0) + 0.5 * took);
        p.wallSeconds += took;
        if (between)
            between();
        if (probe && probe->due())
            sample();
        if (!err.empty())
            p.failures[i] = w.jobs[i].tag + ": " + err;
        if (!sink)
            continue;
        double job_layers = 0.0;
        for (std::size_t s = first_span; s < sink->size(); ++s) {
            const Span &sp = (*sink)[s];
            if (sp.layer == Layer::count)
                continue;
            p.layerSeconds[static_cast<int>(sp.layer)] +=
                seconds(sp.start, sp.end);
            job_layers += seconds(sp.start, sp.end);
        }
        p.jobLayerSeconds.push_back(job_layers);
        const SimResult &r = p.results[i];
        if (w.executes && r.boundComposite > 0)
            p.boundRatios.push_back(static_cast<double>(r.makespan) /
                                    static_cast<double>(r.boundComposite));
    }
    if (probe)
        sample();
    return p;
}

double
spanCoverage(const PassResult &untraced, const PassResult &traced)
{
    const std::vector<double> plain = untraced.scaledJobSeconds();
    const std::vector<double> steps = traced.scaledJobSeconds();
    const std::size_t n =
        std::min({plain.size(), steps.size(), traced.jobLayerSeconds.size()});
    double layers = 0.0, jobs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // The traced job's speed factor carries over to its layers.
        if (traced.jobSeconds[i] > 0.0)
            layers += traced.jobLayerSeconds[i] * steps[i] /
                      traced.jobSeconds[i];
        jobs += plain[i];
    }
    return jobs > 0.0 ? layers / jobs : 0.0;
}

// --- Speedups against Fig. 12 ---------------------------------------------

double
speedupDevPct(const Workload &w, const std::vector<SimResult> &results)
{
    // Fig. 12 geomean speedups of CAIS over TP-NVLS .. LADM, CAIS-Base
    // (allStrategies() order; CAIS itself is last).
    static const double paper[] = {1.39, 1.91, 1.99, 1.91, 1.64,
                                   1.24, 1.20, 1.47, 7.90, 1.47};
    const std::size_t num_base = std::size(paper);
    const std::size_t cais_idx = num_base;

    auto value = [&](std::size_t i) {
        return static_cast<double>(w.executes ? results[i].makespan
                                              : results[i].boundComposite);
    };
    int groups = 0;
    for (const Job &j : w.jobs)
        groups = std::max(groups, j.group + 1);
    std::vector<double> cais(static_cast<std::size_t>(groups), 0.0);
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        if (w.jobs[i].group >= 0 && w.jobs[i].strategy == cais_idx)
            cais[static_cast<std::size_t>(w.jobs[i].group)] = value(i);

    std::vector<double> log_sum(num_base, 0.0);
    std::vector<int> n(num_base, 0);
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const Job &j = w.jobs[i];
        if (j.group < 0 || j.strategy >= num_base)
            continue;
        const double c = cais[static_cast<std::size_t>(j.group)];
        if (c <= 0.0 || value(i) <= 0.0)
            continue;
        log_sum[j.strategy] += std::log(value(i) / c);
        ++n[j.strategy];
    }
    double err = 0.0;
    int baselines = 0;
    for (std::size_t b = 0; b < num_base; ++b) {
        if (n[b] == 0)
            continue;
        err += std::fabs(log_sum[b] / n[b] - std::log(paper[b]));
        ++baselines;
    }
    return baselines ? 100.0 * err / baselines : -1.0;
}

// --- Statistics -------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailStat
tailPercentile(std::vector<double> values, std::size_t select_n)
{
    constexpr std::size_t min_beyond = 10;
    TailStat t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t sel = std::clamp(select_n, std::size_t{1}, n);
    // Nearest rank: the smallest value with at least p% of the sample
    // at or below it.
    auto rank = [](double p, std::size_t count) {
        const auto r = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
        return r == 0 ? std::size_t{0} : r - 1;
    };
    t.percentile = 50.0;
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (sel - rank(p, sel) - 1 >= min_beyond) {
            t.percentile = p;
            break;
        }
    }
    const std::size_t r = rank(t.percentile, n);
    t.value = values[r];
    t.beyond = n - r - 1;
    return t;
}

// --- Machine -----------------------------------------------------------------

namespace
{

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

std::vector<std::uint32_t>
referenceTable()
{
    std::vector<std::uint32_t> t(std::size_t{1} << 22);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t &v : t)
        v = static_cast<std::uint32_t>(xorshift(x));
    return t;
}

double
referenceSeconds()
{
    static const std::vector<std::uint32_t> table = referenceTable();
    const std::size_t mask = table.size() - 1;
    const Clock::time_point t0 = Clock::now();
    std::priority_queue<std::uint64_t> heap;
    std::unordered_map<std::uint32_t, std::uint64_t> map;
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (std::uint64_t i = 0; i < 75000; ++i) {
        heap.push(xorshift(x));
        if (heap.size() > 4096) {
            acc += heap.top();
            heap.pop();
        }
        map[static_cast<std::uint32_t>(x & 0xfffff)] += i;
        acc += table[(acc ^ x) & mask];
    }
    volatile std::uint64_t sink = acc + map.size();
    (void)sink;
    return seconds(t0, Clock::now());
}

} // namespace

HostSpeedProbe::HostSpeedProbe()
{
    // Pin this process to the CPU it is on, so every sample measures
    // the core the jobs run on; the helper inherits the affinity.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof one, &one);

    int down[2], up[2];
    if (pipe(down) != 0 || pipe(up) != 0) {
        std::perror("perfbench: pipe");
        std::exit(1);
    }
    pid = fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        std::exit(1);
    }
    if (pid == 0) {
        // Helper: one kernel run per request byte, until EOF. Its
        // memory never reaches the driver's peak_rss_mb.
        close(down[1]);
        close(up[0]);
        referenceSeconds(); // first touch of the kernel's memory
        char c;
        while (read(down[0], &c, 1) == 1) {
            const double t = median(
                {referenceSeconds(), referenceSeconds(), referenceSeconds()});
            if (write(up[1], &t, sizeof t) != sizeof t)
                break;
        }
        _exit(0);
    }
    close(down[0]);
    close(up[1]);
    toHelper = down[1];
    fromHelper = up[0];
    last = Clock::now();
}

HostSpeedProbe::~HostSpeedProbe()
{
    close(toHelper);
    close(fromHelper);
    waitpid(pid, nullptr, 0);
}

double
HostSpeedProbe::sample()
{
    const char c = 's';
    double t = 0.0;
    if (write(toHelper, &c, 1) != 1 ||
        read(fromHelper, &t, sizeof t) != sizeof t || t <= 0.0) {
        std::fprintf(stderr, "perfbench: host-speed probe failed\n");
        std::exit(1);
    }
    last = Clock::now();
    return kReferenceSeconds / t;
}

bool
HostSpeedProbe::due() const
{
    return seconds(last, Clock::now()) >= kSampleEvery;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
fingerprintJson()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
            break;
        }
    }
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    JsonWriter j;
    j.beginObject()
        .field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()))
        .field("cpu", cpu)
        .field("compiler", PERFBENCH_COMPILER)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("ndebug", ndebug)
        .field("workers", 1)
        .endObject();
    return j.str();
}

} // namespace perfbench
