/**
 * @file
 * perfbench_driver: run one benchmark workload in this process and print
 * its metrics (see perfbench/README.md).
 *
 *   perfbench_driver --workload sublayer8 [--seed 1] [--seconds 30]
 *                    [--trace 0|1] [--out-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
 * alternates untraced and traced passes and prints the per-layer
 * metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * Exit code: 0 when every job passed its checks, 1 when one failed,
 * 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "common/json.hh"

using namespace perfbench;

namespace
{

const Clock::time_point processStart = Clock::now();

/** Set-up is short, so its median over several rounds is reported.
 *  After the first, a round runs between timed jobs at most every
 *  kSetupEvery seconds, while rounds hold under kSetupShare of the run. */
constexpr double kSetupEvery = 0.2;
constexpr double kSetupShare = 0.05;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string outDir;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n"
                 "  workloads:");
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string val;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            val = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            return false;
        }
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val) != 0;
            else if (key == "--out-dir")
                a.outDir = val;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0;
}

/** Named metrics in print order, with units. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }

    void
    write(cais::JsonWriter &j) const
    {
        j.beginObject();
        for (const auto &[name, vu] : items) {
            j.key(name).beginObject();
            j.field("value", vu.first).field("unit", vu.second);
            j.endObject();
        }
        j.endObject();
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return usage();
    // The benchmark fixes its own parallelism: one worker, sequential
    // event core, whatever the calling shell exported.
    unsetenv("CAIS_JOBS");
    unsetenv("CAIS_SHARDS");
    // Started before the job set exists, so the helper's image is small.
    HostSpeedProbe probe;

    // Set-up: build the job set and run one untimed warm-up job. The
    // first round is timed from process start and precedes the first
    // timed job. Set-up is short and host speed drifts, so further
    // rounds repeat the same work between timed jobs, and are scaled
    // like jobs by the samples taken near them (see HostSpeedProbe).
    Workload w;
    PassResult setup; // one "job" per round, times since process start
    std::vector<double> build_raw;
    std::vector<SimResult> warmups;
    std::vector<std::string> warmup_errs;
    auto setup_round = [&](Clock::time_point t0, Workload &into) {
        into = buildWorkload(a.workload, a.seed);
        build_raw.push_back(seconds(t0, Clock::now()));
        SimResult r;
        warmup_errs.push_back(runJob(into, 0, r));
        warmups.push_back(r);
        const double took = seconds(t0, Clock::now());
        setup.jobSeconds.push_back(took);
        setup.jobMid.push_back(seconds(processStart, t0) + 0.5 * took);
    };
    try {
        setup_round(processStart, w);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return usage();
    }
    Clock::time_point last_round = Clock::now();
    double setup_total = setup.jobSeconds.front();
    auto between_jobs = [&] {
        const Clock::time_point now = Clock::now();
        if (seconds(last_round, now) < kSetupEvery ||
            setup_total > kSetupShare * seconds(processStart, now))
            return;
        Workload again;
        setup_round(now, again);
        setup_total += setup.jobSeconds.back();
        last_round = Clock::now();
    };

    // Timed passes while at least half of a typical pass fits in the
    // budget (never fewer than the workload's minimum). With --trace 1
    // they alternate untraced and traced, starting untraced.
    std::vector<PassResult> passes;
    std::vector<Span> spans;
    std::vector<double> walls;
    const int min_passes = a.trace ? 2 : w.minPasses;
    const Clock::time_point timed = Clock::now();
    for (int pass = 0;; ++pass) {
        const double elapsed = seconds(timed, Clock::now());
        if (pass >= min_passes &&
            elapsed + 0.5 * median(walls) > a.seconds)
            break;
        const bool traced = a.trace && pass % 2 == 1;
        passes.push_back(
            runPass(w, traced, &spans, pass, &probe, between_jobs));
        walls.push_back(passes.back().wallSeconds);
    }

    // Correctness: every job passed its own checks, and every pass
    // (traced or not) and every warm-up reproduced the first pass's
    // simulated results exactly. A job that fails both ways counts once.
    const std::vector<SimResult> &ref = passes.front().results;
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < warmups.size(); ++i) {
        ++attempted;
        const std::string who = "warm-up " + w.jobs[0].tag + ": ";
        if (!warmup_errs[i].empty())
            failures.push_back(who + warmup_errs[i]);
        if (!(warmups[i] == ref.front()))
            failures.push_back(who + "result differs from pass 0");
        failed += !warmup_errs[i].empty() || !(warmups[i] == ref.front());
    }
    for (const PassResult &p : passes) {
        attempted += p.results.size();
        std::set<std::size_t> bad;
        for (std::size_t i : mismatches(ref, p.results)) {
            failures.push_back(w.jobs[i].tag + ": result differs from "
                               "pass 0");
            bad.insert(i);
        }
        for (const auto &[i, why] : p.failures) {
            failures.push_back(why);
            bad.insert(i);
        }
        failed += bad.size();
    }
    const std::string digest = hexDigest(simDigest(ref));

    // Set-up rounds take the passes' host-speed samples.
    for (const PassResult &p : passes) {
        const double at = seconds(processStart, p.start);
        for (std::size_t k = 0; k < p.speeds.size(); ++k) {
            setup.speeds.push_back(p.speeds[k]);
            setup.speedAt.push_back(at + p.speedAt[k]);
        }
    }
    const std::vector<double> setup_s = setup.scaledJobSeconds();
    std::vector<double> build_s;
    for (std::size_t i = 0; i < setup_s.size(); ++i)
        build_s.push_back(build_raw[i] * setup_s[i] / setup.jobSeconds[i]);

    // Host times are reported at reference speed (see HostSpeedProbe).
    std::vector<double> untraced_walls, traced_walls, job_s, speeds;
    for (const PassResult &p : passes) {
        const std::vector<double> scaled = p.scaledJobSeconds();
        double wall = 0.0;
        for (double t : scaled)
            wall += t;
        (p.traced ? traced_walls : untraced_walls).push_back(wall);
        if (!p.traced)
            job_s.insert(job_s.end(), scaled.begin(), scaled.end());
        speeds.insert(speeds.end(), p.speeds.begin(), p.speeds.end());
    }

    Metrics m;
    std::string tail_note;
    if (!a.trace) {
        const TailStat tail = tailPercentile(
            job_s, w.jobs.size() * static_cast<std::size_t>(w.minPasses));
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "job_ms_tail is p%g of %zu jobs (%zu beyond it)",
                      tail.percentile, tail.samples, tail.beyond);
        tail_note = buf;
        m.add("wall_s", median(untraced_walls), "s");
        m.add("job_ms_p50", 1e3 * median(job_s), "ms");
        m.add("job_ms_tail", 1e3 * tail.value, "ms");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        m.add("setup_s", median(setup_s), "s");
        m.add("speedup_dev_pct", speedupDevPct(w, ref), "%");
    } else {
        const int layers = static_cast<int>(Layer::count);
        std::vector<std::vector<double>> per_layer(layers);
        LayerCounts c;
        std::vector<double> bound_ratios, coverage;
        for (std::size_t k = 0; k < passes.size(); ++k) {
            const PassResult &p = passes[k];
            if (!p.traced)
                continue;
            for (int l = 0; l < layers; ++l)
                per_layer[l].push_back(p.speed() * p.layerSeconds[l]);
            c = p.counts; // identical every traced pass
            bound_ratios = p.boundRatios;
            // Passes alternate, so the one before is untraced.
            coverage.push_back(spanCoverage(passes[k - 1], p));
        }
        const double run_s =
            median(per_layer[static_cast<int>(Layer::run)]);

        m.add("workload.build_s", median(build_s), "s");
        for (int l = 0; l < layers; ++l)
            m.add(layerMetric(static_cast<Layer>(l)), median(per_layer[l]),
                  "s");
        m.add("common.eventq.events", static_cast<double>(c.events),
              "count");
        m.add("common.eventq.ns_per_event",
              ratio(1e9 * run_s, static_cast<double>(c.events)), "ns");
        m.add("noc.link.packets", static_cast<double>(c.linkPackets),
              "count");
        m.add("noc.events_per_hop",
              ratio(static_cast<double>(c.events),
                    static_cast<double>(c.linkPackets)),
              "events/hop");
        m.add("noc.chip.forwarded", static_cast<double>(c.chipForwarded),
              "count");
        m.add("gpu.hub.chunks", static_cast<double>(c.hubChunks), "count");
        m.add("switchcompute.merge.reqs", static_cast<double>(c.mergeReqs),
              "count");
        m.add("switchcompute.nvls.ops", static_cast<double>(c.nvlsOps),
              "count");
        m.add("switchcompute.sync.requests",
              static_cast<double>(c.syncRequests), "count");
        m.add("gpu.sched.dispatched", static_cast<double>(c.schedDispatched),
              "count");
        m.add("switchcompute.merge.hit_ratio",
              ratio(static_cast<double>(c.mergeHits),
                    static_cast<double>(c.mergeReqs)),
              "ratio");
        m.add("switchcompute.merge.evictions",
              static_cast<double>(c.mergeEvictions), "count");
        m.add("noc.link.wire_bytes", static_cast<double>(c.linkWireBytes),
              "B");
        m.add("noc.link.busy_frac",
              ratio(static_cast<double>(c.linkBusyCycles),
                    static_cast<double>(c.linkCycles)),
              "ratio");
        m.add("gpu.hbm.bytes", static_cast<double>(c.hbmBytes), "B");
        m.add("analysis.bound.ratio", median(bound_ratios), "ratio");
        m.add("bench.trace_overhead_s",
              median(traced_walls) - median(untraced_walls), "s");
        m.add("bench.span_coverage", median(coverage), "ratio");
        m.add("bench.host_speed", median(speeds), "ratio");
    }

    // Human-readable report, then the result line.
    std::printf("workload %s  seed %llu  trace %d  passes %zu  jobs/pass "
                "%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? 1 : 0, passes.size(), w.jobs.size());
    std::printf("fingerprint %s\n", fingerprintJson().c_str());
    std::printf("sim_digest %s\n", digest.c_str());
    for (const auto &[name, vu] : m.items)
        std::printf("  %-32s %16.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::printf("  %-32s %16.6f %s\n", "failed_frac",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio");
    if (w.paperGrid)
        std::printf("  %-32s %16.6f %s\n", "paper_err_pct",
                    speedupDevPct(w, ref), "%");
    if (!tail_note.empty())
        std::printf("%s\n", tail_note.c_str());
    std::printf("set-up rounds %zu, round 0 (from process start) %.6f s "
                "at reference speed\n",
                setup_s.size(), setup_s.front());
    std::printf("raw pass wall s:");
    for (const PassResult &p : passes)
        std::printf(" %.3f%s", p.wallSeconds, p.traced ? "(traced)" : "");
    std::printf("\nhost speed samples:");
    for (double v : speeds)
        std::printf(" %.3f", v);
    std::printf("\n");
    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());

    cais::JsonWriter line;
    line.beginObject()
        .field("correct", failed == 0)
        .field("attempted", static_cast<std::uint64_t>(attempted))
        .field("failed", static_cast<std::uint64_t>(failed))
        .key("metrics");
    m.write(line);
    line.endObject();

    if (!a.outDir.empty()) {
        const std::string stem = a.outDir + "/" + w.name + "-seed" +
                                 std::to_string(a.seed) + "-trace" +
                                 (a.trace ? "1" : "0");
        cais::JsonWriter doc;
        doc.beginObject()
            .field("workload", w.name)
            .field("seed", a.seed)
            .field("passes", static_cast<std::uint64_t>(passes.size()))
            .field("jobs_per_pass", static_cast<std::uint64_t>(w.jobs.size()))
            .field("sim_digest", digest)
            .field("tail", tail_note);
        doc.key("raw_pass_wall_s").beginArray();
        for (const PassResult &p : passes)
            doc.value(p.wallSeconds);
        doc.endArray();
        doc.key("setup_s_rounds").beginArray();
        for (double v : setup_s)
            doc.value(v);
        doc.endArray();
        doc.key("host_speed").beginArray();
        for (double v : speeds)
            doc.value(v);
        doc.endArray();
        // The document is still open: append the two JSON objects.
        std::ofstream(stem + ".json")
            << doc.str() << ",\"fingerprint\":" << fingerprintJson()
            << ",\"result\":" << line.str() << "}\n";
        if (a.trace) {
            cais::JsonWriter t;
            t.beginObject().key("traceEvents").beginArray();
            for (const Span &s : spans) {
                t.beginObject()
                    .field("name", s.layer == Layer::count
                                       ? w.jobs[s.job].tag
                                       : std::string(layerMetric(s.layer)))
                    .field("ph", "X")
                    .field("pid", 1)
                    .field("tid", s.pass)
                    .field("ts", 1e6 * seconds(processStart, s.start))
                    .field("dur", 1e6 * seconds(s.start, s.end));
                t.key("args").beginObject()
                    .field("job", static_cast<std::uint64_t>(s.job))
                    .field("parent", s.layer == Layer::count
                                         ? std::string()
                                         : w.jobs[s.job].tag)
                    .endObject();
                t.endObject();
            }
            t.endArray().endObject();
            std::ofstream(stem + ".spans.json") << t.str() << "\n";
        }
    }

    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
