/**
 * @file
 * cais_bound: run the sweep matrix and check every simulated makespan
 * against the static analytical bound model (DESIGN.md §6h).
 *
 *   cais_bound                         flat shape, all strategies/workloads
 *   cais_bound topology=all            flat + every preset (330 runs,
 *                                      the CI acceptance sweep)
 *   cais_bound strategy=cais           one strategy
 *   cais_bound workload=L2             one workload
 *   cais_bound --json [json_out=f]     cais-bound-v1 JSON document
 *
 * Unlike cais_verify this tool *executes* the simulations: V8 is a
 * post-run property (simulated makespan >= static bound per resource
 * class). The in-run V8/V9 gate is suppressed so a violating run is
 * reported as a line in the sweep summary instead of aborting the
 * whole matrix. Machine knobs mirror the benches: topology= gpus=
 * switches= chunk= sms= dim= tok= seed=. Exit code: 0 clean,
 * 1 violations found, 2 usage.
 */

#include <cctype>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/bound_model.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "runtime/sweep.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

struct Workload
{
    std::string name;
    std::function<OpGraph(const LlmConfig &)> build;
};

std::vector<Workload>
allWorkloads()
{
    auto sub = [](SubLayerId L) {
        return [L](const LlmConfig &m) { return buildSubLayer(m, L); };
    };
    return {
        {"L1", sub(SubLayerId::L1)},
        {"L2", sub(SubLayerId::L2)},
        {"L3", sub(SubLayerId::L3)},
        {"L4", sub(SubLayerId::L4)},
        {"layer_fwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::forward);
         }},
        {"layer_bwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::backward);
         }},
    };
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cais_bound [--json] [key=value...]\n"
        "  strategy=NAME   run one strategy (default: all)\n"
        "  workload=NAME   L1|L2|L3|L4|layer_fwd|layer_bwd "
        "(default: all)\n"
        "  json_out=PATH   write the JSON document to PATH\n"
        "  topology=NAME   fabric preset (dgx-h100, nvl72, "
        "rail-optimized-2node/-4node),\n"
        "                  or 'all' to sweep flat + every preset\n"
        "  gpus= switches= chunk= sms= dim= tok= seed=   "
        "machine knobs (bench defaults)\n");
    return 2;
}

/** One run's sim-vs-bound record. */
struct BoundRecord
{
    std::string strategy;
    std::string workload;
    std::string topology; ///< preset name; "" is the flat shape
    RunResult r;
    bool v8 = false; ///< makespan below the composite bound
};

} // namespace

int
main(int argc, char **argv)
{
    bool want_json = false;
    Params params;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            want_json = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!params.parseToken(arg)) {
            std::fprintf(stderr, "cais_bound: bad argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    std::vector<std::string> topologies;
    const std::string topo_arg = params.getString("topology", "");
    const bool sweep_all = topo_arg == "all";
    if (sweep_all) {
        topologies.push_back("");
        for (const std::string &n : FabricParams::presetNames())
            topologies.push_back(n);
    } else {
        topologies.push_back(topo_arg);
    }

    auto makeCfg = [&](const std::string &topo) {
        RunConfig cfg;
        cfg.topology = topo;
        if (const FabricParams *p = FabricParams::findPreset(topo))
            cfg.numGpus = p->numGpus;
        if (!sweep_all) {
            cfg.numGpus =
                static_cast<int>(params.getInt("gpus", cfg.numGpus));
            cfg.numSwitches = static_cast<int>(
                params.getInt("switches", cfg.numSwitches));
        }
        cfg.chunkBytes = static_cast<std::uint32_t>(
            params.getInt("chunk", cfg.chunkBytes));
        cfg.gpu.numSms =
            static_cast<int>(params.getInt("sms", cfg.gpu.numSms));
        cfg.seed = static_cast<std::uint64_t>(params.getInt(
            "seed", static_cast<std::int64_t>(cfg.seed)));
        // The tool IS the V8 check: suppress the in-run gate so a
        // violating run shows up as a flagged line in the summary
        // instead of aborting the matrix mid-sweep.
        cfg.verifySuppress = {"V8", "V9"};
        return cfg;
    };
    for (const std::string &topo : topologies) {
        std::string cfg_err = makeCfg(topo).validationError();
        if (!cfg_err.empty()) {
            std::fprintf(stderr, "cais_bound: invalid config: %s\n",
                         cfg_err.c_str());
            return 2;
        }
    }

    // Same scaled model as the cais_verify acceptance sweep: the
    // bound property is scale-invariant and small factors keep the
    // 330-run matrix fast.
    LlmConfig model = megaGpt4B().scaled(
        params.getDouble("dim", 0.25), params.getDouble("tok", 0.125));

    auto lower = [](std::string s) {
        for (char &c : s)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        return s;
    };

    std::vector<StrategySpec> strategies;
    std::string only_strategy = params.getString("strategy", "");
    for (const StrategySpec &s : allStrategies())
        if (only_strategy.empty() ||
            lower(s.name) == lower(only_strategy))
            strategies.push_back(s);
    if (strategies.empty()) {
        std::string names;
        for (const StrategySpec &s : allStrategies())
            names += (names.empty() ? "" : " ") + s.name;
        std::fprintf(stderr,
                     "cais_bound: unknown strategy '%s' (one of: "
                     "%s)\n",
                     only_strategy.c_str(), names.c_str());
        return usage();
    }

    std::vector<Workload> workloads;
    std::string only_workload = params.getString("workload", "");
    for (Workload &w : allWorkloads())
        if (only_workload.empty() || w.name == only_workload)
            workloads.push_back(std::move(w));
    if (workloads.empty()) {
        std::fprintf(stderr, "cais_bound: unknown workload '%s'\n",
                     only_workload.c_str());
        return usage();
    }

    std::vector<SweepJob> jobs;
    std::vector<std::pair<std::string, std::string>> jobTags;
    for (const std::string &topo : topologies) {
        RunConfig cfg = makeCfg(topo);
        for (const StrategySpec &spec : strategies) {
            for (const Workload &w : workloads) {
                SweepJob j;
                j.spec = spec;
                j.cfg = cfg;
                j.workload = sweep_all && !topo.empty()
                                 ? w.name + "@" + topo
                                 : w.name;
                j.graph = [build = w.build, model]() {
                    return build(model);
                };
                jobs.push_back(std::move(j));
                jobTags.emplace_back(w.name, topo);
            }
        }
    }

    std::vector<RunResult> results = runSweep(jobs);

    std::vector<BoundRecord> records;
    std::size_t violations = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        BoundRecord rec;
        rec.strategy = jobs[i].spec.name;
        rec.workload = jobTags[i].first;
        rec.topology = jobTags[i].second;
        rec.r = results[i];
        rec.v8 = rec.r.makespan < rec.r.boundComposite;
        if (rec.v8)
            ++violations;
        records.push_back(std::move(rec));
    }

    if (want_json || params.has("json_out")) {
        JsonWriter w;
        w.beginObject();
        w.field("schema", boundSchemaVersion);
        w.field("totalViolations",
                static_cast<std::uint64_t>(violations));
        w.key("runs").beginArray();
        for (const BoundRecord &rec : records) {
            const RunResult &r = rec.r;
            w.beginObject();
            w.field("strategy", rec.strategy);
            w.field("workload", rec.workload);
            w.field("topology", rec.topology);
            w.field("makespan",
                    static_cast<std::uint64_t>(r.makespan));
            w.key("bound").beginObject()
                .field("composite", static_cast<std::uint64_t>(
                                        r.boundComposite))
                .field("smCompute", static_cast<std::uint64_t>(
                                        r.boundCompute))
                .field("hbm",
                       static_cast<std::uint64_t>(r.boundHbm))
                .field("linkSerialization",
                       static_cast<std::uint64_t>(r.boundLink))
                .field("mergeService", static_cast<std::uint64_t>(
                                           r.boundMerge))
                .field("criticalPath", static_cast<std::uint64_t>(
                                           r.boundCritPath))
                .field("binding", r.boundBinding)
                .endObject();
            w.field("ratio",
                    r.boundComposite
                        ? static_cast<double>(r.makespan) /
                              static_cast<double>(r.boundComposite)
                        : 0.0);
            w.field("v8Violation", rec.v8);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::string json_out = params.getString("json_out", "");
        if (!json_out.empty()) {
            std::FILE *f = std::fopen(json_out.c_str(), "w");
            if (!f) {
                std::fprintf(stderr,
                             "cais_bound: cannot write %s\n",
                             json_out.c_str());
                return 2;
            }
            std::fputs(w.str().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
        }
        if (want_json)
            std::printf("%s\n", w.str().c_str());
    }
    if (!want_json) {
        for (const BoundRecord &rec : records) {
            const RunResult &r = rec.r;
            const double ratio =
                r.boundComposite
                    ? static_cast<double>(r.makespan) /
                          static_cast<double>(r.boundComposite)
                    : 0.0;
            const std::string where =
                rec.topology.empty()
                    ? rec.workload
                    : rec.workload + "@" + rec.topology;
            std::printf("%-14s %-18s makespan %10llu  bound %10llu  "
                        "ratio %5.2f  binding %-17s%s\n",
                        rec.strategy.c_str(), where.c_str(),
                        static_cast<unsigned long long>(r.makespan),
                        static_cast<unsigned long long>(
                            r.boundComposite),
                        ratio, r.boundBinding.c_str(),
                        rec.v8 ? "  V8-VIOLATION" : "");
        }
        std::printf("cais_bound: %zu run(s), %zu V8 violation(s)\n",
                    records.size(), violations);
    }
    return violations == 0 ? 0 : 1;
}
