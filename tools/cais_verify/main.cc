/**
 * @file
 * cais_verify: run the cais-verify static model checker (DESIGN.md
 * §6e) over shipped strategy x workload configurations without
 * executing a single simulation event.
 *
 *   cais_verify                        verify all strategies/workloads
 *   cais_verify strategy=cais          one strategy
 *   cais_verify workload=L2            one workload
 *   cais_verify suppress=V3,V5         skip rules
 *   cais_verify topology=all           sweep flat + every preset
 *   cais_verify --json [json_out=f]    cais-verify-v1 JSON document
 *   cais_verify --list-rules           print the rule table
 *
 * Machine knobs mirror the benches: topology= gpus= switches= chunk=
 * sms= dim= tok= seed=. topology=all repeats the whole strategy x
 * workload sweep on the flat shape and every shipped preset (the CI
 * acceptance sweep), tagging each run's workload as "L1@nvl72" etc.
 * Exit code: 0 clean, 1 diagnostics found, 2 usage.
 */

#include <cctype>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verify.hh"
#include "common/config.hh"
#include "common/json.hh"
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
        "usage: cais_verify [--json] [--list-rules] [key=value...]\n"
        "  strategy=NAME   verify one strategy (default: all)\n"
        "  workload=NAME   L1|L2|L3|L4|layer_fwd|layer_bwd "
        "(default: all)\n"
        "  suppress=V1,V3  skip rules\n"
        "  json_out=PATH   write the JSON document to PATH\n"
        "  topology=NAME   fabric preset (dgx-h100, nvl72, "
        "rail-optimized-2node/-4node),\n"
        "                  or 'all' to sweep flat + every preset\n"
        "  gpus= switches= chunk= sms= dim= tok= seed=   "
        "machine knobs (bench defaults)\n");
    return 2;
}

int
listRules()
{
    for (const verify::RuleInfo &r : verify::ruleTable())
        std::printf("%s  %s\n    fix: %s\n", r.id, r.summary,
                    r.hint);
    return 0;
}

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
        } else if (arg == "--list-rules") {
            return listRules();
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!params.parseToken(arg)) {
            std::fprintf(stderr, "cais_verify: bad argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    // topology=all sweeps the flat default shape plus every shipped
    // preset; otherwise a single (possibly empty = flat) topology.
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
        // With a preset, default the GPU count to the preset's own
        // (nvl72 -> 72); gpus= still overrides for withGpus scaling
        // (single-topology mode only — 'all' keeps preset shapes).
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
        return cfg;
    };
    for (const std::string &topo : topologies) {
        std::string cfg_err = makeCfg(topo).validationError();
        if (!cfg_err.empty()) {
            std::fprintf(stderr, "cais_verify: invalid config: %s\n",
                         cfg_err.c_str());
            return 2;
        }
    }

    // Static pass only: small scale factors keep graph construction
    // instant while preserving every structural property.
    LlmConfig model = megaGpt4B().scaled(
        params.getDouble("dim", 0.25), params.getDouble("tok", 0.125));

    verify::Options opts;
    {
        std::stringstream ss(params.getString("suppress", ""));
        std::string rule;
        while (std::getline(ss, rule, ','))
            if (!rule.empty())
                opts.suppress.insert(rule);
    }

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
                     "cais_verify: unknown strategy '%s' (one of: "
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
        std::fprintf(stderr, "cais_verify: unknown workload '%s'\n",
                     only_workload.c_str());
        return usage();
    }

    std::vector<verify::VerifyResult> results;
    std::size_t total = 0;
    for (const std::string &topo : topologies) {
        RunConfig cfg = makeCfg(topo);
        for (const StrategySpec &spec : strategies) {
            for (const Workload &w : workloads) {
                verify::Options o = opts;
                o.workload = sweep_all && !topo.empty()
                                 ? w.name + "@" + topo
                                 : w.name;
                OpGraph graph = w.build(model);
                results.push_back(
                    verify::verifyRun(spec, graph, cfg, o));
                total += results.back().diagnostics.size();
            }
        }
    }

    if (want_json || params.has("json_out")) {
        JsonWriter w;
        w.beginObject();
        w.field("schema", verify::verifySchemaVersion);
        w.field("totalDiagnostics",
                static_cast<std::uint64_t>(total));
        w.key("runs").beginArray();
        for (const verify::VerifyResult &r : results)
            r.writeJson(w);
        w.endArray();
        w.endObject();
        std::string json_out = params.getString("json_out", "");
        if (!json_out.empty()) {
            std::FILE *f = std::fopen(json_out.c_str(), "w");
            if (!f) {
                std::fprintf(stderr,
                             "cais_verify: cannot write %s\n",
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
        for (const verify::VerifyResult &r : results)
            if (!r.ok())
                std::printf("-- %s / %s --\n%s", r.strategy.c_str(),
                            r.workload.c_str(), r.text().c_str());
        std::printf("cais_verify: %zu run(s), %zu diagnostic(s)\n",
                    results.size(), total);
    }
    return total == 0 ? 0 : 1;
}
