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

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verify.hh"
#include "common/json.hh"
#include "matrix_cli.hh"

using namespace cais;

namespace
{

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
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--list-rules")
            return listRules();

    matrix::MatrixArgs args({"cais_verify", "[--list-rules] ", "verify",
                             "  suppress=V1,V3  skip rules\n"});
    if (int rc = args.parse(argc, argv); rc != args.proceed)
        return rc;

    verify::Options opts;
    {
        std::stringstream ss(args.params.getString("suppress", ""));
        std::string rule;
        while (std::getline(ss, rule, ','))
            if (!rule.empty())
                opts.suppress.insert(rule);
    }

    std::vector<verify::VerifyResult> results;
    std::size_t total = 0;
    for (const std::string &topo : args.topologies) {
        RunConfig cfg = args.runConfig(topo);
        for (const StrategySpec &spec : args.strategies) {
            for (const matrix::Workload &w : args.workloads) {
                verify::Options o = opts;
                o.workload = args.label(w, topo);
                OpGraph graph = w.build(args.model);
                results.push_back(
                    verify::verifyRun(spec, graph, cfg, o));
                total += results.back().diagnostics.size();
            }
        }
    }

    if (args.jsonRequested()) {
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
        if (!args.emitJson(w.str()))
            return 2;
    }
    if (!args.wantJson) {
        for (const verify::VerifyResult &r : results)
            if (!r.ok())
                std::printf("-- %s / %s --\n%s", r.strategy.c_str(),
                            r.workload.c_str(), r.text().c_str());
        std::printf("cais_verify: %zu run(s), %zu diagnostic(s)\n",
                    results.size(), total);
    }
    return total == 0 ? 0 : 1;
}
