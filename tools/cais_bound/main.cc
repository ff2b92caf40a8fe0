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

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bound_model.hh"
#include "common/json.hh"
#include "matrix_cli.hh"
#include "runtime/sweep.hh"

using namespace cais;

namespace
{

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
    matrix::MatrixArgs args({"cais_bound", "", "run", ""});
    if (int rc = args.parse(argc, argv); rc != args.proceed)
        return rc;

    std::vector<SweepJob> jobs;
    std::vector<std::pair<std::string, std::string>> jobTags;
    for (const std::string &topo : args.topologies) {
        RunConfig cfg = args.runConfig(topo);
        // The tool IS the V8 check: suppress the in-run gate so a
        // violating run shows up as a flagged line in the summary
        // instead of aborting the matrix mid-sweep.
        cfg.verifySuppress = {"V8", "V9"};
        for (const StrategySpec &spec : args.strategies) {
            for (const matrix::Workload &w : args.workloads) {
                SweepJob j;
                j.spec = spec;
                j.cfg = cfg;
                j.workload = args.label(w, topo);
                j.graph = [build = w.build, model = args.model]() {
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

    if (args.jsonRequested()) {
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
        if (!args.emitJson(w.str()))
            return 2;
    }
    if (!args.wantJson) {
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
