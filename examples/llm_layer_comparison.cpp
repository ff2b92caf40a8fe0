/**
 * @file
 * Compare every execution strategy on a full transformer layer
 * (forward or backward) of a Table-I model: per-strategy timing,
 * bandwidth, GPU utilization and a kernel timeline for the two most
 * interesting contenders.
 *
 *   ./example_llm_layer_comparison [model=Mega-GPT-8B] [pass=fwd]
 *       [gpus=8] [dim=0.5] [tok=0.25]
 */

#include <cstdio>
#include <string>

#include "analysis/bandwidth_probe.hh"
#include "common/config.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

int
main(int argc, char **argv)
{
    Params args = Params::fromArgs(argc, argv);

    LlmConfig model = megaGpt8B();
    std::string name = args.getString("model", model.name);
    for (const auto &m : tableOneModels())
        if (m.name == name)
            model = m;
    double dim = args.getDouble("dim", 0.5);
    double tok = args.getDouble("tok", 0.25);
    std::string err = LlmConfig::scaleError(dim, tok);
    if (!err.empty()) {
        std::fprintf(stderr,
                     "llm_layer_comparison: invalid config: %s\n",
                     err.c_str());
        return 2;
    }
    model = model.scaled(dim, tok);

    Pass pass = args.getString("pass", "fwd") == "bwd"
                    ? Pass::backward
                    : Pass::forward;

    RunConfig cfg;
    cfg.numGpus = static_cast<int>(args.getInt("gpus", 8));

    OpGraph graph = buildTransformerLayer(model, pass);
    std::printf("workload: %s, %s pass, one layer\n\n",
                model.str().c_str(),
                pass == Pass::forward ? "forward" : "backward");

    std::printf("%-14s %10s %9s %8s %8s %8s %9s\n", "strategy",
                "time (us)", "speedup", "link", "G2S", "S2G", "SM");

    std::vector<RunResult> results;
    for (const StrategySpec &spec : allStrategies())
        results.push_back(runGraph(spec, graph, cfg, "layer"));

    double cais_us = results.back().makespanUs();
    for (const RunResult &r : results) {
        std::printf("%-14s %10.1f %8.2fx %8s %8s %8s %9s\n",
                    r.strategy.c_str(), r.makespanUs(),
                    r.makespanUs() / cais_us, pct(r.avgUtil).c_str(),
                    pct(r.upUtil).c_str(), pct(r.dnUtil).c_str(),
                    pct(r.gpuUtil).c_str());
    }

    // Timelines: the serialized NVLS baseline vs the CAIS pipeline.
    for (const RunResult &r : results) {
        if (r.strategy != "SP-NVLS" && r.strategy != "CAIS")
            continue;
        std::printf("\n%s kernel timeline:\n", r.strategy.c_str());
        for (const KernelTiming &k : r.kernels) {
            std::printf("  %-22s %8.1f -> %8.1f us %s\n",
                        k.name.c_str(),
                        static_cast<double>(k.start) / cyclesPerUs,
                        static_cast<double>(k.finish) / cyclesPerUs,
                        k.comm ? "[comm]" : "");
        }
    }

    std::printf("\nCAIS merge activity: %llu load reqs (%llu merged), "
                "%llu red reqs (%llu merged), stagger %.2f us\n",
                static_cast<unsigned long long>(
                    results.back().mergeLoadReqs),
                static_cast<unsigned long long>(
                    results.back().mergeLoadHits),
                static_cast<unsigned long long>(
                    results.back().mergeRedReqs),
                static_cast<unsigned long long>(
                    results.back().mergeRedHits),
                results.back().staggerUs);
    return 0;
}
