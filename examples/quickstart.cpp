/**
 * @file
 * Quickstart: simulate one communication-heavy transformer sub-layer
 * (GEMM-RS + LayerNorm + AG-GEMM) on an 8-GPU DGX-style system under
 * two execution strategies — the NVLS-accelerated sequence-parallel
 * baseline and CAIS — and print the timing and bandwidth metrics.
 *
 *   ./example_quickstart [model=LLaMA-7B] [gpus=8] [dim=0.5] [tok=0.25]
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

    LlmConfig model = llama7B();
    std::string name = args.getString("model", model.name);
    for (const auto &m : tableOneModels())
        if (m.name == name)
            model = m;

    // Shape-preserving reduction so the demo runs in seconds; pass
    // dim=1 tok=1 for the paper's Table-I dimensions.
    double dim = args.getDouble("dim", 0.5);
    double tok = args.getDouble("tok", 0.25);
    std::string err = LlmConfig::scaleError(dim, tok);
    if (!err.empty()) {
        std::fprintf(stderr, "quickstart: invalid config: %s\n",
                     err.c_str());
        return 2;
    }
    model = model.scaled(dim, tok);

    RunConfig cfg;
    cfg.numGpus = static_cast<int>(args.getInt("gpus", 8));
    cfg.gpu.numSms =
        static_cast<int>(args.getInt("sms", cfg.gpu.numSms));
    // trace=out.json writes a Perfetto-loadable kernel timeline.
    cfg.tracePath = args.getString("trace", "");

    OpGraph graph = buildSubLayer(model, SubLayerId::L1);

    std::printf("workload: %s\n", model.str().c_str());
    std::printf("graph:\n%s\n", graph.str().c_str());

    RunResult base =
        runGraph(makeSpNvls(), graph, cfg, subLayerName(SubLayerId::L1));
    RunResult cais_r =
        runGraph(makeCais(), graph, cfg, subLayerName(SubLayerId::L1));

    std::printf("%-12s %12s %10s %10s %10s %10s\n", "strategy",
                "time (us)", "link-util", "G2S", "S2G", "SM-util");
    for (const RunResult *r : {&base, &cais_r}) {
        std::printf("%-12s %12.1f %10s %10s %10s %10s\n",
                    r->strategy.c_str(), r->makespanUs(),
                    pct(r->avgUtil).c_str(), pct(r->upUtil).c_str(),
                    pct(r->dnUtil).c_str(), pct(r->gpuUtil).c_str());
    }
    std::printf("\nCAIS speedup over SP-NVLS: %.2fx\n",
                speedupOver(base, cais_r));
    if (!cfg.tracePath.empty())
        std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                    cfg.tracePath.c_str());
    std::printf("merge sessions closed: %llu, request stagger: "
                "%.2f us, peak merge table: %llu B/port\n",
                static_cast<unsigned long long>(cais_r.sessionsClosed),
                cais_r.staggerUs,
                static_cast<unsigned long long>(
                    cais_r.peakMergeBytes));
    return 0;
}
