/**
 * @file
 * Ablation of the request/merge granularity (a core modelling choice,
 * DESIGN.md §4b): CAIS and SP-NVLS sub-layer time vs chunk size. The
 * paper's hardware coalesces to 128 B packets; we default to 4 KiB
 * bursts. Results should be granularity-insensitive (bandwidth-
 * dominated), validating the substitution.
 */

#include "bench_common.hh"
#include "workload/transformer.hh"

using namespace cais;
using namespace cais::bench;

int
main(int argc, char **argv)
{
    BenchArgs a = BenchArgs::parse(argc, argv);
    banner("Ablation: chunk (merge/packet) granularity", a);

    LlmConfig m = a.model(llama7B());
    OpGraph g = buildSubLayer(m, SubLayerId::L1);

    const std::uint32_t chunks[] = {1024u, 2048u, 4096u, 8192u,
                                    16384u};

    std::vector<SweepJob> jobs;
    for (std::uint32_t chunk : chunks) {
        RunConfig cfg = a.runConfig();
        cfg.gpu.chunkBytes = chunk;
        addJob(jobs, strategyByName("CAIS"), g, cfg, "L1");
        addJob(jobs, strategyByName("SP-NVLS"), g, cfg, "L1");
    }
    std::vector<RunResult> results = sweep(jobs);

    std::printf("%-10s %14s %14s %12s\n", "chunk", "CAIS (us)",
                "SP-NVLS (us)", "speedup");
    std::size_t idx = 0;
    for (std::uint32_t chunk : chunks) {
        const RunResult &cais = results[idx++];
        const RunResult &nvls = results[idx++];
        std::printf("%7u B %14.1f %14.1f %11.2fx\n", chunk,
                    cais.makespanUs(), nvls.makespanUs(),
                    speedupOver(nvls, cais));
    }
    std::printf("\nexpected: times and speedups vary only weakly "
                "with granularity (bandwidth-dominated).\n");
    return 0;
}
