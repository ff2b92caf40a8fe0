/**
 * @file
 * Figure 14: performance sensitivity to the merge-table size
 * (LLaMA-7B). With merging-aware TB coordination CAIS holds its
 * performance down to small tables; the uncoordinated variant
 * degrades rapidly as sessions thrash.
 */

#include "bench_common.hh"
#include "workload/transformer.hh"

using namespace cais;
using namespace cais::bench;

int
main(int argc, char **argv)
{
    BenchArgs a = BenchArgs::parse(argc, argv, 0.5, 0.25);
    RunConfig base_cfg = a.runConfig();
    if (!a.params.has("skew_us"))
        base_cfg.gpu.maxStartSkew = 35 * cyclesPerUs;
    base_cfg.gpu.maxCaisLoadOutstanding =
        static_cast<int>(a.params.getInt("lcap", 96));
    banner("Fig. 14: performance vs merge-table size (LLaMA-7B)", a);

    LlmConfig m = a.model(llama7B());
    OpGraph g = buildSubLayer(m, SubLayerId::L1);

    const int entriesSweep[] = {16, 32, 48, 64, 96, 128, 192, 320};

    // Job grid: the unbounded reference pair, then the entry sweep
    // (CAIS and the uncoordinated variant at each size).
    std::vector<SweepJob> jobs;
    RunConfig ref_cfg = base_cfg;
    ref_cfg.unboundedMergeTable = true;
    for (const char *v : {"CAIS", "CAIS-w/o-Coord"})
        addJob(jobs, strategyByName(v), g, ref_cfg, "L1");
    for (int entries : entriesSweep) {
        RunConfig cfg = base_cfg;
        cfg.mergeTableEntriesPerPort = entries;
        for (const char *v : {"CAIS", "CAIS-w/o-Coord"})
            addJob(jobs, strategyByName(v), g, cfg, "L1");
    }
    std::vector<RunResult> results = sweep(jobs);

    double cais_ref = results[0].makespanUs();
    double noco_ref = results[1].makespanUs();

    std::printf("%-12s %18s %22s\n", "entries/port",
                "CAIS (rel. perf)", "w/o coord (rel. perf)");
    std::size_t idx = 2;
    for (int entries : entriesSweep) {
        double cais = results[idx++].makespanUs();
        double noco = results[idx++].makespanUs();
        std::printf("%-12d %17.1f%% %21.1f%%\n", entries,
                    100.0 * cais_ref / cais, 100.0 * noco_ref / noco);
    }
    std::printf("\n(100%% = same performance as an unbounded table; "
                "entries are %u B chunks,\n one paper-entry = 128 B)\n",
                base_cfg.gpu.chunkBytes);
    std::printf("paper: CAIS maintains performance at small tables; "
                "the uncoordinated version degrades rapidly.\n");
    return 0;
}
