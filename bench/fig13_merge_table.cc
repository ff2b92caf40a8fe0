/**
 * @file
 * Figure 13(a): minimal merge-table size required to merge all
 * eligible requests, with and without merging-aware TB coordination
 * (the paper reports an 87% reduction, <40 KB vs up to 250 KB per
 * port at its 128 B request granularity).
 *
 * Figure 13(b): waiting-time (request stagger) ablation — each
 * coordination mechanism step reduces the first-to-last arrival delay
 * (35 us -> <3 us in the paper).
 *
 * Sizes are reported both in our chunk-granularity bytes and as
 * "128 B-entry equivalents" (entries x 128 B) for comparison with the
 * paper's per-port numbers (see EXPERIMENTS.md).
 */

#include "bench_common.hh"
#include "workload/transformer.hh"

using namespace cais;
using namespace cais::bench;

namespace
{

struct Variant
{
    const char *label;
    const char *strategy;
    bool zeroJitter = false;
};

SweepJob
variantJob(const Variant &v, const LlmConfig &m, RunConfig cfg)
{
    cfg.unboundedMergeTable = true; // measure required size
    if (v.zeroJitter)
        cfg.gpu.jitterSigma = 0.0;
    SweepJob j;
    j.spec = strategyByName(v.strategy);
    j.cfg = cfg;
    j.workload = "L1";
    j.graph = [m] { return buildSubLayer(m, SubLayerId::L1); };
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    // The uncoordinated drift regime the paper measures (35 us).
    BenchArgs a = BenchArgs::parse(argc, argv, 0.5, 0.25);
    RunConfig cfg = a.runConfig();
    if (!a.params.has("skew_us"))
        cfg.gpu.maxStartSkew = 35 * cyclesPerUs;
    // Coordination's outstanding-request throttle (Sec. V-C.2).
    cfg.gpu.maxCaisLoadOutstanding =
        static_cast<int>(a.params.getInt("lcap", 96));
    banner("Fig. 13: merge-table sizing & TB-coordination ablation",
           a);

    // Queue (a) and (b) as one grid; both parts run on the pool.
    const Variant steps[] = {
        {"uncoordinated", "CAIS-w/o-Coord", false},
        {"+pre-launch & pre-access sync", "CAIS-Partial", false},
        {"+traffic control (full CAIS)", "CAIS", false},
        {"full CAIS, no scheduling jitter", "CAIS", true},
    };
    LlmConfig m7 = a.model(llama7B());

    std::vector<SweepJob> jobs;
    for (const auto &base : tableOneModels()) {
        LlmConfig m = a.model(base);
        for (const char *variant : {"CAIS", "CAIS-w/o-Coord"})
            jobs.push_back(variantJob({variant, variant}, m, cfg));
    }
    for (const Variant &v : steps)
        jobs.push_back(variantJob(v, m7, cfg));
    std::vector<RunResult> results = sweep(jobs);

    // ---------------- (a) required table size --------------------
    std::printf("(a) minimal required merge-table size per port\n");
    std::printf("%-18s %12s %16s %22s\n", "model", "variant",
                "bytes/port", "128B-entry equiv");
    std::size_t idx = 0;
    for (const auto &base : tableOneModels()) {
        for (const char *variant : {"CAIS", "CAIS-w/o-Coord"}) {
            const RunResult &r = results[idx++];
            std::printf("%-18s %12s %13llu KB %16llu KB\n",
                        base.name.c_str(),
                        std::string(variant) == "CAIS" ? "coord"
                                                       : "no-coord",
                        static_cast<unsigned long long>(
                            r.peakMergeBytes / 1024),
                        static_cast<unsigned long long>(
                            r.peakMergeBytes / cfg.gpu.chunkBytes * 128 /
                            1024));
        }
    }
    std::printf("paper: <40 KB/port with coordination vs up to 250 KB "
                "without (87%% reduction),\n"
                "       insensitive to model size with coordination.\n\n");

    // ---------------- (b) waiting-time ablation -------------------
    std::printf("(b) request stagger (first-to-last arrival delay)\n");
    std::printf("%-34s %14s\n", "configuration", "stagger (us)");
    for (const Variant &v : steps) {
        const RunResult &r = results[idx++];
        std::printf("%-34s %14.2f\n", v.label, r.staggerUs);
    }
    std::printf("paper: 35 us uncoordinated -> <3 us with full "
                "coordination (~10x).\n");
    return 0;
}
