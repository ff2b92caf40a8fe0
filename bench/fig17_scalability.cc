/**
 * @file
 * Figure 17 / Sec. V-C: scalability.
 *
 * (1) Performance: per-GPU compute throughput of CAIS and
 * CoCoNet-NVLS from 8 to 32 GPUs, with the hidden dimension scaled
 * proportionally (the paper keeps per-GPU work constant); normalized
 * to 8-GPU CAIS. The paper reports <5% drop at 32 GPUs.
 *
 * (2) Hardware cost: the required merge-table footprint stays bounded
 * by a single GPU's outstanding-request window, independent of GPU
 * count (40 KB/port, 1280 KB system-wide in the paper).
 *
 * (3) Multi-tier scalability: the same per-GPU-throughput experiment
 * from 8 to 72 GPUs across fabric presets (flat dgx-h100,
 * rail-optimized, NVL72-class), with hierarchical in-switch merging
 * on the tiered shapes. Emits BENCH_fig17_multitier.json
 * (json_out= overrides the path, max_gpus= caps the sweep).
 */

#include <cstdio>

#include "analysis/area_model.hh"
#include "bench_common.hh"
#include "common/json.hh"
#include "workload/transformer.hh"

using namespace cais;
using namespace cais::bench;

int
main(int argc, char **argv)
{
    BenchArgs a = BenchArgs::parse(argc, argv, 1.0, 0.125);
    banner("Fig. 17: scalability with increasing GPU count", a);

    LlmConfig base = a.model(llama7B());

    struct Row
    {
        int gpus;
        double caisTput = 0;
        double coconetTput = 0;
        std::uint64_t peakTable = 0;
    };
    std::vector<Row> rows;

    // Queue the (GPU count) x (CAIS, CoCoNet-NVLS) grid.
    std::vector<SweepJob> jobs;
    std::vector<double> flopsPerGpu;
    for (int gpus : {8, 16, 32}) {
        RunConfig cfg = a.runConfig();
        cfg.numGpus = gpus;
        cfg.unboundedMergeTable = true;

        // Scale the hidden dimension with the GPU count so per-GPU
        // compute stays constant (Sec. V-C.1).
        LlmConfig m = base;
        m.hidden = base.hidden * gpus / 8;
        m.ffnHidden = base.ffnHidden * gpus / 8;

        OpGraph g = buildSubLayer(m, SubLayerId::L1);

        // Per-GPU compute throughput = per-GPU FLOPs / time (the
        // hidden-dim scaling grows per-GPU FLOPs with G).
        double flops_per_gpu = 0.0;
        for (const OpNode &n : g.ops())
            flops_per_gpu += n.flops() * n.flopScale;
        flopsPerGpu.push_back(flops_per_gpu / gpus);

        addJob(jobs, strategyByName("CAIS"), g, cfg, "L1");
        addJob(jobs, strategyByName("CoCoNet-NVLS"), g, cfg, "L1");
    }
    std::vector<RunResult> results = sweep(jobs);

    std::size_t idx = 0;
    std::size_t scale = 0;
    for (int gpus : {8, 16, 32}) {
        Row row;
        row.gpus = gpus;
        const RunResult &cais = results[idx++];
        const RunResult &coco = results[idx++];
        row.caisTput = flopsPerGpu[scale] / cais.makespanUs();
        row.coconetTput = flopsPerGpu[scale] / coco.makespanUs();
        row.peakTable = cais.peakMergeBytes;
        rows.push_back(row);
        ++scale;
    }

    double norm = rows[0].caisTput;
    std::printf("%6s %22s %22s %20s\n", "GPUs",
                "CAIS per-GPU tput", "CoCoNet-NVLS tput",
                "peak table/port");
    for (const Row &r : rows) {
        std::printf("%6d %21.1f%% %21.1f%% %17llu KB\n", r.gpus,
                    100.0 * r.caisTput / norm,
                    100.0 * r.coconetTput / norm,
                    static_cast<unsigned long long>(r.peakTable /
                                                    1024));
    }
    std::printf("\npaper: per-GPU throughput drops <5%% from 8 to 32 "
                "GPUs; CAIS stays above\n"
                "       CoCoNet-NVLS throughout; the table bound is "
                "independent of GPU count.\n\n");

    // Hardware-cost bound (Sec. V-C.2).
    RunConfig cfg = a.runConfig();
    std::uint64_t bound = systemMergeTableBound(
        cfg.gpu.maxCaisLoadOutstanding, cfg.gpu.chunkBytes,
        cfg.numSwitches, 8);
    std::printf("analytic system-wide merging bound (one GPU's "
                "outstanding window): %llu KB\n",
                static_cast<unsigned long long>(bound / 1024));
    std::printf("paper: 1280 KB system-wide, constant in GPU "
                "count.\n");

    // (3) Multi-tier sweep: 8 -> 72 GPUs on every preset that scales
    // to the count (withGpus keeps 8 GPUs per group and adds groups).
    const int maxGpus = a.maxGpus > 0 ? a.maxGpus : 72;
    const char *tierPresets[] = {"dgx-h100", "rail-optimized-4node",
                                 "nvl72"};

    struct TierRow
    {
        std::string preset;
        int gpus = 0;
        double caisTput = 0;
        double coconetTput = 0;
        Cycle caisMakespan = 0;
        Cycle coconetMakespan = 0;
        std::uint64_t caisWireBytes = 0;
    };
    std::vector<TierRow> tierRows;
    std::vector<SweepJob> tierJobs;
    std::vector<double> tierFlops;

    for (const char *preset : tierPresets) {
        for (int gpus : {8, 16, 32, 72}) {
            if (gpus > maxGpus)
                continue;
            RunConfig tc = a.runConfig();
            tc.topology = preset;
            tc.numGpus = gpus;
            tc.unboundedMergeTable = true;
            if (!tc.validationError().empty())
                continue; // preset does not scale to this count

            LlmConfig m = base;
            m.hidden = base.hidden * gpus / 8;
            m.ffnHidden = base.ffnHidden * gpus / 8;
            OpGraph g = buildSubLayer(m, SubLayerId::L1);

            double flops_per_gpu = 0.0;
            for (const OpNode &n : g.ops())
                flops_per_gpu += n.flops() * n.flopScale;
            tierFlops.push_back(flops_per_gpu / gpus);

            TierRow row;
            row.preset = preset;
            row.gpus = gpus;
            tierRows.push_back(row);
            addJob(tierJobs, strategyByName("CAIS"), g, tc, "L1");
            addJob(tierJobs, strategyByName("CoCoNet-NVLS"), g, tc,
                   "L1");
        }
    }
    std::vector<RunResult> tierResults = sweep(tierJobs);

    std::printf("\n%22s %6s %18s %18s\n", "preset", "GPUs",
                "CAIS per-GPU tput", "CoCoNet-NVLS tput");
    double tierNorm = 0.0;
    for (std::size_t i = 0; i < tierRows.size(); ++i) {
        TierRow &row = tierRows[i];
        const RunResult &cais = tierResults[2 * i];
        const RunResult &coco = tierResults[2 * i + 1];
        row.caisTput = tierFlops[i] / cais.makespanUs();
        row.coconetTput = tierFlops[i] / coco.makespanUs();
        row.caisMakespan = cais.makespan;
        row.coconetMakespan = coco.makespan;
        row.caisWireBytes = cais.wireBytes;
        if (tierNorm == 0.0)
            tierNorm = row.caisTput;
        std::printf("%22s %6d %17.1f%% %17.1f%%\n",
                    row.preset.c_str(), row.gpus,
                    100.0 * row.caisTput / tierNorm,
                    100.0 * row.coconetTput / tierNorm);
    }
    std::printf("(normalized to 8-GPU %s CAIS; tiered presets merge "
                "hierarchically:\nleaves emit partial reductions, "
                "spines combine)\n",
                tierPresets[0]);

    std::string json_out = a.params.getString(
        "json_out", "BENCH_fig17_multitier.json");
    if (!json_out.empty()) {
        JsonWriter w;
        w.beginObject();
        w.field("schema", "cais-fig17-multitier-v1");
        w.field("workload", "L1");
        w.field("maxGpus", maxGpus);
        w.key("rows").beginArray();
        for (const TierRow &row : tierRows) {
            w.beginObject();
            w.field("preset", row.preset);
            w.field("gpus", row.gpus);
            w.field("caisPerGpuTput", row.caisTput);
            w.field("coconetNvlsPerGpuTput", row.coconetTput);
            w.field("caisMakespan",
                    static_cast<std::uint64_t>(row.caisMakespan));
            w.field("coconetNvlsMakespan",
                    static_cast<std::uint64_t>(row.coconetMakespan));
            w.field("caisWireBytes", row.caisWireBytes);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (std::FILE *f = std::fopen(json_out.c_str(), "w")) {
            std::fputs(w.str().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("wrote %s\n", json_out.c_str());
        } else {
            std::fprintf(stderr, "fig17: cannot write %s\n",
                         json_out.c_str());
        }
    }
    return 0;
}
