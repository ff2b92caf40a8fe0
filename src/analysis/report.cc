#include "analysis/report.hh"

#include <cstdio>

#include "common/json.hh"

namespace cais
{

std::string
renderMetricsReport(const RunConfig &cfg, const RunResult &r,
                    const MetricSnapshot &snap)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", metricsSchemaVersion);
    w.field("strategy", r.strategy);
    w.field("workload", r.workload);

    w.key("config").beginObject()
        .field("numGpus", cfg.numGpus)
        .field("numSwitches", cfg.numSwitches)
        .field("seed", cfg.seed)
        .field("perGpuBwPerDir", cfg.perGpuBwPerDir)
        .field("linkLatency", static_cast<std::uint64_t>(
                                  cfg.linkLatency))
        .field("chunkBytes", static_cast<std::uint64_t>(
                                 cfg.gpu.chunkBytes))
        .field("mergeTableEntriesPerPort", cfg.mergeTableEntriesPerPort)
        .field("mergeTableBytesPerPort", cfg.mergeTableBytesPerPort)
        .field("unboundedMergeTable", cfg.unboundedMergeTable)
        .field("mergeTimeout", static_cast<std::uint64_t>(
                                   cfg.mergeTimeout))
        .field("utilBinWidth", static_cast<std::uint64_t>(
                                   cfg.utilBinWidth))
        .field("traceSampleCycles", static_cast<std::uint64_t>(
                                        cfg.traceSampleCycles))
        .endObject();

    w.key("result").beginObject()
        .field("makespan", static_cast<std::uint64_t>(r.makespan))
        .field("makespanUs", r.makespanUs())
        .field("eventsExecuted", r.eventsExecuted)
        .field("avgUtil", r.avgUtil)
        .field("upUtil", r.upUtil)
        .field("dnUtil", r.dnUtil)
        .field("gpuUtil", r.gpuUtil)
        .field("wireBytes", r.wireBytes)
        .field("staggerUs", r.staggerUs)
        .field("staggerSamples", r.staggerSamples)
        .field("peakMergeBytes", r.peakMergeBytes)
        .field("mergeLoadReqs", r.mergeLoadReqs)
        .field("mergeRedReqs", r.mergeRedReqs)
        .field("mergeLoadHits", r.mergeLoadHits)
        .field("mergeRedHits", r.mergeRedHits)
        .field("mergeFetches", r.mergeFetches)
        .field("lruEvictions", r.lruEvictions)
        .field("timeoutEvictions", r.timeoutEvictions)
        .field("throttleHints", r.throttleHints)
        .field("sessionsClosed", r.sessionsClosed)
        .field("commKernelCycles", static_cast<std::uint64_t>(
                                       r.commKernelCycles))
        .field("computeKernelCycles", static_cast<std::uint64_t>(
                                          r.computeKernelCycles))
        .endObject();

    // Static analytical bounds (analysis/bound_model.hh), harvested
    // alongside the simulated result so report tooling can render
    // sim-vs-bound ratios from the one document.
    w.key("bound").beginObject()
        .field("composite", static_cast<std::uint64_t>(
                                r.boundComposite))
        .field("smCompute", static_cast<std::uint64_t>(
                                r.boundCompute))
        .field("hbm", static_cast<std::uint64_t>(r.boundHbm))
        .field("linkSerialization", static_cast<std::uint64_t>(
                                        r.boundLink))
        .field("mergeService", static_cast<std::uint64_t>(
                                   r.boundMerge))
        .field("criticalPath", static_cast<std::uint64_t>(
                                   r.boundCritPath))
        .field("binding", r.boundBinding)
        .endObject();

    w.key("metrics");
    snap.writeJson(w);

    w.key("kernels").beginArray();
    for (const KernelTiming &k : r.kernels) {
        w.beginObject()
            .field("name", k.name)
            .field("start", static_cast<std::uint64_t>(k.start))
            .field("finish", static_cast<std::uint64_t>(k.finish))
            .field("comm", k.comm)
            .endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

bool
writeMetricsReport(const std::string &path, const RunConfig &cfg,
                   const RunResult &r, const MetricSnapshot &snap)
{
    std::string doc = renderMetricsReport(cfg, r, snap);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = std::fputc('\n', f) != EOF;
    std::fclose(f);
    return ok && n == doc.size();
}

} // namespace cais
