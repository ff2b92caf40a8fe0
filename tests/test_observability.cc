/**
 * @file
 * End-to-end tests of the observability layer's two contracts
 * (DESIGN.md §6d):
 *
 *  1. Instrumentation is determinism-neutral: a run with deep tracing
 *     and the metrics report enabled is bit-identical -- makespan,
 *     eventsExecuted, every counter -- to the same run with both off.
 *  2. The artifacts are well-formed: the metrics report parses, is
 *     schema-versioned and carries per-switch merge/sync metrics; the
 *     trace parses and contains the switch-side lanes.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/report.hh"
#include "common/json.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

namespace
{

using namespace cais;

/** The Fig. 13-style configuration: every random stream exercised. */
RunConfig
obsConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.unboundedMergeTable = true;
    cfg.gpu.maxStartSkew = 35 * cyclesPerUs;
    cfg.gpu.jitterSigma = 0.05;
    return cfg;
}

RunResult
runObs(const RunConfig &cfg)
{
    OpGraph g =
        buildSubLayer(llama7B().scaled(0.25, 0.25), SubLayerId::L1);
    return runGraph(strategyByName("CAIS"), g, cfg, "L1");
}

/** Same contract as the Fig. 13 determinism suite: exact equality on
 *  every field, doubles included. */
void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.peakMergeBytes, b.peakMergeBytes);
    EXPECT_EQ(a.staggerSamples, b.staggerSamples);
    EXPECT_EQ(a.mergeLoadReqs, b.mergeLoadReqs);
    EXPECT_EQ(a.mergeRedReqs, b.mergeRedReqs);
    EXPECT_EQ(a.mergeLoadHits, b.mergeLoadHits);
    EXPECT_EQ(a.mergeRedHits, b.mergeRedHits);
    EXPECT_EQ(a.mergeFetches, b.mergeFetches);
    EXPECT_EQ(a.lruEvictions, b.lruEvictions);
    EXPECT_EQ(a.timeoutEvictions, b.timeoutEvictions);
    EXPECT_EQ(a.throttleHints, b.throttleHints);
    EXPECT_EQ(a.sessionsClosed, b.sessionsClosed);
    EXPECT_EQ(a.commKernelCycles, b.commKernelCycles);
    EXPECT_EQ(a.computeKernelCycles, b.computeKernelCycles);
    EXPECT_EQ(a.staggerUs, b.staggerUs);
    EXPECT_EQ(a.avgUtil, b.avgUtil);
    EXPECT_EQ(a.gpuUtil, b.gpuUtil);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].start, b.kernels[i].start);
        EXPECT_EQ(a.kernels[i].finish, b.kernels[i].finish);
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(Observability, TracingAndMetricsArePerturbationFree)
{
    RunConfig plain = obsConfig();
    RunResult base = runObs(plain);

    RunConfig instrumented = obsConfig();
    instrumented.tracePath = "/tmp/cais_test_obs_trace.json";
    instrumented.metricsPath = "/tmp/cais_test_obs_metrics.json";
    instrumented.traceSampleCycles = 500; // dense sampling on purpose
    std::remove(instrumented.tracePath.c_str());
    std::remove(instrumented.metricsPath.c_str());
    RunResult traced = runObs(instrumented);

    expectBitIdentical(base, traced);

    std::remove(instrumented.tracePath.c_str());
    std::remove(instrumented.metricsPath.c_str());
}

TEST(Observability, MetricsReportCarriesSwitchSideMetrics)
{
    RunConfig cfg = obsConfig();
    cfg.metricsPath = "/tmp/cais_test_obs_report.json";
    std::remove(cfg.metricsPath.c_str());
    RunResult r = runObs(cfg);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(slurp(cfg.metricsPath), doc, error))
        << error;
    EXPECT_EQ(doc.getString("schema"), metricsSchemaVersion);

    // The result echo matches the in-process RunResult exactly.
    const JsonValue *result = doc.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_DOUBLE_EQ(result->getNumber("makespan"),
                     static_cast<double>(r.makespan));
    EXPECT_DOUBLE_EQ(result->getNumber("eventsExecuted"),
                     static_cast<double>(r.eventsExecuted));

    // Per-switch-port merge, eviction and sync metrics are present.
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("switch0.merge.loadReqs"), nullptr);
    EXPECT_NE(metrics->find("switch0.merge.port0.peakBytes"), nullptr);
    EXPECT_NE(metrics->find("switch0.merge.evictions.lru"), nullptr);
    EXPECT_NE(metrics->find("switch0.sync.requests"), nullptr);
    EXPECT_NE(metrics->find("switch1.chip.forwarded"), nullptr);
    EXPECT_NE(metrics->find("gpu0.hbm.bytes"), nullptr);
    EXPECT_NE(metrics->find("eventq.executed"), nullptr);

    // And the kernel timeline round-trips.
    const JsonValue *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    EXPECT_EQ(kernels->elems.size(), r.kernels.size());

    std::remove(cfg.metricsPath.c_str());
}

TEST(Observability, DeepTraceHasSwitchLanesAndCounters)
{
    RunConfig cfg = obsConfig();
    cfg.tracePath = "/tmp/cais_test_obs_deep_trace.json";
    std::remove(cfg.tracePath.c_str());
    runObs(cfg);

    std::string text = slurp(cfg.tracePath);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(text, doc, error)) << error;
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    EXPECT_FALSE(doc.find("traceEvents")->elems.empty());

    // Switch-side lanes: merge-session spans, the group-sync lane,
    // the per-port occupancy counter track, per-VC queue depth and
    // the HBM bandwidth track.
    EXPECT_NE(text.find("\"cat\":\"merge-load\""), std::string::npos);
    EXPECT_NE(text.find("group sync"), std::string::npos);
    EXPECT_NE(text.find("table B"), std::string::npos);
    EXPECT_NE(text.find("downlink depth"), std::string::npos);
    EXPECT_NE(text.find("HBM B/cyc"), std::string::npos);
    EXPECT_NE(text.find("link util %"), std::string::npos);

    std::remove(cfg.tracePath.c_str());
}

TEST(Observability, SamplePeriodDoesNotChangeResults)
{
    // Different sampling periods change only how many counter points
    // land in the trace, never the simulation itself.
    RunConfig coarse = obsConfig();
    coarse.tracePath = "/tmp/cais_test_obs_coarse.json";
    coarse.traceSampleCycles = 10000;
    RunConfig fine = obsConfig();
    fine.tracePath = "/tmp/cais_test_obs_fine.json";
    fine.traceSampleCycles = 100;

    RunResult a = runObs(coarse);
    RunResult b = runObs(fine);
    expectBitIdentical(a, b);

    std::remove(coarse.tracePath.c_str());
    std::remove(fine.tracePath.c_str());
}

/*
 * The same contract on a tiered preset, shrunk to 16 GPUs (two
 * groups), under the suite name these checks carried when they also
 * compared a sharded run: the periodic sampler must not perturb the
 * run, and the trace and metrics artifacts must repeat to the byte.
 */

RunConfig
tieredConfig(const char *preset)
{
    RunConfig cfg;
    cfg.topology = preset;
    cfg.numGpus = 16;
    return cfg;
}

RunResult
runTiered(const RunConfig &cfg)
{
    OpGraph g =
        buildSubLayer(llama7B().scaled(0.25, 0.125), SubLayerId::L1);
    return runGraph(strategyByName("CAIS"), g, cfg, "L1");
}

TEST(ShardedDeterminism, ObserverOnAndOffBitIdentical)
{
    RunConfig cfg = tieredConfig("nvl72");
    cfg.traceSampleCycles = 500;

    RunConfig first = cfg;
    first.tracePath = "/tmp/cais_test_obs_tier_trace1.json";
    RunConfig second = cfg;
    second.tracePath = "/tmp/cais_test_obs_tier_trace2.json";
    RunResult traced = runTiered(first);
    RunResult tracedAgain = runTiered(second);
    RunResult plain = runTiered(cfg);

    expectBitIdentical(traced, tracedAgain);
    expectBitIdentical(traced, plain);

    std::string firstJson = slurp(first.tracePath);
    ASSERT_FALSE(firstJson.empty());
    EXPECT_EQ(firstJson, slurp(second.tracePath));
    std::remove(first.tracePath.c_str());
    std::remove(second.tracePath.c_str());
}

TEST(ShardedDeterminism, MetricsReportBytesIdentical)
{
    RunConfig first = tieredConfig("rail-optimized-4node");
    first.metricsPath = "/tmp/cais_test_obs_tier_metrics1.json";
    RunConfig second = first;
    second.metricsPath = "/tmp/cais_test_obs_tier_metrics2.json";
    runTiered(first);
    runTiered(second);

    std::string firstJson = slurp(first.metricsPath);
    ASSERT_FALSE(firstJson.empty());
    EXPECT_EQ(firstJson, slurp(second.metricsPath));
    std::remove(first.metricsPath.c_str());
    std::remove(second.metricsPath.c_str());
}

} // namespace
