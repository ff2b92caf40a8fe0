/**
 * @file
 * Causal critical-path profiler tests (DESIGN.md §6g), locking the
 * three contracts:
 *
 *  1. The backward walk is exact: on a hand-built miniature wait-for
 *     graph with a known critical path, analyze() reproduces the
 *     golden attribution and segment list.
 *  2. Zero event-stream perturbation: a profiled run is bit-identical
 *     -- RunResult fields and metrics-report bytes -- to the same run
 *     without a profiler, on the flat shape and on a tiered one.
 *  3. Determinism: the cais-profile-v1 artifact is byte-identical
 *     across repeated runs, and coverage on a real run stays >= 95%
 *     of makespan.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "analysis/causal_profile.hh"
#include "analysis/report.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "noc/topology.hh"
#include "report.hh" // tools/cais_report core
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

namespace
{

using namespace cais;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// --- 1. golden miniature ---------------------------------------------

/**
 * Hand-built chain, forward in time (makespan 100):
 *
 *   [ 0, 10] kernel K   launch            (self-continued to t=0)
 *   [10, 40] link  L    linkSerialization (caused by K at t=10)
 *   [40, 90] tb    T    smCompute         (caused by L at t=40)
 *   [90,100] kernel K   depWait           (caused by T at t=90)
 *
 * plus a decoy edge ending after the makespan that the walk must
 * ignore.
 */
class GoldenProfile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        K = profnode::kernel(0);
        T = profnode::tb(0, 0, 0);
        L = profnode::link(0);
        prof.record(K, WaitClass::launch, 0, 10, K, 0);
        prof.record(L, WaitClass::linkSerialization, 10, 40, K, 10);
        prof.record(T, WaitClass::smCompute, 40, 90, L, 40);
        prof.record(K, WaitClass::depWait, 90, 100, T, 90);
        // Decoy: ends past the walk start, must never be selected.
        prof.record(K, WaitClass::hbm, 95, 120, T, 95);
        prof.finalize();
    }

    CausalProfiler prof;
    ProfNode K = 0, T = 0, L = 0;
};

TEST_F(GoldenProfile, WalkReproducesKnownAttribution)
{
    Attribution a = prof.analyze(K, 100);

    EXPECT_EQ(a.makespan, 100u);
    EXPECT_EQ(a.attributed(), 100u);
    EXPECT_DOUBLE_EQ(a.coverage(), 1.0);
    auto cycles = [&](WaitClass c) {
        return a.byClass[static_cast<std::size_t>(c)];
    };
    EXPECT_EQ(cycles(WaitClass::launch), 10u);
    EXPECT_EQ(cycles(WaitClass::linkSerialization), 30u);
    EXPECT_EQ(cycles(WaitClass::smCompute), 50u);
    EXPECT_EQ(cycles(WaitClass::depWait), 10u);
    EXPECT_EQ(cycles(WaitClass::hbm), 0u); // decoy ignored
    EXPECT_EQ(cycles(WaitClass::unattributed), 0u);

    // The path comes back in forward time order, gap-free.
    ASSERT_EQ(a.path.size(), 4u);
    EXPECT_EQ(a.path[0].node, K);
    EXPECT_EQ(a.path[0].cls, WaitClass::launch);
    EXPECT_EQ(a.path[0].t0, 0u);
    EXPECT_EQ(a.path[0].t1, 10u);
    EXPECT_EQ(a.path[1].node, L);
    EXPECT_EQ(a.path[1].cls, WaitClass::linkSerialization);
    EXPECT_EQ(a.path[2].node, T);
    EXPECT_EQ(a.path[2].cls, WaitClass::smCompute);
    EXPECT_EQ(a.path[3].node, K);
    EXPECT_EQ(a.path[3].cls, WaitClass::depWait);
    for (std::size_t i = 1; i < a.path.size(); ++i)
        EXPECT_EQ(a.path[i].t0, a.path[i - 1].t1);
}

TEST_F(GoldenProfile, UnreachedCyclesStayUnattributed)
{
    // Walking from a node with no incoming edges explains nothing;
    // the remainder lands in 'unattributed' and still sums to the
    // makespan (the invariant the coverage gate relies on).
    Attribution a = prof.analyze(profnode::hbm(3), 100);
    EXPECT_EQ(a.attributed(), 0u);
    EXPECT_EQ(a.byClass[static_cast<std::size_t>(
                  WaitClass::unattributed)],
              100u);
    EXPECT_DOUBLE_EQ(a.coverage(), 0.0);
}

TEST_F(GoldenProfile, JsonArtifactIsWellFormed)
{
    Attribution a = prof.analyze(K, 100);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(
        jsonParse(prof.toJson(a, "CAIS", "mini"), doc, error))
        << error;
    EXPECT_EQ(doc.getString("schema"), "cais-profile-v1");
    EXPECT_EQ(doc.getString("strategy"), "CAIS");
    EXPECT_EQ(doc.getString("workload"), "mini");
    EXPECT_DOUBLE_EQ(doc.getNumber("makespan"), 100.0);
    EXPECT_DOUBLE_EQ(doc.getNumber("coverage"), 1.0);
    const JsonValue *attr = doc.find("attribution");
    ASSERT_NE(attr, nullptr);
    EXPECT_EQ(attr->elems.size(),
              static_cast<std::size_t>(WaitClass::numClasses));
    const JsonValue *path = doc.find("criticalPath");
    ASSERT_NE(path, nullptr);
    EXPECT_EQ(path->elems.size(), 4u);
    EXPECT_EQ(path->elems[1].getString("class"),
              "linkSerialization");
}

TEST(CausalProfile, ScopedCauseProvidesAmbientProvenance)
{
    CausalProfiler prof;
    ProfNode A = profnode::hub(0), B = profnode::hub(1);
    {
        CausalProfiler::ScopedCause sc(&prof, A, 7);
        prof.record(B, WaitClass::hubInjection, 7, 20);
    }
    // Outside any scope, a cause-less record self-continues.
    prof.record(A, WaitClass::smCompute, 0, 7);
    prof.finalize();

    Attribution a = prof.analyze(B, 20);
    EXPECT_EQ(a.attributed(), 20u);
    ASSERT_EQ(a.path.size(), 2u);
    EXPECT_EQ(a.path[0].node, A);
    EXPECT_EQ(a.path[0].cls, WaitClass::smCompute);
    EXPECT_EQ(a.path[1].node, B);
    EXPECT_EQ(a.path[1].cls, WaitClass::hubInjection);
}

TEST_F(GoldenProfile, ReportToolRendersProfileViews)
{
    Attribution a = prof.analyze(K, 100);
    std::string text = prof.toJson(a, "CAIS", "mini");

    report::Report rep;
    std::string error;
    ASSERT_TRUE(report::load(text, "p.json", rep, error)) << error;
    EXPECT_TRUE(rep.isProfile());

    std::string attr = report::attribution(rep);
    EXPECT_NE(attr.find("smCompute"), std::string::npos);
    EXPECT_NE(attr.find("coverage: 100.0%"), std::string::npos);

    std::string path = report::criticalPath(rep);
    EXPECT_NE(path.find("4 segments"), std::string::npos);
    EXPECT_NE(path.find("linkSerialization"), std::string::npos);

    // Self-diff: every class delta is +0.00%.
    std::string d = report::attributionDiff(rep, rep);
    EXPECT_NE(d.find("+0.00%"), std::string::npos);
    EXPECT_EQ(d.find("n/a"), std::string::npos);
    std::string pd = report::criticalPathDiff(rep, rep);
    EXPECT_NE(pd.find("smCompute"), std::string::npos);

    // A metrics report is rejected by the profile views with a
    // pointer at the right flag, not rendered as garbage.
    RunConfig cfg;
    RunResult r;
    MetricRegistry reg;
    report::Report metrics;
    ASSERT_TRUE(report::load(
        renderMetricsReport(cfg, r, reg.snapshot()), "m.json",
        metrics, error));
    EXPECT_FALSE(metrics.isProfile());
    EXPECT_NE(report::attribution(metrics).find("cais-profile-v1"),
              std::string::npos);
}

// --- 2/3. end-to-end contracts ---------------------------------------

RunConfig
flatConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    cfg.unboundedMergeTable = true;
    cfg.gpu.maxStartSkew = 35 * cyclesPerUs;
    cfg.gpu.jitterSigma = 0.05;
    return cfg;
}

RunConfig
tieredConfig()
{
    RunConfig cfg;
    cfg.topology = "nvl72";
    cfg.numGpus = 16; // 2 groups keeps the test fast
    return cfg;
}

RunResult
runProfiled(RunConfig cfg)
{
    OpGraph g =
        buildSubLayer(llama7B().scaled(0.25, 0.125), SubLayerId::L1);
    return runGraph(strategyByName("CAIS"), g, cfg, "L1");
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    EXPECT_EQ(a.avgUtil, b.avgUtil);
    EXPECT_EQ(a.gpuUtil, b.gpuUtil);
    EXPECT_EQ(a.staggerUs, b.staggerUs);
    EXPECT_EQ(a.peakMergeBytes, b.peakMergeBytes);
    EXPECT_EQ(a.sessionsClosed, b.sessionsClosed);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].start, b.kernels[i].start);
        EXPECT_EQ(a.kernels[i].finish, b.kernels[i].finish);
    }
    ASSERT_EQ(a.utilSeries.size(), b.utilSeries.size());
    for (std::size_t i = 0; i < a.utilSeries.size(); ++i)
        EXPECT_EQ(a.utilSeries[i], b.utilSeries[i]);
}

TEST(CausalProfile, ProfiledFlatRunIsBitIdentical)
{
    RunConfig plain = flatConfig();
    plain.metricsPath = "/tmp/cais_test_prof_off_m.json";
    RunConfig profiled = flatConfig();
    profiled.metricsPath = "/tmp/cais_test_prof_on_m.json";
    profiled.profilePath = "/tmp/cais_test_prof_on_p.json";

    RunResult base = runProfiled(plain);
    RunResult withProf = runProfiled(profiled);
    expectBitIdentical(base, withProf);

    // The whole report must match to the byte: the profiler may not
    // perturb a single counter anywhere in the machine.
    EXPECT_EQ(slurp(plain.metricsPath), slurp(profiled.metricsPath));

    std::remove(plain.metricsPath.c_str());
    std::remove(profiled.metricsPath.c_str());
    std::remove(profiled.profilePath.c_str());
}

TEST(CausalProfile, ProfiledShardedTieredRunIsBitIdentical)
{
    RunConfig plain = tieredConfig();
    RunConfig profiled = tieredConfig();
    profiled.profilePath = "/tmp/cais_test_prof_sh_p.json";

    expectBitIdentical(runProfiled(plain), runProfiled(profiled));
    std::remove(profiled.profilePath.c_str());
}

TEST(CausalProfile, AttributionIsByteIdenticalAcrossRuns)
{
    RunConfig first = tieredConfig();
    first.profilePath = "/tmp/cais_test_prof_r1.json";
    RunConfig second = tieredConfig();
    second.profilePath = "/tmp/cais_test_prof_r2.json";

    runProfiled(first);
    runProfiled(second);
    EXPECT_EQ(slurp(first.profilePath), slurp(second.profilePath));

    std::remove(first.profilePath.c_str());
    std::remove(second.profilePath.c_str());
}

/** FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(CausalProfile, TieredProfilesMatchGoldenDigest)
{
    // Locks the whole cais-profile-v1 artifact of two tiered CAIS
    // runs, whose critical paths cross leaf<->spine links (the flat
    // fig12 profiles never touch one). Where the profiler keeps its
    // per-packet provenance may change; no profile byte may.
    struct Case
    {
        const char *preset;
        int gpus;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"rail-optimized-2node", 16, 0x6a30aa7891340353ull},
        {"nvl72", 16, 0x96dff4d1df58c721ull},
    };
    for (const Case &c : cases) {
        RunConfig cfg;
        cfg.topology = c.preset;
        cfg.numGpus = c.gpus;
        cfg.profilePath = "/tmp/cais_test_prof_digest.json";
        runProfiled(cfg);
        std::uint64_t digest = fnv1a(slurp(cfg.profilePath));
        EXPECT_EQ(digest, c.digest) << c.preset << " profile digest is 0x"
                                    << std::hex << digest;
        std::remove(cfg.profilePath.c_str());
    }
}

TEST(CausalProfile, RealRunCoversAtLeast95PercentOfMakespan)
{
    RunConfig cfg = flatConfig();
    cfg.profilePath = "/tmp/cais_test_prof_cov.json";
    RunResult r = runProfiled(cfg);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(slurp(cfg.profilePath), doc, error))
        << error;
    EXPECT_EQ(doc.getString("schema"), "cais-profile-v1");
    EXPECT_DOUBLE_EQ(doc.getNumber("makespan"),
                     static_cast<double>(r.makespan));
    EXPECT_GE(doc.getNumber("coverage"), 0.95);

    // attribution[] (with the unattributed remainder) accounts for
    // every makespan cycle exactly once.
    const JsonValue *attr = doc.find("attribution");
    ASSERT_NE(attr, nullptr);
    double sum = 0.0, sum_attr = 0.0;
    for (const JsonValue &e : attr->elems) {
        sum += e.getNumber("cycles");
        if (e.getString("class") != "unattributed")
            sum_attr += e.getNumber("cycles");
    }
    EXPECT_DOUBLE_EQ(sum, doc.getNumber("makespan"));
    EXPECT_DOUBLE_EQ(sum_attr, doc.getNumber("attributedCycles"));

    std::remove(cfg.profilePath.c_str());
}

} // namespace
