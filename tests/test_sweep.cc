/**
 * @file
 * Tests for the deterministic parallel sweep runner: bit-identical
 * results between serial and threaded execution, submission-order
 * results, exception propagation, worker-count resolution, and
 * packet-id isolation between concurrently live Systems.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "runtime/sweep.hh"
#include "runtime/system.hh"
#include "workload/transformer.hh"
#include "run_result_equality.hh"

using namespace cais;
using cais::test::expectIdentical;

namespace
{

/** Small 4-GPU/2-switch configuration shared by the sweep tests. */
RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    return cfg;
}

/** Strategy x sub-layer grid over a scaled-down model. */
std::vector<SweepJob>
smallGrid()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    RunConfig cfg = smallConfig();

    std::vector<SweepJob> jobs;
    for (const char *name : {"CAIS", "SP-NVLS", "TP-NVLS"}) {
        for (SubLayerId sub : {SubLayerId::L1, SubLayerId::L2}) {
            jobs.push_back(makeSweepJob(strategyByName(name),
                                        buildSubLayer(m, sub), cfg,
                                        subLayerName(sub)));
        }
    }
    return jobs;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    std::vector<SweepJob> jobs = smallGrid();
    std::vector<RunResult> serial = SweepRunner(1).run(jobs);
    std::vector<RunResult> parallel = SweepRunner(4).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(Sweep, ResultsKeepSubmissionOrder)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunConfig cfg = smallConfig();

    std::vector<SweepJob> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back(makeSweepJob(strategyByName("CAIS"), g, cfg,
                                    "job-" + std::to_string(i)));
    }
    std::vector<RunResult> results = SweepRunner(4).run(jobs);
    ASSERT_EQ(results.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)].workload,
                  "job-" + std::to_string(i));
}

TEST(Sweep, FirstSubmittedExceptionPropagates)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunConfig cfg = smallConfig();

    std::vector<SweepJob> jobs;
    jobs.push_back(makeSweepJob(strategyByName("CAIS"), g, cfg, "ok"));
    for (int i = 1; i <= 2; ++i) {
        SweepJob bad;
        bad.spec = strategyByName("CAIS");
        bad.graph = [i]() -> OpGraph {
            throw std::runtime_error("boom-" + std::to_string(i));
        };
        bad.cfg = cfg;
        bad.workload = "bad";
        jobs.push_back(std::move(bad));
    }

    try {
        SweepRunner(4).run(jobs);
        FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error &e) {
        // Earliest failing job in submission order wins, regardless
        // of which worker hit its exception first.
        EXPECT_STREQ(e.what(), "boom-1");
    }
}

TEST(Sweep, DefaultThreadsHonorsCaisJobs)
{
    ::setenv("CAIS_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultThreads(), 3);
    ::setenv("CAIS_JOBS", "0", 1); // invalid -> hardware fallback
    EXPECT_GE(SweepRunner::defaultThreads(), 1);
    ::unsetenv("CAIS_JOBS");
    EXPECT_GE(SweepRunner::defaultThreads(), 1);
    EXPECT_EQ(SweepRunner(2).threads(), 2);
}

TEST(Sweep, LivePacketIdsAreIsolatedPerSystem)
{
    // Two Systems alive at once draw from independent, fabric-owned
    // packet-id allocators that restart from zero per System.
    SystemConfig sc;
    sc.fabric.numGpus = 4;
    sc.fabric.numSwitches = 2;
    System s1(sc);
    System s2(sc);

    PacketIdAllocator &a = s1.fabric().packetIds();
    PacketIdAllocator &b = s2.fabric().packetIds();
    EXPECT_EQ(a.issued(), 0u);
    EXPECT_EQ(b.issued(), 0u);
    EXPECT_EQ(a.next(), 1u);
    EXPECT_EQ(a.next(), 2u);
    EXPECT_EQ(b.next(), 1u); // unaffected by s1's allocations
    EXPECT_EQ(a.next(), 3u); // unaffected by s2's allocations
}
