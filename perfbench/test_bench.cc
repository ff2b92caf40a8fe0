/**
 * @file
 * Tests of the benchmark itself: tail-percentile selection, digest
 * mismatch detection, the job sets, span coverage, and a reduced-size
 * run of every workload whose traced and untraced passes must agree
 * exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "bench.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

SimResult
result(std::uint64_t makespan)
{
    SimResult r;
    r.makespan = makespan;
    r.events = 10 * makespan;
    r.boundComposite = makespan / 2;
    return r;
}

} // namespace

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond)
{
    // 2 passes x 132 jobs: p99 leaves 2 above it, p95 leaves 13.
    TailStat t = tailPercentile(oneTo(264), 264);
    EXPECT_EQ(t.percentile, 95.0);
    EXPECT_EQ(t.samples, 264u);
    EXPECT_EQ(t.beyond, 13u);
    EXPECT_EQ(t.value, 251.0);

    // 4 passes x 11 jobs: p90 leaves 4, p75 leaves 11.
    t = tailPercentile(oneTo(44), 44);
    EXPECT_EQ(t.percentile, 75.0);
    EXPECT_EQ(t.beyond, 11u);
    EXPECT_EQ(t.value, 33.0);

    // 1000 samples reach p99 (10 beyond).
    t = tailPercentile(oneTo(1000), 1000);
    EXPECT_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, SelectionCountFixesThePercentile)
{
    // A run that finished an extra pass keeps the percentile chosen for
    // the minimum sample, and reads it from every sample it has.
    TailStat t = tailPercentile(oneTo(55), 44);
    EXPECT_EQ(t.percentile, 75.0);
    EXPECT_EQ(t.samples, 55u);
    EXPECT_EQ(t.beyond, 13u);
    EXPECT_EQ(t.value, 42.0);
}

TEST(TailPercentile, SmallSamplesFallBackToTheMedian)
{
    TailStat t = tailPercentile(oneTo(11), 11);
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.value, 6.0);
    EXPECT_EQ(t.beyond, 5u);
    EXPECT_EQ(tailPercentile({}, 10).samples, 0u);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SimDigest, DetectsAMismatch)
{
    const std::vector<SimResult> a = {result(100), result(200),
                                      result(300)};
    std::vector<SimResult> b = a;
    EXPECT_EQ(simDigest(a), simDigest(b));
    EXPECT_TRUE(mismatches(a, b).empty());

    b[1].mergeRedHits = 1;
    EXPECT_NE(simDigest(a), simDigest(b));
    EXPECT_EQ(mismatches(a, b), std::vector<std::size_t>{1});

    // Reordering jobs changes the digest too.
    std::swap(b[0], b[2]);
    b[1] = a[1];
    EXPECT_NE(simDigest(a), simDigest(b));
    EXPECT_EQ(mismatches(a, b), (std::vector<std::size_t>{0, 2}));

    b.pop_back();
    EXPECT_EQ(mismatches(a, b).back(), 2u);
    EXPECT_EQ(hexDigest(0x2au), "000000000000002a");
}

TEST(Workloads, FullJobSetsAndSeed)
{
    const Workload s = buildWorkload("sublayer8", 7);
    EXPECT_EQ(s.jobs.size(), 132u); // 3 models x L1-L4 x 11 strategies
    EXPECT_EQ(s.graphs.size(), 12u);
    const Workload t = buildWorkload("tier72", 7);
    EXPECT_EQ(t.jobs.size(), 11u);
    EXPECT_EQ(t.jobs.front().cfg.numGpus, 72);
    const Workload g = buildWorkload("static_gates", 7);
    EXPECT_EQ(g.jobs.size(), 330u); // 5 fabrics x 11 x 6
    EXPECT_FALSE(g.executes);
    for (const Workload *w : {&s, &t, &g}) {
        for (const Job &j : w->jobs) {
            EXPECT_EQ(j.cfg.seed, 7u) << j.tag;
            EXPECT_EQ(j.cfg.shards, 1) << j.tag;
        }
    }
    EXPECT_THROW(buildWorkload("nope", 1), std::invalid_argument);
}

TEST(HostSpeed, ProbeSamplesWhenDue)
{
    HostSpeedProbe probe;
    const double s = probe.sample();
    EXPECT_GT(s, 0.05);
    EXPECT_LT(s, 20.0);
    EXPECT_FALSE(probe.due()); // kSampleEvery has not passed

    // A probed pass brackets its jobs with samples.
    const Workload w = buildWorkload("static_gates", 1, true);
    const PassResult p = runPass(w, false, nullptr, 0, &probe);
    EXPECT_GE(p.speeds.size(), 2u);
    EXPECT_EQ(p.speedAt.size(), p.speeds.size());
    EXPECT_GT(p.speed(), 0.0);
    double sum = 0.0;
    for (double t : p.jobSeconds)
        sum += t;
    EXPECT_DOUBLE_EQ(p.wallSeconds, sum);
    EXPECT_EQ(p.scaledJobSeconds().size(), p.jobSeconds.size());
}

TEST(HostSpeed, JobsScaleBySamplesNearThem)
{
    PassResult p;
    p.jobSeconds = {1.0, 1.0, 1.0, 1.0, 1.0};
    EXPECT_EQ(p.scaledJobSeconds(), p.jobSeconds); // no samples
    p.jobMid = {0.5, 1.5, 2.5, 3.5, 20.5};
    p.speeds = {1.0, 0.5, 0.5, 0.25};
    p.speedAt = {0.0, 2.0, 4.0, 10.0};
    // Windows reach kSpeedWindow (2 s) past each end of the job; the
    // last job has no sample in reach and takes the pass mean.
    const std::vector<double> got = p.scaledJobSeconds();
    const double want[] = {0.75, 2.0 / 3.0, 2.0 / 3.0, 0.5, 0.5625};
    ASSERT_EQ(got.size(), std::size(want));
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12) << i;
    EXPECT_DOUBLE_EQ(p.speed(), 0.5625);
}

TEST(SpanCoverage, ComparesTracedLayersWithUntracedJobs)
{
    PassResult plain, traced;
    plain.jobSeconds = {1.0, 3.0};
    traced.jobSeconds = {1.2, 3.2};
    traced.jobLayerSeconds = {1.0, 3.0};
    EXPECT_DOUBLE_EQ(spanCoverage(plain, traced), 1.0);

    // Traced steps that skip half of a job's work show up.
    traced.jobLayerSeconds = {1.0, 1.0};
    EXPECT_DOUBLE_EQ(spanCoverage(plain, traced), 0.5);

    // Layer times take their traced job's speed factor.
    traced.jobMid = {0.6, 2.8};
    traced.speeds = {0.5};
    traced.speedAt = {0.0};
    EXPECT_DOUBLE_EQ(spanCoverage(plain, traced), 0.25);
    EXPECT_EQ(spanCoverage(PassResult{}, traced), 0.0);
}

class SmokeRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SmokeRun, TracedAndUntracedPassesAgree)
{
    const Workload w = buildWorkload(GetParam(), 3, true);
    ASSERT_FALSE(w.jobs.empty());
    for (const Job &j : w.jobs)
        EXPECT_EQ(j.cfg.seed, 3u);

    const PassResult plain = runPass(w, false);
    EXPECT_TRUE(plain.failures.empty())
        << (plain.failures.empty() ? "" : plain.failures.begin()->second);
    std::vector<Span> spans;
    const PassResult traced = runPass(w, true, &spans);
    EXPECT_TRUE(traced.failures.empty())
        << (traced.failures.empty() ? "" : traced.failures.begin()->second);

    EXPECT_TRUE(mismatches(plain.results, traced.results).empty());
    EXPECT_EQ(simDigest(plain.results), simDigest(traced.results));
    EXPECT_GE(speedupDevPct(w, plain.results), 0.0);

    // One job span per job; every layer span lies inside its job's.
    std::vector<const Span *> job_span(w.jobs.size(), nullptr);
    for (const Span &s : spans) {
        if (s.layer != Layer::count)
            continue;
        EXPECT_EQ(job_span[s.job], nullptr);
        job_span[s.job] = &s;
    }
    for (const Span &s : spans) {
        ASSERT_NE(job_span[s.job], nullptr) << s.job;
        EXPECT_LE(s.start, s.end);
        EXPECT_GE(s.start, job_span[s.job]->start);
        EXPECT_LE(s.end, job_span[s.job]->end);
    }
    ASSERT_EQ(traced.jobLayerSeconds.size(), w.jobs.size());

    if (!w.executes) {
        // Untraced static-gate jobs run the traced steps themselves.
        EXPECT_EQ(traced.counts.events, 0u);
        EXPECT_EQ(traced.layerSeconds[static_cast<int>(Layer::run)], 0.0);
        return;
    }
    EXPECT_GT(traced.counts.events, 0u);
    EXPECT_GT(traced.counts.linkPackets, 0u);
    EXPECT_EQ(traced.boundRatios.size(), w.jobs.size());
    for (double r : traced.boundRatios)
        EXPECT_GE(r, 1.0);

    // The traced steps do runGraph's work: their spans account for the
    // untraced jobs' host time. Each job runs untraced and traced back
    // to back, three times, and keeps its fastest of each, as the
    // host's speed drifts.
    PassResult fast_plain, fast_traced;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        double plain_s = 1e30, traced_s = 1e30, layers_s = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            SimResult r;
            Clock::time_point t0 = Clock::now();
            runJob(w, i, r);
            plain_s = std::min(plain_s, seconds(t0, Clock::now()));
            std::vector<Span> job_spans;
            t0 = Clock::now();
            runJob(w, i, r, &job_spans);
            const double took = seconds(t0, Clock::now());
            if (took >= traced_s)
                continue;
            traced_s = took;
            layers_s = 0.0;
            for (const Span &s : job_spans)
                if (s.layer != Layer::count)
                    layers_s += seconds(s.start, s.end);
        }
        fast_plain.jobSeconds.push_back(plain_s);
        fast_traced.jobSeconds.push_back(traced_s);
        fast_traced.jobLayerSeconds.push_back(layers_s);
    }
    const double coverage = spanCoverage(fast_plain, fast_traced);
    EXPECT_GT(coverage, 0.8);
    EXPECT_LT(coverage, 1.25);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun,
                         ::testing::ValuesIn(workloadNames()));
