/**
 * @file
 * Determinism regression for the event core. The bucketed scheduler
 * must implement the (when, seq) total order exactly: on a schedule
 * shaped like the fabric's (per-hop deliver/drain-wake/credit-return
 * chains, same-cycle follow-ups, far-future timeouts) it must execute
 * every event at the same cycle and in the same order as a sorted
 * reference model. End to end, repeated runs must produce
 * bit-identical results — makespan, utilizations, merge-unit
 * counters, per-kernel timings, and the JSON of a snapshot of every
 * registered metric.
 */

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "runtime/execution_strategy.hh"
#include "runtime/simulation_driver.hh"
#include "runtime/system.hh"
#include "workload/transformer.hh"
#include "run_result_equality.hh"
#include "sorted_event_model.hh"

using namespace cais;
using cais::test::expectIdentical;

namespace
{

RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    return cfg;
}

LlmConfig
smallModel()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    return m;
}

/** End-to-end run, harvested through runGraph. */
RunResult
runSmall(const char *strategy, SubLayerId sub)
{
    return runGraph(strategyByName(strategy),
                    buildSubLayer(smallModel(), sub), smallConfig(),
                    subLayerName(sub));
}

/**
 * End-to-end run with a live System: the snapshot JSON of every
 * metric System::registerMetrics registers, then the makespan.
 */
std::string
snapshotSmall()
{
    StrategySpec spec = strategyByName("CAIS");
    OpGraph graph = buildSubLayer(smallModel(), SubLayerId::L2);
    RunConfig cfg = smallConfig();

    System sys(cfg.toSystemConfig(spec));
    MetricRegistry reg;
    sys.registerMetrics(reg);
    GraphLowering lowering(sys, graph, spec.opts);
    lowering.lower();
    sys.run();

    JsonWriter w;
    reg.snapshot().writeJson(w);
    return w.str() + "\nmakespan " + std::to_string(sys.makespan());
}

/** One executed event: who ran, and at which cycle. */
using Trace = std::vector<std::pair<int, Cycle>>;

/**
 * Drive @p q through a fabric-shaped schedule: kLinks links each
 * push kPackets packets. Issuing one schedules its delivery
 * (serialization + 250-cycle latency) and a drain wake at the end of
 * serialization; a delivery schedules a same-cycle sink follow-up and
 * a credit return one latency later; every 16th packet also arms a
 * far-future timeout (merge-table sweep) beyond the near window.
 */
template <class Queue>
Trace
fabricShaped(unsigned seed)
{
    constexpr int kLinks = 24;
    constexpr int kPackets = 96;
    constexpr Cycle kLatency = 250;
    Queue q;
    Trace trace;
    std::mt19937 rng(seed);
    std::uniform_int_distribution<Cycle> ser(1, 160);
    std::uniform_int_distribution<Cycle> timeout(
        EventQueue::nearWindow, 12 * EventQueue::nearWindow);
    std::vector<int> sent(kLinks, 0);
    auto log = [&](int tag) { trace.emplace_back(tag, q.now()); };

    std::function<void(int)> issue = [&](int l) {
        if (sent[static_cast<std::size_t>(l)] == kPackets)
            return;
        int pkt = sent[static_cast<std::size_t>(l)]++;
        int tag = l * 10000 + pkt * 10;
        Cycle s = ser(rng);
        q.scheduleAfter(s + kLatency, [&, tag] {
            log(tag + 1); // deliver
            q.scheduleAfter(0, [&, tag] { log(tag + 2); });
            q.scheduleAfter(kLatency, [&, tag] { log(tag + 3); });
        });
        q.scheduleAfter(s, [&, l, tag] {
            log(tag + 4); // drain wake
            issue(l);
        });
        if (pkt % 16 == 0)
            q.scheduleAfter(timeout(rng), [&, tag] { log(tag + 5); });
    };
    for (int l = 0; l < kLinks; ++l)
        q.schedule(static_cast<Cycle>(l % 3), [&, l] { issue(l); });
    q.runAll();
    return trace;
}

} // namespace

TEST(EventDeterminism, MatchesSortedModelOnFabricShapedSchedule)
{
    for (unsigned seed : {1u, 7u, 2024u}) {
        Trace bucketed = fabricShaped<EventQueue>(seed);
        Trace model = fabricShaped<test::SortedEventModel>(seed);
        SCOPED_TRACE(seed);
        ASSERT_EQ(bucketed.size(), model.size());
        EXPECT_EQ(bucketed, model);
    }
}

TEST(EventDeterminism, StatSnapshotsBitIdentical)
{
    const std::string first = snapshotSmall();
    // Every registered path, the merge units' counters among them.
    EXPECT_NE(first.find("\"switch1.merge.sessionsClosed\""),
              std::string::npos);
    EXPECT_EQ(first, snapshotSmall());
}

TEST(EventDeterminism, RepeatedRunsAreBitIdentical)
{
    for (const char *strategy : {"CAIS", "SP-NVLS", "LADM"}) {
        for (SubLayerId sub :
             {SubLayerId::L1, SubLayerId::L2, SubLayerId::L3}) {
            SCOPED_TRACE(std::string(strategy) + "/" + subLayerName(sub));
            expectIdentical(runSmall(strategy, sub),
                            runSmall(strategy, sub));
        }
    }
}
