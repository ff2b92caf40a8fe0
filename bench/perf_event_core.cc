/**
 * @file
 * Perf-regression harness for the event core (google-benchmark).
 *
 * Measures events/sec on four workload shapes:
 *
 *  - a synthetic "hop storm" that mimics the deliver/wake/credit
 *    pattern CreditLink generates: many concurrent self-rescheduling
 *    chains with mixed near-future deltas, once with 1024 chains
 *    (everything in cache) and once with ~131k (the pending-set size
 *    of the 72-GPU LADM job, far larger than the caches);
 *  - the same storm with 16-byte captures (a pointer and two 32-bit
 *    words), shaped like a credit arrival or a drain wake: the events
 *    whose capture shares its entry's first cache line with the
 *    invoke/relocate thunks, so the entry layout has a number of its
 *    own, in cache and at the 72-GPU pending-set size;
 *  - a same-cycle burst: 90 chains that each step one cycle per hop,
 *    so every cycle holds 90 events, the density of the 72-GPU LADM
 *    job (~92 events per simulated cycle);
 *  - a fig12-shaped end-to-end run (CAIS strategy over a scaled-down
 *    Mega-GPT sub-layer) counting real simulator events.
 *
 * The hop storm and the burst also run against a local replica of
 * the seed implementation (std::function callbacks in one binary
 * heap), the baseline of the bucketed scheduler's ratio floors. CI uses the
 * emitted BENCH_eventcore.json to enforce a throughput floor; see
 * .github/workflows/ci.yml.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "runtime/simulation_driver.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

/**
 * Replica of the seed event queue: type-erased std::function
 * callbacks (one heap allocation per capture that outgrows the SBO)
 * ordered by a std::priority_queue binary heap. Kept here so the
 * benchmark keeps an honest baseline after the simulator itself
 * moved on.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return curTick; }

    void
    schedule(Cycle when, Callback cb)
    {
        heap.push(Entry{when, nextSeq++, std::move(cb)});
    }

    void scheduleAfter(Cycle delta, Callback cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    std::uint64_t
    runAll()
    {
        std::uint64_t n = 0;
        while (!heap.empty()) {
            Entry e = std::move(const_cast<Entry &>(heap.top()));
            heap.pop();
            curTick = e.when;
            e.cb();
            ++n;
        }
        return n;
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    Cycle curTick = 0;
    std::uint64_t nextSeq = 0;
};

/** Payload shaped like a Packet (64 bytes, one cache line), so a hop
 *  capture is a link delivery's 72 bytes; no profiler is attached, so
 *  the floors in CI also lock the cost of the disabled profiling
 *  path. */
struct HopPayload
{
    std::uint64_t words[8] = {};
};
static_assert(sizeof(HopPayload) == 64, "a Packet's size");

/** The in-cache storm: 1024 chains' captures fit in L2. */
constexpr int kChains = 1024;
constexpr int kHopsPerChain = 512;

/** The high-occupancy storm: as many pending events as the peak of
 *  the 72-GPU LADM job (~131k), whose captures (~16 MB) spill out of
 *  cache the way the real pending set does. */
constexpr int kWideChains = 131072;
constexpr int kWideHopsPerChain = 32;

/** The same-cycle burst: 90 chains in lockstep, 90 events a cycle. */
constexpr int kBurstChains = 90;
constexpr int kBurstHopsPerChain = 4096;

/** The hop storm's serialization-like delta cycle: same-cycle drains,
 *  short serialization, propagation latency. */
constexpr Cycle kStormDeltas[] = {1, 37, 250};
/** The burst's: every hop lands on the next cycle. */
constexpr Cycle kBurstDeltas[] = {1};

/**
 * Drive @p eq through a hop storm: @p chains concurrent chains, each
 * rescheduling itself @p hops times with deltas cycling through
 * @p deltas.
 */
template <typename Queue, std::size_t N>
std::uint64_t
hopStorm(Queue &eq, int chains, int hops, const Cycle (&deltas)[N])
{
    struct Storm
    {
        Queue *q;
        const Cycle *deltas;
        std::uint64_t hops;
        std::uint64_t done = 0;
    } storm{&eq, deltas, static_cast<std::uint64_t>(hops)};
    // A pointer plus a Packet-sized payload, like a link delivery;
    // the hop count rides in the payload's last word.
    struct Chain
    {
        Storm *s;
        HopPayload payload;

        void
        operator()()
        {
            std::uint64_t &hop = payload.words[7];
            payload.words[0] += hop;
            if (++hop < s->hops) {
                s->q->scheduleAfter(s->deltas[hop % N], *this);
            } else {
                s->done += payload.words[0];
            }
        }
    };
    static_assert(sizeof(Chain) == 72, "a link delivery's capture size");
    for (int c = 0; c < chains; ++c)
        eq.schedule(static_cast<Cycle>(c % 5), Chain{&storm, HopPayload{}});
    eq.runAll();
    return storm.done;
}

/**
 * The hop storm with 16-byte captures, shaped like a credit arrival
 * (`[link, vc]`) or a drain wake: the hop count and a tag ride next
 * to the pointer.
 */
template <std::size_t N>
std::uint64_t
smallHopStorm(EventQueue &eq, int chains, int hops, const Cycle (&deltas)[N])
{
    struct Storm
    {
        EventQueue *q;
        const Cycle *deltas;
        std::uint32_t hops;
        std::uint64_t done = 0;
    } storm{&eq, deltas, static_cast<std::uint32_t>(hops)};
    struct Chain
    {
        Storm *s;
        std::uint32_t hop;
        std::uint32_t tag;

        void
        operator()()
        {
            if (++hop < s->hops)
                s->q->scheduleAfter(s->deltas[hop % N], *this);
            else
                s->done += tag;
        }
    };
    static_assert(sizeof(Chain) == 16, "a credit arrival's capture size");
    for (int c = 0; c < chains; ++c)
        eq.schedule(static_cast<Cycle>(c % 5),
                    Chain{&storm, 0, static_cast<std::uint32_t>(c)});
    eq.runAll();
    return storm.done;
}

void
BM_HopStorm_SeedReplica(benchmark::State &state)
{
    for (auto _ : state) {
        LegacyEventQueue eq;
        benchmark::DoNotOptimize(
            hopStorm(eq, kChains, kHopsPerChain, kStormDeltas));
    }
    state.SetItemsProcessed(state.iterations() * kChains * kHopsPerChain);
}
BENCHMARK(BM_HopStorm_SeedReplica);

void
BM_HopStorm_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(
            hopStorm(eq, kChains, kHopsPerChain, kStormDeltas));
    }
    state.SetItemsProcessed(state.iterations() * kChains * kHopsPerChain);
}
BENCHMARK(BM_HopStorm_Bucketed);

/** Report only: CI prints it but sets no floor on it. */
void
BM_HopStormHighOccupancy_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(
            hopStorm(eq, kWideChains, kWideHopsPerChain, kStormDeltas));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t{kWideChains} * kWideHopsPerChain);
}
BENCHMARK(BM_HopStormHighOccupancy_Bucketed);

/** Report only, as is the high-occupancy one below: CI prints both
 *  but sets no floor on them. */
void
BM_SmallCaptureHopStorm_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(
            smallHopStorm(eq, kChains, kHopsPerChain, kStormDeltas));
    }
    state.SetItemsProcessed(state.iterations() * kChains * kHopsPerChain);
}
BENCHMARK(BM_SmallCaptureHopStorm_Bucketed);

void
BM_SmallCaptureHopStormHighOccupancy_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(smallHopStorm(eq, kWideChains,
                                               kWideHopsPerChain,
                                               kStormDeltas));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t{kWideChains} * kWideHopsPerChain);
}
BENCHMARK(BM_SmallCaptureHopStormHighOccupancy_Bucketed);

void
BM_SameCycleBurst_SeedReplica(benchmark::State &state)
{
    for (auto _ : state) {
        LegacyEventQueue eq;
        benchmark::DoNotOptimize(
            hopStorm(eq, kBurstChains, kBurstHopsPerChain, kBurstDeltas));
    }
    state.SetItemsProcessed(state.iterations() * kBurstChains *
                            kBurstHopsPerChain);
}
BENCHMARK(BM_SameCycleBurst_SeedReplica);

void
BM_SameCycleBurst_Bucketed(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(
            hopStorm(eq, kBurstChains, kBurstHopsPerChain, kBurstDeltas));
    }
    state.SetItemsProcessed(state.iterations() * kBurstChains *
                            kBurstHopsPerChain);
}
BENCHMARK(BM_SameCycleBurst_Bucketed);

/** Fig. 12-shaped job: CAIS on a scaled-down Mega-GPT L3 sub-layer. */
RunResult
fig12Shaped()
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    m.batch = 1;
    RunConfig cfg;
    cfg.numGpus = 4;
    cfg.numSwitches = 2;
    StrategySpec spec = strategyByName("CAIS");
    OpGraph graph = buildSubLayer(m, SubLayerId::L3);
    return runGraph(spec, graph, cfg, subLayerName(SubLayerId::L3));
}

void
BM_Fig12Shaped_Bucketed(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        RunResult r = fig12Shaped();
        events += r.eventsExecuted;
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Fig12Shaped_Bucketed);

} // namespace

/**
 * Default to emitting BENCH_eventcore.json next to the binary so the
 * CI perf-smoke job (and ad-hoc local runs) always get a machine-
 * readable report; explicit --benchmark_out flags win.
 */
int
main(int argc, char **argv)
{
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;

    std::vector<char *> args(argv, argv + argc);
    std::string out = "--benchmark_out=BENCH_eventcore.json";
    std::string fmt = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
