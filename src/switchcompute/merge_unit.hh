/**
 * @file
 * The CAIS merge unit (Sec. III-A): implements the two in-switch
 * micro-functions on top of the CAM lookup table and merging table.
 *
 * Micro-function 1 — load request merging: the first ld.cais to an
 * address opens a Load-Wait session and fetches from the home GPU;
 * later requests are appended to the Content Array (deferred response)
 * or served from cached data (Load-Ready), so the home GPU transmits
 * the data only once.
 *
 * Micro-function 2 — reduction request merging: red.cais contributions
 * to an address accumulate in the switch; once all expected
 * contributions arrive, a single merged write is sent to the home GPU.
 *
 * An LRU + timeout eviction policy (Sec. III-A.4) keeps the bounded
 * tables live-lock free, and the unit drives the TB-aware throttling
 * feedback (Sec. III-B.2).
 */

#ifndef CAIS_SWITCHCOMPUTE_MERGE_UNIT_HH
#define CAIS_SWITCHCOMPUTE_MERGE_UNIT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace_hooks.hh"
#include "noc/switch_chip.hh"
#include "switchcompute/eviction.hh"
#include "switchcompute/merging_table.hh"
#include "switchcompute/throttle.hh"
#include "switchcompute/tier.hh"

namespace cais
{

/** Merge unit tunables. */
struct MergeParams
{
    /** Session data granularity: one request chunk. */
    std::uint32_t chunkBytes = 4096;

    /**
     * Merging Table capacity per home-GPU port in bytes (40 KB in the
     * paper's configuration); 0 means unbounded, used to measure the
     * minimal required size (Fig. 13a).
     */
    std::uint64_t tableBytesPerPort = 40 * 1024;

    /** Forward-progress timeout for idle sessions. */
    Cycle timeout = 50 * cyclesPerUs;

    /** Per-session reduction latency charged at completion. */
    static constexpr Cycle reduceDelay = 8;

    /** TB-aware throttling (Sec. III-B.2): open sessions per group
     *  that trigger a pause hint, the pause it asks for, and the
     *  minimum interval between hints. */
    bool throttleEnabled = true;
    static constexpr int throttleThreshold = 16;
    static constexpr Cycle throttlePause = 2 * cyclesPerUs;
    static constexpr Cycle throttleHintInterval = cyclesPerUs;
};

/** Aggregated merge-unit statistics. */
struct MergeStats
{
    Counter loadReqs;
    Counter redReqs;
    Counter loadHits;       ///< requests merged into an open session
    Counter redHits;
    Counter fetches;        ///< unique fetches to home GPUs
    Counter bypassFetches;  ///< table full of Load-Wait entries
    Counter unmergedWrites; ///< reductions forwarded without merging
    Counter mergedWrites;   ///< fully/partially merged writes emitted
    Counter sessionsOpened;
    Counter sessionsClosed; ///< closed with all expected requests
    Counter partialUpstream; ///< leaf partial reductions sent upstream
};

/** The switch-resident compute-aware merging engine. */
class MergeUnit : public Probe
{
  public:
    MergeUnit(SwitchChip &sw, const MergeParams &params = {},
              const TierInfo &tier = {});

    /** Attach a session-lifecycle observer (nullptr detaches). */
    void setTraceHooks(SwitchTraceHooks *h) { hooks = h; }

    /** Micro-function 1 entry point. */
    void handleLoadReq(Packet &&pkt);

    /** Micro-function 2 entry point. */
    void handleRedReq(Packet &&pkt);

    /** Fetch response from a home GPU (cookie-tagged). */
    void handleReadResp(Packet &&pkt);

    const MergeStats &stats() const { return st; }
    const EvictionStats &evictionStats() const { return evSt; }
    const ThrottleController &throttler() const { return throttle; }

    /**
     * Request stagger (first-to-last arrival per address), the Fig.
     * 13(b) waiting-time metric, in cycles.
     */
    const Histogram &staggerHist() const { return stagger; }

    /** Peak concurrent load / reduction sessions over all ports. */
    std::size_t peakLoadSessions() const { return peakLoads; }
    std::size_t peakRedSessions() const { return peakReds; }

    /** Peak live table bytes over all home ports (Fig. 13a metric). */
    std::uint64_t peakTableBytes() const;

    /** Peak live table bytes at one home port. */
    std::uint64_t peakTableBytes(GpuId port) const;

    /** Live sessions across ports (diagnostics). */
    std::size_t liveSessions() const;

    /** Merging-table entries backed by storage across ports: 0
     *  until a port opens its first session. */
    std::size_t storageEntries() const;

    /** Addresses whose stagger window has not completed yet. */
    std::size_t pendingProbes() const { return probe.size(); }


    /** Live table bytes at one home port (trace sampling). */
    std::uint64_t liveTableBytes(GpuId port) const;

    const MergeParams &params() const { return p; }

    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const override;

  private:
    struct FetchCtx
    {
        GpuId port = invalidId;
        Addr addr = 0;
        bool bypass = false;
        Packet original; ///< requester packet for bypass fetches
    };

    MergingTable &table(GpuId port) { return tables[port]; }

    /** Track per-address stagger irrespective of merge success. */
    void probeArrival(Addr addr, bool is_load, int expected);

    /** Count @p g's contribution toward throttling and send it the
     *  pause hint the controller asks for (MergeParams::
     *  throttleEnabled gates both). */
    void noteContribution(GroupId group, GpuId g, Cycle now);

    /** Free a session, notifying throttling and stagger bookkeeping. */
    void closeSession(GpuId port, MergeEntry *e, bool complete);

    /** Evict one entry (LRU victim or timeout-expired). */
    void evictEntry(GpuId port, MergeEntry *e, bool timeout_evict);

    /** Emit a (possibly partial) merged reduction write to home. */
    void emitMergedWrite(const MergeEntry &e);

    /** Leaf: push a (possibly partial) reduction to the spine. */
    void emitPartialUpstream(const MergeEntry &e);

    void respondLoad(const Packet &req, std::uint32_t bytes);
    void issueFetch(GpuId home, Addr addr, std::uint32_t bytes,
                    bool bypass, const Packet *original, KernelId kernel,
                    GroupId group = invalidId);
    void scheduleSweep();
    void timeoutSweep();

    SwitchChip &sw;
    MergeParams p;
    TierInfo tier;
    EvictionPolicy policy;
    ThrottleController throttle;

    std::vector<MergingTable> tables; ///< one per home-GPU port

    std::unordered_map<std::uint64_t, FetchCtx> fetches;
    std::uint64_t nextFetchId = 1;

    struct ProbeEntry
    {
        Cycle first = 0;
        int count = 0;
        int expected = 0;
    };
    std::unordered_map<std::uint64_t, ProbeEntry> probe;
    Histogram stagger{0.0, 200.0 * cyclesPerUs, 400};
    Histogram loadStagger{0.0, 200.0 * cyclesPerUs, 400};
    Histogram redStagger{0.0, 200.0 * cyclesPerUs, 400};

    std::size_t liveLoads = 0;
    std::size_t liveReds = 0;
    std::size_t peakLoads = 0;
    std::size_t peakReds = 0;

    void noteOpen(bool is_load);
    void noteClose(bool is_load);

    MergeStats st;
    EvictionStats evSt;
    bool sweepScheduled = false;
    SwitchTraceHooks *hooks = nullptr;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_MERGE_UNIT_HH
