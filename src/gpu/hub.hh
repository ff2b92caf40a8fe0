/**
 * @file
 * GPU hub: the NVLink endpoint of one GPU.
 *
 * Responsibilities (mirroring the Accel-Sim "Hub" the paper extends):
 *  - translate thread-block remote ops into fabric packets at chunk
 *    granularity, with an injection window for backpressure;
 *  - correlate responses/acks back to the issuing jobs;
 *  - serve remote reads from local HBM (switch fetches, P2P reads);
 *  - land remote writes into HBM and notify tile tracking;
 *  - transport TB-group sync packets and apply throttle hints
 *    (TB-aware request throttling, Sec. III-B.2).
 */

#ifndef CAIS_GPU_HUB_HH
#define CAIS_GPU_HUB_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "gpu/gpu_config.hh"
#include "gpu/hbm.hh"
#include "gpu/kernel.hh"
#include "noc/network.hh"
#include "switchcompute/group_sync_table.hh" // SyncPhase

namespace cais
{

class CausalProfiler;
class Synchronizer;

/** Sink for remote data landing in this GPU's memory. */
class DataArrivalHandler
{
  public:
    virtual ~DataArrivalHandler() = default;

    /**
     * @param gpu receiving GPU.
     * @param addr landing address.
     * @param bytes payload size.
     * @param contribs reduction contributions represented (0 for
     *        plain data writes/multicasts).
     */
    virtual void onDataArrival(GpuId gpu, Addr addr,
                               std::uint32_t bytes, int contribs) = 0;
};

/** One chunked communication request stream from a thread block. */
struct HubJob
{
    CAIS_OWNED_BY_DOMAIN(host);

    KernelId kernel = invalidId;
    TbId tb = invalidId;
    GroupId group = invalidId;

    struct Chunk
    {
        CAIS_OWNED_BY_DOMAIN(parent);

        RemoteOpKind kind;
        Addr addr;
        std::uint32_t bytes;
        int expected;
        bool protocolPad;
    };
    std::vector<Chunk> chunks;

    /** All chunks handed to the fabric (wire-injection order). */
    std::function<void()> onInjected;

    /** All responses/acks received (pull kinds and nvlsSt). */
    std::function<void()> onComplete;
};

/** The per-GPU fabric endpoint. */
class GpuHub : public PacketSink,
               public LinkDequeueListener,
               public Probe
{
  public:
    GpuHub(EventQueue &eq, Fabric &fabric, GpuId gpu,
           const GpuParams &params);

    void setArrivalHandler(DataArrivalHandler *h) { arrivals = h; }
    void setSynchronizer(Synchronizer *s) { synchronizer = s; }

    /** Attach the causal profiler (DESIGN.md §6g): records injection
     *  backpressure edges and wires the HBM channel's node. */
    void setProfiler(CausalProfiler *pr);

    /** Split @p op into chunks (helper for job construction). */
    std::vector<HubJob::Chunk> chunkify(const RemoteOp &op) const;

    /** Submit a job; ownership transfers to the hub. */
    void submit(std::unique_ptr<HubJob> job);

    /** Send a TB-group sync registration (bypasses the window). */
    void sendSyncReq(GroupId group, SyncPhase phase, int expected);

    // PacketSink
    void acceptPacket(Packet &&pkt, CreditLink *from, int vc) override;

    /** One of our uplinks started a packet on the wire: the injection
     *  window tracks actual wire occupancy. */
    void onLinkDequeue(int tag, int vc) override;

    GpuId gpuId() const { return gpu; }
    HbmModel &hbm() { return mem; }
    const HbmModel &hbm() const { return mem; }

    int inflight() const { return inflightChunks; }
    std::size_t queuedJobs() const { return issueQueue.size(); }
    std::uint64_t chunksInjected() const { return injected.value(); }
    std::uint64_t responsesReceived() const { return responses.value(); }
    std::uint64_t throttlePauses() const { return pauses.value(); }
    std::uint64_t bytesServed() const { return served.value(); }

    /** True when no job, chunk, or response is pending. */
    bool idle() const;

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(prefix + ".chunksInjected", &injected);
        reg.addCounter(prefix + ".responses", &responses);
        reg.addCounter(prefix + ".throttlePauses", &pauses);
        reg.addCounter(prefix + ".bytesServed", &served);
    }

  private:
    CAIS_OWNED_BY_DOMAIN(host);

    struct JobState
    {
        CAIS_OWNED_BY_DOMAIN(parent);

        std::unique_ptr<HubJob> job;
        std::size_t nextChunk = 0;
        int awaitingInject = 0;  ///< chunks not yet on the wire
        int awaitingReply = 0;   ///< responses/acks outstanding
        bool injectedAll = false;
        Cycle submitAt = 0;      ///< profiler: injection-wait origin
        std::uint64_t id = 0;    ///< job id while live, 0 when free
    };

    /** Live job with id @p job_id, or nullptr once it finished. */
    JobState *findJob(std::uint64_t job_id);

    void pump();
    void checkInjectDone(std::uint64_t job_id);
    void injectChunk(std::uint64_t job_id, JobState &js,
                     const HubJob::Chunk &c);
    void finishInject(JobState &js);
    void maybeFinish(std::uint64_t job_id);

    void serveRead(Packet &&pkt);
    void landWrite(Packet &&pkt);

    /** Build a packet from this GPU with a fresh simulation-wide id
     *  (the owning Fabric's allocator). */
    Packet newPacket(PacketType t, int dst);

    EventQueue &eq;
    Fabric &fabric;
    GpuId gpu;
    std::uint32_t chunkBytes;
    int maxInflight;
    int maxCaisLoads;
    HbmModel mem;

    DataArrivalHandler *arrivals = nullptr;
    Synchronizer *synchronizer = nullptr;
    CausalProfiler *prof = nullptr;

    /**
     * Job table indexed by slot. A job id is (serial << 32) | (slot +
     * 1), so 0 never names a job and a finished job's id stops
     * matching once its slot is recycled. A deque keeps JobState
     * references stable while nested callbacks submit new jobs.
     */
    std::deque<JobState> jobs;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextJobSerial = 0;
    Ring<std::uint64_t> issueQueue; ///< jobs with chunks to send

    /**
     * Owning job of each cookie awaiting a response, indexed by
     * cookie - (nextCookie - size()); 0 marks a cookie that expects
     * no response or already got one. Leading zeros are trimmed, so
     * the table spans only the oldest outstanding response onward.
     */
    Ring<std::uint64_t> cookieJobs;
    std::uint64_t nextCookie = 1;

    /** Group pause deadlines from throttle hints. */
    std::unordered_map<GroupId, Cycle> pausedGroups;

    /** Jobs whose chunks interleave round-robin at the queue head. */
    static constexpr std::size_t issueWindow = 8;

    int inflightChunks = 0; ///< sent to fabric, not yet serialized
    int caisLoadsOutstanding = 0; ///< ld.cais awaiting response
    bool pumpScheduled = false;
    bool pumping = false;

    /**
     * Send-order queue matching uplink dequeue events back to jobs
     * (0 = non-job traffic). Dequeues across the parallel uplinks are
     * matched FIFO, a close approximation of wire order.
     */
    Ring<std::uint64_t> wireOrder;

    Counter injected;
    Counter responses;
    Counter pauses;
    Counter served;
};

} // namespace cais

#endif // CAIS_GPU_HUB_HH
