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
#include <span>
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
class TbRun;

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

/** One thread block's communication request stream: its ops, cut
 *  into chunks by the hub as it injects them. */
struct HubJob
{
    KernelId kernel = invalidId;
    TbId tb = invalidId;
    GroupId group = invalidId;

    /** The TB's pull or push ops in its kernel's TbGrid, which is not
     *  modified once System::run() starts; zero-byte ops send
     *  nothing. */
    std::span<const RemoteOp> ops;

    /** TB whose onLoadsDone() the hub calls once every chunk is on
     *  the wire and every response/ack (pull kinds and nvlsSt) is
     *  back; null for posted pushes. */
    TbRun *waiter = nullptr;
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

    /** Submit @p job; its ops must stay in place until it finishes. */
    void submit(const HubJob &job);

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
    std::uint64_t throttlePauses() const { return pauses.value(); }
    std::uint64_t bytesServed() const { return served.value(); }

    /** True when no job, chunk, or response is pending. */
    bool idle() const;

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        MetricPath path(prefix);
        reg.addCounter(path("bytesServed"), &served);
        reg.addCounter(path("chunksInjected"), &injected);
        reg.addCounter(path("responses"), &responses);
        reg.addCounter(path("throttlePauses"), &pauses);
    }

  private:
    struct JobState
    {
        HubJob job;
        std::size_t nextOp = 0;  ///< op of the next chunk to inject
        std::uint64_t opOffset = 0; ///< its byte offset in that op
        int awaitingInject = 0;  ///< chunks not yet on the wire
        int awaitingReply = 0;   ///< responses/acks outstanding
        Cycle submitAt = 0;      ///< profiler: injection-wait origin
        std::uint64_t id = 0;    ///< job id while live, 0 when free
    };

    /** Live job with id @p job_id, or nullptr once it finished. */
    JobState *findJob(std::uint64_t job_id);

    void pump();
    void injectChunk(std::uint64_t job_id, const JobState &js,
                     const RemoteOp &op, Addr addr, std::uint32_t bytes);
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
    /** Jobs in issueQueue whose next op is a caisLoad: when all of
     *  them are and the CAIS-load cap holds, pump() has nothing to
     *  issue. */
    std::size_t queuedCaisLoads = 0;

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
