#include "gpu/hub.hh"

#include <algorithm>
#include <utility>

#include "analysis/causal_profile.hh"
#include "common/intmath.hh"
#include "common/log.hh"
#include "gpu/synchronizer.hh"
#include "gpu/thread_block.hh"

namespace cais
{

namespace
{

/** First op at or after @p i that moves bytes, or ops.size(). */
std::size_t
nonEmptyFrom(std::span<const RemoteOp> ops, std::size_t i)
{
    while (i < ops.size() && ops[i].bytes == 0)
        ++i;
    return i;
}

} // namespace

GpuHub::GpuHub(EventQueue &eq_, Fabric &fabric_, GpuId gpu_,
               const GpuParams &params)
    : eq(eq_), fabric(fabric_), gpu(gpu_),
      chunkBytes(params.chunkBytes),
      maxInflight(params.maxInflightChunks),
      maxCaisLoads(params.maxCaisLoadOutstanding),
      mem(eq_, params.hbmBytesPerCycle, params.hbmLatency)
{
    // Watch our uplinks so the injection window tracks actual wire
    // occupancy (each dequeue = one of our packets started the wire).
    for (int i = 0; i < fabric.uplinksPerGpu(); ++i)
        fabric.uplink(gpu, i).setDequeueListener(this);
}

GpuHub::JobState *
GpuHub::findJob(std::uint64_t job_id)
{
    std::uint64_t slot = (job_id & 0xffffffffu) - 1;
    if (slot >= jobs.size() || jobs[slot].id != job_id)
        return nullptr;
    return &jobs[slot];
}

void
GpuHub::setProfiler(CausalProfiler *pr)
{
    prof = pr;
    mem.setProfiler(pr, profnode::hbm(gpu));
}

void
GpuHub::submit(const HubJob &job)
{
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(jobs.size());
        jobs.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    std::uint64_t id = (++nextJobSerial << 32) | (slot + 1u);
    JobState &js = jobs[slot];
    js = JobState{};
    js.id = id;
    js.job = job;
    js.submitAt = eq.now();
    js.nextOp = nonEmptyFrom(job.ops, 0);

    for (const RemoteOp &op : job.ops) {
        int chunks = static_cast<int>(ceilDiv(op.bytes, chunkBytes));
        js.awaitingInject += chunks;
        if (isPullKind(op.kind) || op.kind == RemoteOpKind::nvlsSt)
            js.awaitingReply += chunks;
    }

    if (js.awaitingInject == 0) {
        maybeFinish(id);
        return;
    }

    issueQueue.push_back(id);
    if (job.ops[js.nextOp].kind == RemoteOpKind::caisLoad)
        ++queuedCaisLoads;
    pump();
}

Packet
GpuHub::newPacket(PacketType t, int dst)
{
    return makePacket(fabric.packetIds(), t, gpu, dst);
}

void
GpuHub::sendSyncReq(GroupId group, SyncPhase phase, int expected)
{
    Packet pkt = newPacket(PacketType::groupSyncReq, invalidId);
    pkt.group = group;
    pkt.cookie = static_cast<std::uint64_t>(phase);
    pkt.expected = expected;
    pkt.issuerGpu = gpu;
    pkt.dst = fabric.syncNode(gpu, group);
    wireOrder.push_back(0); // non-job traffic
    fabric.sendFromGpu(gpu, std::move(pkt));
}

void
GpuHub::pump()
{
    // Injection may complete synchronously (the link's dequeue
    // callback fires inside send()), which re-invokes pump(); the
    // guard keeps a single loop in control of the job cursors.
    if (pumping)
        return;
    pumpScheduled = false;
    // Capped and every queued job waits on a caisLoad: the loop below
    // would rotate the whole queue once and leave it as it was.
    if (caisLoadsOutstanding >= maxCaisLoads &&
        queuedCaisLoads == issueQueue.size())
        return;
    pumping = true;

    Cycle now = eq.now();
    std::size_t rotations = issueQueue.size();
    Cycle earliest_resume = 0;

    while (inflightChunks < maxInflight && !issueQueue.empty()) {
        std::uint64_t id = issueQueue.front();
        JobState &js = *findJob(id);

        const RemoteOp &op = js.job.ops[js.nextOp];

        // Outstanding-request throttling (Sec. V-C.2): mergeable
        // loads are capped so the switch merging tables track one
        // GPU's bounded working set.
        if (op.kind == RemoteOpKind::caisLoad &&
            caisLoadsOutstanding >= maxCaisLoads) {
            issueQueue.pop_front();
            issueQueue.push_back(id);
            if (rotations == 0 || --rotations == 0)
                break; // resumes when a response arrives
            continue;
        }

        // TB-aware request throttling: pause mergeable traffic of a
        // hinted group until the deadline.
        auto pit = pausedGroups.find(js.job.group);
        if (pit != pausedGroups.end()) {
            if (now >= pit->second) {
                pausedGroups.erase(pit);
            } else if (isCaisKind(op.kind)) {
                issueQueue.pop_front();
                issueQueue.push_back(id);
                if (earliest_resume == 0 ||
                    pit->second < earliest_resume)
                    earliest_resume = pit->second;
                if (rotations == 0 || --rotations == 0)
                    break; // every queued job is paused
                continue;
            }
        }

        // Cut the chunk and advance the cursor before injecting:
        // injectChunk can trigger nested wire events that must observe
        // a consistent cursor. Chunks round-robin across a small window
        // of jobs (concurrent warps interleave their streams), which
        // spreads switch ports while tiles still complete progressively.
        Addr addr = op.base + js.opOffset;
        auto bytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunkBytes, op.bytes - js.opOffset));
        js.opOffset += bytes;
        if (js.opOffset == op.bytes) {
            js.opOffset = 0;
            js.nextOp = nonEmptyFrom(js.job.ops, js.nextOp + 1);
        }
        issueQueue.pop_front();
        if (op.kind == RemoteOpKind::caisLoad)
            --queuedCaisLoads;
        if (js.nextOp < js.job.ops.size()) {
            issueQueue.insert(
                std::min<std::size_t>(issueWindow - 1, issueQueue.size()),
                id);
            if (js.job.ops[js.nextOp].kind == RemoteOpKind::caisLoad)
                ++queuedCaisLoads;
        }
        // No completion check here: the chunk just injected is still
        // counted in awaitingInject, so the job can only finish in
        // onLinkDequeue or acceptPacket, which both check.
        injectChunk(id, js, op, addr, bytes);
    }

    if (earliest_resume > now && !pumpScheduled) {
        pumpScheduled = true;
        eq.schedule(earliest_resume, [this] { pump(); });
    }
    pumping = false;
}

void
GpuHub::injectChunk(std::uint64_t job_id, const JobState &js,
                    const RemoteOp &op, Addr addr, std::uint32_t bytes)
{
    std::uint64_t cookie = nextCookie++;

    Packet pkt;
    switch (op.kind) {
      case RemoteOpKind::caisLoad:
        pkt = newPacket(PacketType::caisLoadReq, invalidId);
        pkt.reqBytes = bytes;
        pkt.dst = fabric.mergeNode(gpu, addr);
        break;
      case RemoteOpKind::plainLoad:
        pkt = newPacket(PacketType::readReq, addrHomeGpu(addr));
        pkt.reqBytes = bytes;
        break;
      case RemoteOpKind::nvlsLdReduce:
        pkt = newPacket(PacketType::multimemLdReduceReq, invalidId);
        pkt.reqBytes = bytes;
        pkt.dst = fabric.mergeNode(gpu, addr);
        break;
      case RemoteOpKind::nvlsSt:
        pkt = newPacket(PacketType::multimemSt, invalidId);
        pkt.payloadBytes = bytes;
        pkt.dst = fabric.mergeNode(gpu, addr);
        break;
      case RemoteOpKind::nvlsRed:
        pkt = newPacket(PacketType::multimemRed, invalidId);
        pkt.payloadBytes = bytes;
        pkt.dst = fabric.mergeNode(gpu, addr);
        break;
      case RemoteOpKind::caisRed:
        pkt = newPacket(PacketType::caisRedReq, invalidId);
        pkt.payloadBytes = bytes;
        pkt.dst = fabric.mergeNode(gpu, addr);
        break;
      case RemoteOpKind::plainWrite:
        pkt = newPacket(PacketType::writeReq, addrHomeGpu(addr));
        pkt.payloadBytes = bytes;
        break;
      default:
        panic("bad remote op kind");
    }

    pkt.addr = addr;
    pkt.expected = op.expected;
    if (op.protocolPad) {
        if (pkt.payloadBytes > 0)
            pkt.padBytes = bytes / protocolPadDivisor;
        else
            pkt.padResponse = true; // pad rides on the data response
    }
    pkt.issuerGpu = gpu;
    pkt.kernel = js.job.kernel;
    pkt.tb = js.job.tb;
    pkt.group = js.job.group;
    pkt.cookie = cookie;

    // Only responses look a cookie up; a table with no outstanding
    // response starts at the next one that expects one.
    if (isPullKind(op.kind) || op.kind == RemoteOpKind::nvlsSt)
        cookieJobs.push_back(job_id);
    else if (!cookieJobs.empty())
        cookieJobs.push_back(0);

    if (op.kind == RemoteOpKind::caisLoad)
        ++caisLoadsOutstanding;
    ++inflightChunks;
    injected.inc();
    wireOrder.push_back(job_id);
    if (prof) {
        // Injection-backpressure edge: the chunk sat behind the hub's
        // in-flight window since job submission; provenance points at
        // the submitting TB so the walk telescopes into compute.
        prof->record(profnode::hubQueue(gpu),
                     WaitClass::hubInjection, js.submitAt, eq.now(),
                     profnode::tb(js.job.kernel, gpu, js.job.tb),
                     js.submitAt);
        CausalProfiler::ScopedCause sc(
            prof, profnode::hubQueue(gpu), eq.now());
        fabric.sendFromGpu(gpu, std::move(pkt));
        return;
    }
    fabric.sendFromGpu(gpu, std::move(pkt));
}

void
GpuHub::onLinkDequeue(int, int)
{
    if (wireOrder.empty())
        panic("hub %d: wire event with empty order queue", gpu);
    std::uint64_t job_id = wireOrder.front();
    wireOrder.pop_front();
    if (job_id == 0)
        return; // sync or service traffic: not window-tracked

    --inflightChunks;
    if (JobState *js = findJob(job_id)) {
        --js->awaitingInject;
        maybeFinish(job_id);
    }
    pump();
}

void
GpuHub::maybeFinish(std::uint64_t job_id)
{
    JobState *jp = findJob(job_id);
    if (!jp)
        return;
    JobState &js = *jp;
    // Done once every chunk is on the wire (awaitingInject counts the
    // ones not cut yet too) and every response is back.
    if (js.awaitingInject > 0 || js.awaitingReply > 0)
        return;
    if (js.job.waiter)
        js.job.waiter->onLoadsDone();
    js.id = 0;
    freeSlots.push_back(
        static_cast<std::uint32_t>((job_id & 0xffffffffu) - 1));
}

void
GpuHub::serveRead(Packet &&pkt)
{
    served.inc(pkt.reqBytes);
    int reply_to = pkt.src;
    Packet resp = newPacket(PacketType::readResp, reply_to);
    resp.addr = pkt.addr;
    resp.payloadBytes = pkt.reqBytes;
    if (pkt.padResponse)
        resp.padBytes = pkt.reqBytes / protocolPadDivisor;
    resp.cookie = pkt.cookie;
    resp.kernel = pkt.kernel;
    resp.issuerGpu = pkt.issuerGpu;

    mem.access(pkt.reqBytes, [this, r = std::move(resp)]() mutable {
        // The HBM read enables the response send.
        CausalProfiler::ScopedCause sc(prof, mem.profNode(),
                                       eq.now());
        wireOrder.push_back(0);
        fabric.sendFromGpu(gpu, std::move(r));
    });
}

void
GpuHub::landWrite(Packet &&pkt)
{
    Addr addr = pkt.addr;
    std::uint32_t bytes = pkt.payloadBytes;
    int contribs = pkt.contribs;
    bool need_ack = pkt.needAck;
    GpuId acker = pkt.issuerGpu;
    std::uint64_t cookie = pkt.cookie;

    mem.access(bytes,
               [this, addr, bytes, contribs, need_ack, acker, cookie] {
        // The HBM write enables tile readiness and the ack.
        CausalProfiler::ScopedCause sc(prof, mem.profNode(),
                                       eq.now());
        if (arrivals)
            arrivals->onDataArrival(gpu, addr, bytes, contribs);
        if (need_ack && acker != invalidId && acker != gpu) {
            Packet ack = newPacket(PacketType::writeAck, acker);
            ack.addr = addr;
            ack.cookie = cookie;
            wireOrder.push_back(0);
            fabric.sendFromGpu(gpu, std::move(ack));
        }
    });
}

void
GpuHub::acceptPacket(Packet &&pkt, CreditLink *from, int vc)
{
    // The GPU sinks at line rate; free the buffer slot immediately.
    from->returnCredit(vc);

    switch (pkt.type) {
      case PacketType::readReq:
        serveRead(std::move(pkt));
        return;

      case PacketType::writeReq:
      case PacketType::caisMergedWrite:
        landWrite(std::move(pkt));
        return;

      case PacketType::readResp:
      case PacketType::caisLoadResp:
      case PacketType::multimemLdReduceResp:
      case PacketType::writeAck: {
        responses.inc();
        if (pkt.type == PacketType::caisLoadResp &&
            caisLoadsOutstanding > 0) {
            --caisLoadsOutstanding;
            // Capped loads may now resume.
            eq.scheduleAfter(0, [this] { pump(); });
        }
        std::uint64_t first = nextCookie - cookieJobs.size();
        std::uint64_t job_id = 0;
        if (pkt.cookie >= first && pkt.cookie < nextCookie)
            job_id = std::exchange(cookieJobs[pkt.cookie - first], 0);
        if (job_id == 0)
            panic("hub %d: response with unknown cookie %llu", gpu,
                  static_cast<unsigned long long>(pkt.cookie));
        while (!cookieJobs.empty() && cookieJobs.front() == 0)
            cookieJobs.pop_front();
        JobState *js = findJob(job_id);
        if (!js)
            panic("hub %d: response for finished job", gpu);
        --js->awaitingReply;
        maybeFinish(job_id);
        return;
      }

      case PacketType::groupSyncRelease:
        if (!synchronizer)
            panic("hub %d: sync release without synchronizer", gpu);
        synchronizer->onRelease(pkt.group,
                                static_cast<SyncPhase>(pkt.cookie));
        return;

      case PacketType::throttleHint:
        pauses.inc();
        pausedGroups[pkt.group] = eq.now() + pkt.cookie;
        return;

      default:
        panic("hub %d: unexpected packet type %s", gpu,
              packetTypeName(pkt.type));
    }
}

bool
GpuHub::idle() const
{
    return jobs.size() == freeSlots.size() && issueQueue.empty() &&
           inflightChunks == 0;
}

} // namespace cais
