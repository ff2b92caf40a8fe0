#include "noc/switch_chip.hh"

#include "analysis/causal_profile.hh"
#include "common/log.hh"

namespace cais
{

SwitchChip::SwitchChip(EventQueue &eq_, PacketIdAllocator &ids,
                       SwitchId id, int node_id, int num_gpus,
                       const SwitchParams &params)
    : eq(eq_), switchId(id), node(node_id), p(params),
      inPorts(static_cast<std::size_t>(num_gpus)),
      inVcs(static_cast<std::size_t>(num_gpus) *
            static_cast<std::size_t>(params.numVcs)),
      outLinks(static_cast<std::size_t>(num_gpus), nullptr),
      waiting(inVcs.size()), pktIds(ids)
{
}

void
SwitchChip::attachUplink(GpuId g, CreditLink *from_gpu)
{
    inPorts[static_cast<std::size_t>(g)].link = from_gpu;
    // The port index rides on the link as its sink tag; keying a map
    // on the link pointer would order ports by allocation address.
    from_gpu->setSink(this, g);
}

void
SwitchChip::attachDownlink(GpuId g, CreditLink *to_gpu)
{
    outLinks[static_cast<std::size_t>(g)] = to_gpu;
    to_gpu->setDequeueListener(this, g);
}

void
SwitchChip::setProfiler(CausalProfiler *pr)
{
    for (const InputVc &ivc : inVcs)
        if (!ivc.buf.empty())
            panic("switch %d: profiler attached with packets buffered",
                  switchId);
    prof = pr;
    for (auto &port : inPorts)
        port.arrivals = std::vector<Ring<Cycle>>(
            pr ? static_cast<std::size_t>(p.numVcs) : 0);
}

void
SwitchChip::acceptPacket(Packet &&pkt, CreditLink *from, int vc)
{
    int port = from->sinkTag();
    if (port < 0 || port >= numGpus() ||
        inPorts[static_cast<std::size_t>(port)].link != from)
        panic("switch %d: packet from unknown link", switchId);
    auto &in = inPorts[static_cast<std::size_t>(port)];
    if (prof)
        // Ingress-arrival time: the VC-arbitration edge at
        // processHead covers [arrival, serve].
        in.arrivals[static_cast<std::size_t>(vc)].push_back(eq.now());
    InputVc &ivc = inputVc(port, vc);
    ivc.buf.push(std::move(pkt));
    if (!ivc.busy) {
        ivc.busy = true;
        scheduleProcess(port, vc, p.pipelineDelay);
    }
}

void
SwitchChip::scheduleProcess(int port, int vc, Cycle delay)
{
    eq.scheduleAfter(delay, [this, port, vc] { processHead(port, vc); });
}

void
SwitchChip::processHead(int port, int vc)
{
    InputVc &ivc = inputVc(port, vc);
    VirtualChannel &buf = ivc.buf;
    if (buf.empty()) {
        ivc.busy = false;
        return;
    }
    auto &in = inPorts[static_cast<std::size_t>(port)];

    Packet &head = buf.front();

    // VC-arbitration edge (recorded only when the head actually
    // leaves the buffer, so head-of-line parking folds into one
    // edge): the head sat in the ingress VC from its arrival until
    // this service event. The in-link node stands for the ingress
    // port on the critical path; the scoped cause hands it to
    // everything this service triggers downstream.
    std::uint64_t in_node = prof ? in.link->profNode() : 0;
    auto recordArbitration = [&] {
        auto &arrivals = in.arrivals[static_cast<std::size_t>(vc)];
        Cycle arrived = arrivals.front();
        arrivals.pop_front();
        prof->record(in_node, WaitClass::vcArbitration, arrived,
                     eq.now(), in_node, arrived);
    };

    if (handler && handler->wants(head)) {
        if (prof)
            recordArbitration();
        Packet pkt = buf.pop();
        in.link->returnCredit(vc);
        consumed.inc();
        {
            CausalProfiler::ScopedCause sc(prof, in_node, eq.now());
            handler->handlePacket(std::move(pkt));
        }
        scheduleProcess(port, vc, p.perPacketProcess);
        return;
    }

    // Plain unicast forward. Without a router the output port is the
    // destination GPU id (flat shape); a router maps remote or
    // switch-node destinations onto tier links.
    int dst = outPort(head);
    if (dst < 0 || dst >= numPorts())
        panic("switch %d: cannot route packet type %s to node %d",
              switchId, packetTypeName(head.type), head.dst);

    CreditLink *out = outLinks[static_cast<std::size_t>(dst)];
    if (out->queueLen(static_cast<int>(head.vc)) >=
        static_cast<std::size_t>(p.outQueueDepth)) {
        // Head-of-line block: park until the output VC drains. The VC
        // stays busy (no service event) and resumes via
        // onLinkDequeue.
        parked(dst, static_cast<int>(head.vc)).emplace_back(port, vc);
        return;
    }

    if (prof)
        recordArbitration();
    Packet pkt = buf.pop();
    in.link->returnCredit(vc);
    forwarded.inc();
    {
        CausalProfiler::ScopedCause sc(prof, in_node, eq.now());
        out->send(std::move(pkt));
    }
    scheduleProcess(port, vc, p.perPacketProcess);
}

void
SwitchChip::onLinkDequeue(int out_port, int vc)
{
    auto &list = parked(out_port, vc);
    if (list.empty())
        return;
    // Wake all parked heads; they re-check space in arrival order.
    waking.swap(list);
    for (auto [port, in_vc] : waking)
        scheduleProcess(port, in_vc, 0);
    waking.clear();
}

void
SwitchChip::sendToGpu(Packet &&pkt)
{
    int dst = outPort(pkt);
    if (dst < 0 || dst >= numPorts())
        panic("switch %d: sendToGpu to bad node %d", switchId, pkt.dst);
    pkt.vc = policedVc(pkt.vc, p.unifiedDataVc);
    generated.inc();
    outLinks[static_cast<std::size_t>(dst)]->send(std::move(pkt));
}

std::size_t
SwitchChip::downlinkQueue(GpuId g, VcClass vc) const
{
    return outLinks[static_cast<std::size_t>(g)]->queueLen(
        static_cast<int>(vc));
}

std::size_t
SwitchChip::peakInputOccupancy() const
{
    std::size_t peak = 0;
    for (const InputVc &ivc : inVcs)
        peak = std::max(peak, ivc.buf.peakOccupancy());
    return peak;
}

void
SwitchChip::registerMetrics(MetricRegistry &reg,
                            const std::string &prefix) const
{
    MetricPath path(prefix);
    reg.addCounter(path("consumed"), &consumed);
    reg.addCounter(path("forwarded"), &forwarded);
    reg.addCounter(path("generated"), &generated);
    reg.addGaugeU64(path("peakInputVcOccupancy"), [this] {
        return static_cast<std::uint64_t>(peakInputOccupancy());
    });
}

} // namespace cais
