/**
 * @file
 * Packet types exchanged on the NVLink/NVSwitch fabric model.
 *
 * We model traffic at packet (coalesced-burst) granularity rather than
 * flit granularity: each packet carries up to a configurable number of
 * payload bytes plus a 16-byte (one-flit) header, and link occupancy is
 * payload-accurate. This preserves the bandwidth/contention behaviour
 * the paper studies while keeping simulations tractable (see
 * DESIGN.md substitution table).
 */

#ifndef CAIS_NOC_PACKET_HH
#define CAIS_NOC_PACKET_HH

#include <cstdint>
#include <limits>
#include <string>

#include "common/nodemask.hh"
#include "common/types.hh"

namespace cais
{

/** All packet kinds that traverse the fabric. */
enum class PacketType : std::uint8_t
{
    // Plain shared-memory traffic.
    readReq,            ///< request for data at addr (switch->GPU or P2P)
    readResp,           ///< data response
    writeReq,           ///< remote write carrying data
    writeAck,           ///< completion ack for a remote write

    // Stock NVLS multimem traffic (communication-centric).
    multimemSt,         ///< push-mode multicast store (AllGather)
    multimemLdReduceReq,///< pull-mode gather-reduce request
    multimemLdReduceResp,///< reduced data returned to the requester
    multimemRed,        ///< push-mode reduction contribution

    // CAIS compute-aware traffic.
    caisLoadReq,        ///< ld.cais remote read request (mergeable)
    caisLoadResp,       ///< data response generated by the merge unit
    caisRedReq,         ///< red.cais reduction contribution (mergeable)
    caisMergedWrite,    ///< merged reduction result written to home GPU

    // TB-group coordination traffic (empty packets, header only).
    groupSyncReq,       ///< synchronizer -> switch registration
    groupSyncRelease,   ///< switch -> all GPUs release broadcast
    throttleHint,       ///< switch -> GPU request-throttling feedback
};

/** Virtual-channel classes; CAIS separates load and reduction VCs. */
enum class VcClass : std::uint8_t
{
    request = 0,   ///< read/load requests
    response = 1,  ///< data responses (load traffic, S2G heavy)
    reduction = 2, ///< reduction contributions (G2S heavy)
    multicast = 3, ///< multicast store data
    sync = 4,      ///< group-sync empty packets
    control = 5,   ///< acks, throttle hints
    numClasses = 6
};

/** One-flit header per packet (16 B flits per the paper's config). */
constexpr std::uint32_t packetHeaderBytes = 16;

/**
 * Software-collective protocol overhead: padded packets carry
 * payload/protocolPadDivisor extra wire bytes, derating NVLS/NCCL
 * class collectives to ~2/3 of raw link bandwidth (matching measured
 * NCCL-NVLS algorithmic bandwidth on H100 systems).
 */
constexpr std::uint32_t protocolPadDivisor = 2;

/**
 * Node id as a packet carries it. Node ids stay below
 * NodeMask::capacity: GPUs and switches share the 128-bit participant
 * masks, and FabricParams enforces the bound on every shape.
 */
using PacketNode = std::int16_t;

static_assert(NodeMask::capacity - 1 <=
                  std::numeric_limits<PacketNode>::max(),
              "every node id must fit a packet's 16-bit node fields");

// A contribution count never exceeds the GPU count, which RunConfig
// bounds by maxFabricGpus.
static_assert(maxFabricGpus <= std::numeric_limits<std::int16_t>::max(),
              "every contribution count must fit a packet's 16-bit "
              "expected/contribs fields");

/**
 * A packet in flight: one 64-byte cache line. Fields are ordered by
 * size so none leaves interior padding (one spare byte at the end).
 * Causal-profiler provenance is not carried here: CreditLink and
 * SwitchChip keep it in rings parallel to their queues, allocated only
 * when a profiler is attached.
 */
struct Packet
{
    std::uint64_t id = 0;
    Addr addr = 0;        ///< session key for merging / target memory

    /** Opaque correlation token set by the issuing hub. */
    std::uint64_t cookie = 0;

    std::uint32_t payloadBytes = 0; ///< data bytes carried
    std::uint32_t reqBytes = 0;     ///< bytes requested (read requests)

    /**
     * Protocol overhead bytes occupying the wire but carrying no
     * tensor data (collective protocol flags, sub-128B flit padding;
     * NCCL-class collectives sustain ~75% of raw link bandwidth).
     * Hardware-semantic CAIS/P2P accesses carry none. 32-bit: it
     * scales with chunkBytes, which has no upper bound.
     */
    std::uint32_t padBytes = 0;

    KernelId kernel = invalidId;
    TbId tb = invalidId;
    GroupId group = invalidId;

    PacketNode src = invalidId;       ///< node id (GPU or switch)
    PacketNode dst = invalidId;       ///< node id (GPU or switch)
    PacketNode issuerGpu = invalidId; ///< original requester GPU

    /** Contributions the switch should expect (reductions/loads). */
    std::int16_t expected = 0;

    /** Reduction contributions this packet represents (merged writes). */
    std::int16_t contribs = 0;

    PacketType type = PacketType::readReq;
    VcClass vc = VcClass::request;

    /**
     * Hierarchical in-switch hop count: 0 for GPU-issued packets, 1
     * for a leaf's upstream leg toward the spine, 2 for the spine's
     * downstream leg toward other leaves. Lets one packet type carry
     * all tiers of a hierarchical multicast/reduction.
     */
    std::uint8_t tierHop = 0;

    /** Receiver should send a writeAck back to the source GPU. */
    bool needAck = false;

    /** For read requests under a padded protocol: the data response
     *  (not this request) must carry reqBytes/protocolPadDivisor of
     *  padding. */
    bool padResponse = false;

    /** Bytes the packet occupies on a link. */
    std::uint32_t wireBytes() const
    {
        return payloadBytes + padBytes + packetHeaderBytes;
    }
};

static_assert(sizeof(Packet) == 64, "a Packet is one cache line");

/** Default VC class used for each packet type. */
VcClass defaultVcClass(PacketType t);

/**
 * VC after traffic-control policy: with @p unified_data_vc set, all
 * data classes (response/reduction/multicast) share the reduction VC,
 * modelling the head-of-line blocking CAIS's traffic control removes.
 */
VcClass policedVc(VcClass vc, bool unified_data_vc);

/** Diagnostic name of a packet type. */
const char *packetTypeName(PacketType t);

/**
 * Per-simulation packet-id source. Each Fabric owns one, so ids are
 * unique within a System, restart from 1 for every System, and two
 * concurrently running Systems never observe each other's counter
 * (the bit-identical CAIS_JOBS=1 vs CAIS_JOBS=N guarantee of the
 * sweep layer depends on this).
 */
class PacketIdAllocator
{
  public:
    std::uint64_t next() { return ++counter; }

    /** Ids handed out so far (last id returned by next()). */
    std::uint64_t issued() const { return counter; }

    void reset() { counter = 0; }

  private:
    std::uint64_t counter = 0;
};

/**
 * Cookie namespace tags: the top byte of a cookie identifies which
 * switch unit issued a fetch, so read responses returning to the
 * switch can be dispatched without ambiguity.
 */
constexpr int cookieTagShift = 56;
constexpr std::uint64_t cookieTagMerge = 1ull << cookieTagShift;
constexpr std::uint64_t cookieTagNvls = 2ull << cookieTagShift;
constexpr std::uint64_t cookieIdMask = (1ull << cookieTagShift) - 1;

/**
 * Convenience builder: fills type, vc (default class), src, dst and a
 * fresh id from @p ids.
 */
Packet makePacket(PacketIdAllocator &ids, PacketType t, int src,
                  int dst);

} // namespace cais

#endif // CAIS_NOC_PACKET_HH
