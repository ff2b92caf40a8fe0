/**
 * @file
 * Anatomy of the CAIS merge unit: drives a single switch with
 * hand-crafted ld.cais / red.cais packets and narrates the
 * micro-function state transitions of Sec. III-A / Fig. 6 —
 * session allocation, Content-Array deferral, Load-Ready caching,
 * reduction accumulation, merged writes, and LRU eviction.
 *
 *   ./example_merge_unit_anatomy [gpus=4]
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "switchcompute/switch_compute.hh"

using namespace cais;

namespace
{

/** File-local packet-id allocator for hand-crafted packets. */
PacketIdAllocator ids;

struct NarratingGpu : public PacketSink
{
    EventQueue *eq = nullptr;
    CreditLink *up = nullptr;
    GpuId id = 0;

    void
    acceptPacket(Packet &&pkt, CreditLink *from, int vc) override
    {
        from->returnCredit(vc);
        switch (pkt.type) {
          case PacketType::readReq:
            std::printf("  [%6llu ns] gpu%d: switch fetches %u B at "
                        "0x%llx (home memory read)\n",
                        static_cast<unsigned long long>(eq->now()),
                        id, pkt.reqBytes,
                        static_cast<unsigned long long>(pkt.addr));
            {
                Packet resp = makePacket(ids, PacketType::readResp, id,
                                              pkt.src);
                resp.addr = pkt.addr;
                resp.payloadBytes = pkt.reqBytes;
                resp.cookie = pkt.cookie;
                up->send(std::move(resp));
            }
            return;
          case PacketType::caisLoadResp:
            std::printf("  [%6llu ns] gpu%d: ld.cais response, %u B "
                        "(cookie %llu)\n",
                        static_cast<unsigned long long>(eq->now()),
                        id, pkt.payloadBytes,
                        static_cast<unsigned long long>(pkt.cookie));
            return;
          case PacketType::caisMergedWrite:
            std::printf("  [%6llu ns] gpu%d: merged reduction write, "
                        "%u B carrying %d contributions\n",
                        static_cast<unsigned long long>(eq->now()),
                        id, pkt.payloadBytes, pkt.contribs);
            return;
          default:
            return;
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Params args = Params::fromArgs(argc, argv);
    int gpus = static_cast<int>(args.getInt("gpus", 4));

    EventQueue eq;
    PacketIdAllocator chip_ids;
    SwitchParams sp;
    SwitchChip sw(eq, chip_ids, 0, gpus, gpus, sp);
    InSwitchParams ip;
    ip.merge.tableBytesPerPort = 2 * ip.merge.chunkBytes; // tiny table
    SwitchComputeComplex complex(sw, ip);

    std::vector<std::unique_ptr<CreditLink>> ups, downs;
    std::vector<NarratingGpu> sinks(static_cast<std::size_t>(gpus));
    for (GpuId g = 0; g < gpus; ++g) {
        ups.push_back(std::make_unique<CreditLink>(
            eq, "up", 450.0, 250, sp.numVcs, 64, 10000));
        sw.attachUplink(g, ups.back().get());
        downs.push_back(std::make_unique<CreditLink>(
            eq, "dn", 450.0, 250, sp.numVcs, 64, 10000));
        sw.attachDownlink(g, downs.back().get());
        sinks[static_cast<std::size_t>(g)].eq = &eq;
        sinks[static_cast<std::size_t>(g)].id = g;
        sinks[static_cast<std::size_t>(g)].up = ups.back().get();
        downs.back()->setSink(&sinks[static_cast<std::size_t>(g)]);
    }

    std::printf("== micro-function 1: load request merging ==\n");
    std::printf("GPUs 1..%d issue ld.cais to the same address "
                "(home = GPU 0):\n", gpus - 1);
    Addr load_addr = makeAddr(0, 1 << 20);
    for (GpuId g = 1; g < gpus; ++g) {
        Packet p = makePacket(ids, PacketType::caisLoadReq, g, sw.nodeId());
        p.addr = load_addr;
        p.reqBytes = ip.merge.chunkBytes;
        p.expected = gpus - 1;
        p.issuerGpu = g;
        p.cookie = static_cast<std::uint64_t>(100 + g);
        ups[static_cast<std::size_t>(g)]->send(std::move(p));
    }
    eq.runUntil(20 * cyclesPerUs);

    const MergeStats &st = complex.merge().stats();
    std::printf("-> %llu requests, %llu fetch from home, %llu merged "
                "hits\n\n",
                static_cast<unsigned long long>(st.loadReqs.value()),
                static_cast<unsigned long long>(st.fetches.value()),
                static_cast<unsigned long long>(st.loadHits.value()));

    std::printf("== micro-function 2: reduction request merging ==\n");
    std::printf("GPUs 0..%d push red.cais partials for one tile "
                "(home = GPU %d):\n", gpus - 2, gpus - 1);
    Addr red_addr = makeAddr(gpus - 1, 1 << 16);
    for (GpuId g = 0; g < gpus - 1; ++g) {
        Packet p = makePacket(ids, PacketType::caisRedReq, g, sw.nodeId());
        p.addr = red_addr;
        p.payloadBytes = ip.merge.chunkBytes;
        p.expected = gpus - 1;
        p.issuerGpu = g;
        ups[static_cast<std::size_t>(g)]->send(std::move(p));
    }
    eq.runUntil(40 * cyclesPerUs);
    std::printf("-> %llu contributions accumulated, %llu merged "
                "write(s) to home\n\n",
                static_cast<unsigned long long>(st.redReqs.value()),
                static_cast<unsigned long long>(
                    st.mergedWrites.value()));

    std::printf("== eviction: the table holds only 2 sessions ==\n");
    for (int i = 0; i < 4; ++i) {
        Packet p = makePacket(ids, PacketType::caisRedReq, 0, sw.nodeId());
        p.addr = makeAddr(gpus - 1, (2u << 16) + 0x1000u *
                                        static_cast<unsigned>(i));
        p.payloadBytes = ip.merge.chunkBytes;
        p.expected = gpus - 1;
        p.issuerGpu = 0;
        ups[0]->send(std::move(p));
    }
    eq.runUntil(60 * cyclesPerUs);
    std::printf("-> LRU evictions: %llu (partials flushed to home), "
                "live sessions now: %zu\n",
                static_cast<unsigned long long>(
                    complex.merge().evictionStats()
                        .lruEvictions.value()),
                complex.merge().liveSessions());

    eq.runAll();
    std::printf("\nfinal: sessions opened %llu, fully merged %llu, "
                "stagger mean %.2f us\n",
                static_cast<unsigned long long>(
                    st.sessionsOpened.value()),
                static_cast<unsigned long long>(
                    st.sessionsClosed.value()),
                complex.merge().staggerHist().mean() / cyclesPerUs);
    return 0;
}
