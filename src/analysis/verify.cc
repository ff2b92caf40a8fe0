#include "analysis/verify.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <tuple>

#include "analysis/bound_model.hh"
#include "analysis/causal_profile.hh"

#include "common/json.hh"
#include "common/log.hh"
#include "common/nodemask.hh"
#include "noc/network.hh"

namespace cais
{
namespace verify
{

namespace
{

const char *
vcClassName(int v)
{
    switch (v) {
      case 0: return "request";
      case 1: return "response";
      case 2: return "reduction";
      case 3: return "multicast";
      case 4: return "sync";
      case 5: return "control";
      default: return "data";
    }
}

const RuleInfo &
ruleInfo(const char *id)
{
    for (const RuleInfo &r : ruleTable())
        if (std::string(id) == r.id)
            return r;
    static const RuleInfo unknown{"??", "", ""};
    return unknown;
}

struct Ctx
{
    const System &sys;
    const Options &opts;
    std::vector<Diagnostic> &out;

    bool
    enabled(const char *rule) const
    {
        return opts.suppress.count(rule) == 0;
    }

    void
    report(const char *rule, std::string message,
           std::vector<std::string> path = {})
    {
        out.push_back({rule, std::move(message), ruleInfo(rule).hint,
                       std::move(path)});
    }
};

// ------------------------------------------------------------------
// V1: channel-dependency-graph acyclicity (Dally & Seitz)
// ------------------------------------------------------------------

/**
 * One protocol coupling: a node that received a class-`from` packet
 * emits a class-`to` packet on the opposite link direction. Together
 * with the switch forwarding paths these generate every edge of the
 * channel-dependency graph.
 */
struct Coupling
{
    VcClass from;
    VcClass to;
};

/** Switch-turn couplings (uplink arrival -> downlink emission),
 *  mirroring the merge unit, NVLS unit and group sync table. */
const std::vector<Coupling> &
switchCouplings()
{
    static const std::vector<Coupling> c = {
        // Plain forwarding keeps the class (readReq/readResp/
        // writeReq/writeAck unicast between GPUs).
        {VcClass::request, VcClass::request},
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::reduction},
        {VcClass::control, VcClass::control},
        // Merge unit: caisLoadReq opens a fetch (readReq to home);
        // the returning readResp produces caisLoadResp broadcasts;
        // caisRedReq completion emits the merged write; throttling
        // feedback rides the control class.
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::control},
        // NVLS unit: multimem.st replicates as multicast writes plus
        // a posted-store ack; multimem.ld_reduce fetches via readReq
        // and responds on the response class; multimem.red updates
        // every replica on the reduction class.
        {VcClass::multicast, VcClass::multicast},
        {VcClass::multicast, VcClass::control},
        // Group sync table: registration in, release broadcast out.
        {VcClass::sync, VcClass::sync},
    };
    return c;
}

/** GPU-turn couplings (downlink arrival -> uplink emission): the hub
 *  serves reads with data responses and acks landed writes. */
const std::vector<Coupling> &
gpuCouplings()
{
    static const std::vector<Coupling> c = {
        {VcClass::request, VcClass::response},
        {VcClass::reduction, VcClass::control},
        {VcClass::multicast, VcClass::control},
    };
    return c;
}

/** Leaf-to-spine couplings: everything a leaf emits upstream keeps
 *  its class — plain unicast transit, the merge proxy fetch
 *  (caisLoadReq), partial reductions (caisRedReq), the NVLS upstream
 *  legs and sync registrations are all class-identity. */
const std::vector<Coupling> &
leafUpCouplings()
{
    static const std::vector<Coupling> c = {
        {VcClass::request, VcClass::request},
        {VcClass::response, VcClass::response},
        {VcClass::reduction, VcClass::reduction},
        {VcClass::multicast, VcClass::multicast},
        {VcClass::sync, VcClass::sync},
        {VcClass::control, VcClass::control},
    };
    return c;
}

/**
 * The (from, to) VC pairs of one turn family: bit b of to[a] is set
 * when an arrival on VC a emits on VC b. Only the policed class VCs
 * carry couplings; higher VCs have no outgoing turns.
 */
struct VcTurns
{
    static constexpr int classes = static_cast<int>(VcClass::numClasses);

    std::uint8_t to[classes] = {};
    bool unified = false;

    void
    add(const Coupling &c)
    {
        to[static_cast<int>(policedVc(c.from, unified))] |=
            static_cast<std::uint8_t>(
                1u << static_cast<int>(policedVc(c.to, unified)));
    }

    unsigned
    of(int v) const
    {
        return v < classes ? to[v] : 0u;
    }
};

/**
 * One run of a node's edge targets: channel base + p * stride + b for
 * each position p in [0, count) and each VC b set in @p vcs. Strides
 * are multiples of the VC count, so a fan yields ascending ids.
 */
struct Fan
{
    int base = 0;
    int stride = 0;
    int count = 0;
    unsigned vcs = 0;
};

/** A node's outgoing edges: at most two fans, the first one's ids
 *  below the second's, so together they are sorted and unique. */
struct Fans
{
    Fan fan[2];
    int n = 0;

    void
    add(int base, int stride, int count, unsigned vcs)
    {
        if (vcs != 0 && count > 0)
            fan[n++] = Fan{base, stride, count, vcs};
    }
};

/** Flat channel index space: (direction, gpu, switch, vc). A switch
 *  turns every GPU's uplink to every GPU's downlink on the same
 *  switch; a GPU turns its downlink back up the same switch. */
struct FlatChannels
{
    static constexpr int families = 2; ///< up, down

    int G, S, V;
    VcTurns sw, gpu;

    /** First channel of family @p f; familyBase(families) == count(). */
    int familyBase(int f) const { return f * G * S * V; }

    int
    id(int dir, GpuId g, SwitchId s, int v) const
    {
        return ((dir * G + g) * S + s) * V + v;
    }

    int
    count() const
    {
        return 2 * G * S * V;
    }

    Fans
    targets(int node) const
    {
        const int v = node % V;
        const int s = node / V % S;
        const int g = node / (V * S) % G;
        Fans f;
        if (node < G * S * V)
            f.add(id(1, 0, s, 0), S * V, G, sw.of(v));
        else
            f.add(id(0, g, s, 0), V, 1, gpu.of(v));
        return f;
    }

    std::string
    name(int node) const
    {
        int v = node % V;
        int rest = node / V;
        int s = rest % S;
        rest /= S;
        int g = rest % G;
        int dir = rest / G;
        if (dir == 0)
            return strfmt("gpu%d->sw%d vc%d(%s)", g, s, v,
                          vcClassName(v));
        return strfmt("sw%d->gpu%d vc%d(%s)", s, g, v,
                      vcClassName(v));
    }
};

/**
 * Multi-tier channel index space. Four channel families -- GPU->leaf
 * (U1) and leaf->GPU (D1) indexed by (gpu, rail), and leaf->spine (U2)
 * / spine->leaf (D2) indexed by (leaf, spine) -- with turns mirroring
 * the tiered protocol: a leaf turns local traffic down with the flat
 * switch couplings and forwards upstream class-identically; the spine
 * turns every upstream arrival down with the switch couplings; a leaf
 * fans spine traffic out to its local GPUs; GPUs couple downlink
 * arrivals to uplink emissions exactly as on the flat fabric.
 */
struct TieredChannels
{
    static constexpr int families = 4; ///< U1, D1, U2, D2

    int G, V, rails, L, P, gpp;
    VcTurns sw, up, gpu;

    int
    familyBase(int f) const
    {
        const int base[families + 1] = {0, d1(), u2(), d2(), count()};
        return base[f];
    }

    int d1() const { return G * rails * V; }
    int u2() const { return 2 * G * rails * V; }
    int d2() const { return u2() + L * P * V; }
    int count() const { return d2() + P * L * V; }

    int U1(GpuId g, int r) const { return (g * rails + r) * V; }
    int D1(GpuId g, int r) const { return d1() + (g * rails + r) * V; }
    int U2(int l, int sp) const { return u2() + (l * P + sp) * V; }
    int D2(int sp, int l) const { return d2() + (sp * L + l) * V; }

    Fans
    targets(int node) const
    {
        Fans f;
        if (node < d1()) { // GPU -> leaf: turn down locally, or go up
            const int v = node % V, gr = node / V;
            const GpuId g = gr / rails;
            const int r = gr % rails;
            f.add(D1(g / gpp * gpp, r), rails * V, gpp, sw.of(v));
            f.add(U2(g / gpp * rails + r, 0), V, P, up.of(v));
        } else if (node < u2()) { // leaf -> GPU: the GPU turns up
            const int idx = node - d1(), v = idx % V, gr = idx / V;
            f.add(U1(gr / rails, gr % rails), V, 1, gpu.of(v));
        } else if (node < d2()) { // leaf -> spine: spine turns down
            const int idx = node - u2(), v = idx % V;
            f.add(D2(idx / V % P, 0), V, L, sw.of(v));
        } else { // spine -> leaf: fan out to the leaf's GPUs
            const int idx = node - d2(), v = idx % V, l = idx / V % L;
            f.add(D1(l / rails * gpp, l % rails), rails * V, gpp,
                  sw.of(v));
        }
        return f;
    }

    std::string
    name(int node) const
    {
        if (node < u2()) {
            bool down = node >= d1();
            int idx = down ? node - d1() : node;
            int v = idx % V;
            int gr = idx / V;
            int r = gr % rails;
            GpuId g = gr / rails;
            int grp = g / gpp;
            if (down)
                return strfmt("leaf%d.sw%d->gpu%d vc%d(%s)", grp, r,
                              g, v, vcClassName(v));
            return strfmt("gpu%d->leaf%d.sw%d vc%d(%s)", g, grp, r, v,
                          vcClassName(v));
        }
        bool down = node >= d2();
        int idx = down ? node - d2() : node - u2();
        int v = idx % V;
        int lp = idx / V;
        int l = down ? lp % L : lp / P;
        int sp = down ? lp / L : lp % P;
        if (down)
            return strfmt("spine.sw%d->leaf%d.sw%d vc%d(%s)", sp,
                          l / rails, l % rails, v, vcClassName(v));
        return strfmt("leaf%d.sw%d->spine.sw%d vc%d(%s)", l / rails,
                      l % rails, sp, v, vcClassName(v));
    }
};

/**
 * V1's VC-class graph: node f * classes + v stands for every channel
 * of link family f on VC v, and bit f' * classes + v' of its row is
 * set when such a channel feeds one of family f' on VC v'. Only the
 * policed class VCs carry turns, in or out, so higher VCs are left
 * out. Every channel edge maps to a class edge, so an acyclic class
 * graph proves the channel graph acyclic.
 */
struct ClassGraph
{
    static constexpr int classes = VcTurns::classes;
    static constexpr int maxFamilies = 4;
    static_assert(maxFamilies * classes < 32, "a row is one word");

    std::array<std::uint32_t, maxFamilies * classes> row{};

    /** Peel nodes without an edge into the live set; whatever is left
     *  when none can be peeled lies on or leads into a cycle. */
    bool
    cyclic() const
    {
        std::uint32_t live = (1u << row.size()) - 1;
        for (bool peeled = true; peeled;) {
            peeled = false;
            for (std::uint32_t m = live; m != 0; m &= m - 1) {
                const int n = std::countr_zero(m);
                if ((row[static_cast<std::size_t>(n)] & live) == 0) {
                    live &= ~(1u << n);
                    peeled = true;
                }
            }
        }
        return live != 0;
    }
};

/** The family holding channel @p node. */
template <typename Channels>
int
familyOf(const Channels &ch, int node)
{
    int f = 0;
    while (node >= ch.familyBase(f + 1))
        ++f;
    return f;
}

/**
 * Build @p ch's class graph from the first channel of each family on
 * each class VC (@p every_channel false) or from all of its channels.
 * The channels of one family differ only in their fans' positions,
 * never in the fans' families or VC masks, so both give the same rows.
 * A fan's base and stride are multiples of the VC count, so its VC
 * mask is the targets' VCs.
 */
template <typename Channels>
ClassGraph
classGraph(const Channels &ch, bool every_channel)
{
    ClassGraph g;
    for (int f = 0; f < Channels::families; ++f) {
        const int begin = ch.familyBase(f);
        const int end = ch.familyBase(f + 1);
        const int stop = every_channel
            ? end
            : std::min(end, begin + ClassGraph::classes);
        for (int node = begin; node < stop; ++node) {
            const int v = node % ch.V;
            if (v >= ClassGraph::classes)
                continue; // no turns leave an unpoliced VC
            const Fans fans = ch.targets(node);
            for (int i = 0; i < fans.n; ++i) {
                const Fan &fan = fans.fan[i];
                g.row[static_cast<std::size_t>(
                    f * ClassGraph::classes + v)] |=
                    fan.vcs << (familyOf(ch, fan.base) *
                                ClassGraph::classes);
            }
        }
    }
    return g;
}

/**
 * DFS for the first back edge, in ascending node order and over each
 * node's targets in ascending order, so reports are deterministic.
 * Targets are generated on demand from the node's fans; the walk keeps
 * only a color per node and its frame stack, and formats channel names
 * only for a reported cycle.
 */
template <typename Channels>
void
reportFirstChannelCycle(std::vector<Diagnostic> &out,
                        const Channels &ch)
{
    struct Frame
    {
        int node;
        Fans fans;
        int fi = 0;
        int pos = -1;
        unsigned rem = 0;

        /** The next target id, or -1 when the node is exhausted. */
        int
        next()
        {
            while (fi < fans.n) {
                const Fan &f = fans.fan[fi];
                if (rem != 0) {
                    const int b = std::countr_zero(rem);
                    rem &= rem - 1;
                    return f.base + pos * f.stride + b;
                }
                if (++pos < f.count) {
                    rem = f.vcs;
                } else {
                    ++fi;
                    pos = -1;
                }
            }
            return -1;
        }
    };

    const int count = ch.count();
    std::vector<std::uint8_t> color(static_cast<std::size_t>(count), 0);
    std::vector<Frame> stack;
    for (int root = 0; root < count; ++root) {
        if (color[static_cast<std::size_t>(root)] != 0)
            continue;
        color[static_cast<std::size_t>(root)] = 1;
        stack.push_back(Frame{root, ch.targets(root)});
        while (!stack.empty()) {
            const int t = stack.back().next();
            if (t < 0) {
                color[static_cast<std::size_t>(stack.back().node)] = 2;
                stack.pop_back();
            } else if (color[static_cast<std::size_t>(t)] == 1) {
                // Back edge: the stack from t's frame onward plus the
                // edge back to t is the cycle.
                auto it = std::find_if(
                    stack.begin(), stack.end(),
                    [t](const Frame &f) { return f.node == t; });
                std::vector<std::string> cyc;
                for (; it != stack.end(); ++it)
                    cyc.push_back(ch.name(it->node));
                cyc.push_back(ch.name(t));
                const std::size_t channels = cyc.size() - 1;
                out.push_back(
                    {"V1",
                     strfmt("channel-dependency cycle over %zu "
                            "port/VC channels: a filled buffer on "
                            "each waits on the next, so the fabric "
                            "can deadlock",
                            channels),
                     ruleInfo("V1").hint, std::move(cyc)});
                return;
            } else if (color[static_cast<std::size_t>(t)] == 0) {
                color[static_cast<std::size_t>(t)] = 1;
                stack.push_back(Frame{t, ch.targets(t)});
            }
        }
    }
}

/** Calls @p fn with @p p's channel space, its turns built from the
 *  coupling tables plus @p opts' injected couplings. */
template <typename F>
void
withChannels(const FabricParams &p, const Options &opts, F &&fn)
{
    VcTurns sw, gpu;
    sw.unified = gpu.unified = p.sw.unifiedDataVc;
    for (const Coupling &c : switchCouplings())
        sw.add(c);
    for (const Coupling &c : gpuCouplings())
        gpu.add(c);
    for (const ExtraCoupling &c : opts.extraCouplings)
        (c.atGpu ? gpu : sw).add(Coupling{c.from, c.to});

    if (p.multiTier()) {
        VcTurns up;
        up.unified = p.sw.unifiedDataVc;
        for (const Coupling &c : leafUpCouplings())
            up.add(c);
        fn(TieredChannels{p.numGpus, p.sw.numVcs, p.railsPerGroup,
                          p.numLeaves(), p.numSpines, p.gpusPerGroup(),
                          sw, up, gpu});
    } else {
        fn(FlatChannels{p.numGpus, p.numSwitches, p.sw.numVcs, sw, gpu});
    }
}

/** The channel DFS runs only when the class graph has a cycle, which
 *  no shipped coupling table closes. */
void
checkV1(Ctx &cx)
{
    withChannels(cx.sys.config().fabric, cx.opts, [&](const auto &ch) {
        if (classGraph(ch, false).cyclic())
            reportFirstChannelCycle(cx.out, ch);
    });
}

// ------------------------------------------------------------------
// V2: credit conservation per (link, VC)
// ------------------------------------------------------------------

void
checkV2(Ctx &cx)
{
    const FabricParams &p = cx.sys.config().fabric;
    const Fabric &fab = cx.sys.fabric();

    // Uplink credits represent switch input-VC buffer slots; the
    // batched credit-return scheme conserves (credits held + credits
    // in flight + buffer occupancy) == vcDepth, so every link VC
    // must start with the full grant of vcDepth credits.
    //
    // forEachLink visits GPU-facing links in the historical (gpu,
    // switch, up-then-down) order, then the inter-switch tier links,
    // so flat-fabric diagnostics keep their seed ordering and
    // multi-tier shapes get the same conservation checks on every
    // leaf<->spine link.
    fab.forEachLink([&](const CreditLink &l) {
        if (l.numVcs() != p.sw.numVcs) {
            cx.report("V2",
                      strfmt("link %s has %d VCs but the switch "
                             "arbitrates %d",
                             l.name().c_str(), l.numVcs(),
                             p.sw.numVcs),
                      {l.name()});
            return;
        }
        for (int v = 0; v < l.numVcs(); ++v) {
            if (l.credits(v) != p.sw.vcDepth) {
                cx.report(
                    "V2",
                    strfmt("link %s vc%d holds %d credits before the "
                           "first event (expected the full grant of "
                           "%d)",
                           l.name().c_str(), v, l.credits(v),
                           p.sw.vcDepth),
                    {l.name(), strfmt("vc%d", v)});
                break;
            }
            if (l.queueLen(v) != 0) {
                cx.report(
                    "V2",
                    strfmt("link %s vc%d has %zu packets queued "
                           "before the first event",
                           l.name().c_str(), v, l.queueLen(v)),
                    {l.name(), strfmt("vc%d", v)});
                break;
            }
        }
    });
}

// ------------------------------------------------------------------
// V3: address-hash routing coverage for mergeable sessions
// ------------------------------------------------------------------

bool
isSessionKind(RemoteOpKind k)
{
    return k == RemoteOpKind::caisLoad || k == RemoteOpKind::caisRed ||
           k == RemoteOpKind::nvlsLdReduce ||
           k == RemoteOpKind::nvlsSt || k == RemoteOpKind::nvlsRed;
}

const char *
kindName(RemoteOpKind k)
{
    switch (k) {
      case RemoteOpKind::plainLoad: return "ld.global";
      case RemoteOpKind::plainWrite: return "st.global";
      case RemoteOpKind::nvlsLdReduce: return "multimem.ld_reduce";
      case RemoteOpKind::nvlsSt: return "multimem.st";
      case RemoteOpKind::nvlsRed: return "multimem.red";
      case RemoteOpKind::caisLoad: return "ld.cais";
      case RemoteOpKind::caisRed: return "red.cais";
      default: return "?";
    }
}

bool
isSessionCounted(RemoteOpKind k)
{
    return k == RemoteOpKind::caisRed || k == RemoteOpKind::nvlsRed ||
           k == RemoteOpKind::caisLoad;
}

bool
isReductionSession(RemoteOpKind k)
{
    return k == RemoteOpKind::caisRed || k == RemoteOpKind::nvlsRed;
}

/**
 * The per-session checks of one kernel, in (kind, base, bytes) order:
 * every issuer must agree on the expected participant count, the
 * count must be one hierarchical merging can localize, and a
 * reduction session needs exactly one contribution from each of
 * `expected` GPUs. Only kernels the SessionTable flags come here.
 */
void
reportSessions(Ctx &cx, const KernelDesc &k)
{
    const int G = cx.sys.numGpus();
    struct OpGroup
    {
        std::map<GpuId, int> perGpu;
        std::set<int> expected;
    };
    std::map<std::tuple<int, Addr, std::uint64_t>, OpGroup> groups;
    for (GpuId g = 0; g < G; ++g) {
        const TbGrid &grid = k.grid(g);
        for (auto ops : {grid.allPulls(), grid.allPushes()}) {
            for (const RemoteOp &op : ops) {
                if (!isSessionCounted(op.kind))
                    continue;
                OpGroup &grp = groups[{static_cast<int>(op.kind),
                                       op.base, op.bytes}];
                ++grp.perGpu[g];
                grp.expected.insert(op.expected);
            }
        }
    }

    for (const auto &[key, grp] : groups) {
        const auto &[kind, base, bytes] = key;
        RemoteOpKind rk = static_cast<RemoteOpKind>(kind);
        if (grp.expected.size() > 1) {
            std::vector<std::string> path = {k.name,
                                             kindName(rk)};
            for (int e : grp.expected)
                path.push_back(strfmt("expected=%d", e));
            cx.report(
                "V3",
                strfmt("kernel %s: GPUs disagree on the expected "
                       "participant count of the %s session at "
                       "0x%llx",
                       k.name.c_str(), kindName(rk),
                       static_cast<unsigned long long>(base)),
                std::move(path));
            continue;
        }
        // Hierarchical merging localizes a session's participant
        // count per tier (tier.localExpected), which is well-defined
        // only for the two shapes the protocol produces: all G GPUs,
        // or all but the session's home. Any other count cannot be
        // attributed to leaves without knowing which GPUs abstain.
        if (cx.sys.config().fabric.multiTier()) {
            int e = *grp.expected.begin();
            if (e > 0 && e != G && e != G - 1) {
                cx.report(
                    "V3",
                    strfmt("kernel %s: %s session at 0x%llx expects "
                           "%d participants on a multi-tier fabric "
                           "(hierarchical merging supports only all "
                           "%d GPUs or the %d non-home GPUs)",
                           k.name.c_str(), kindName(rk),
                           static_cast<unsigned long long>(base), e,
                           G, G - 1),
                    {k.name,
                     strfmt("addr=0x%llx",
                            static_cast<unsigned long long>(base)),
                     strfmt("expected=%d", e)});
                continue;
            }
        }
        // Reduction sessions complete only when exactly `expected`
        // contributions arrive; a participant-count mismatch stalls
        // the session (or trips the duplicate-contribution check).
        if (isReductionSession(rk)) {
            int expected = *grp.expected.begin();
            if (expected <= 0)
                expected = G;
            int issuers = static_cast<int>(grp.perGpu.size());
            if (issuers != expected) {
                cx.report(
                    "V3",
                    strfmt("kernel %s: %s session at 0x%llx expects "
                           "%d contributions but %d GPU(s) issue it",
                           k.name.c_str(), kindName(rk),
                           static_cast<unsigned long long>(base),
                           expected, issuers),
                    {k.name, strfmt("addr=0x%llx",
                                    static_cast<unsigned long long>(
                                        base)),
                     strfmt("expected=%d", expected),
                     strfmt("issuers=%d", issuers)});
                continue;
            }
            for (const auto &[g, n] : grp.perGpu) {
                if (n != 1) {
                    cx.report(
                        "V3",
                        strfmt("kernel %s: GPU %d contributes %d "
                               "times to the %s session at 0x%llx "
                               "(exactly one contribution per GPU "
                               "closes the session)",
                               k.name.c_str(), g, n, kindName(rk),
                               static_cast<unsigned long long>(
                                   base)),
                        {k.name, strfmt("gpu%d", g),
                         strfmt("contribs=%d", n)});
                    break;
                }
            }
        }
    }
}

/**
 * One kernel's merge/reduction sessions, keyed by (kind, base,
 * bytes) in an open-addressed table that is reused across kernels:
 * generation stamps empty it in O(1), and it only grows (at half
 * load), so the clean path allocates nothing once the table fits the
 * kernel with the most sessions.
 */
class SessionTable
{
  public:
    /** Start the next kernel. */
    void
    reset()
    {
        used.clear();
        ++gen;
    }

    /** Record GPU @p g issuing @p op. */
    void
    add(const RemoteOp &op, GpuId g)
    {
        if (2 * (used.size() + 1) > slots.size())
            grow();
        Slot &s = slots[probe(op.kind, op.base, op.bytes)];
        if (s.gen != gen) {
            s = Slot{op.base, op.bytes, NodeMask::bit(g), op.expected,
                     gen, op.kind, false, false};
            used.push_back(static_cast<std::uint32_t>(&s - slots.data()));
            return;
        }
        s.mixed |= s.expected != op.expected;
        s.duplicate |= s.issuers.test(g);
        s.issuers.set(g);
    }

    /** Some session of this kernel fails a reportSessions check. */
    bool
    suspicious(int gpus, bool tiered) const
    {
        for (std::uint32_t i : used) {
            const Slot &s = slots[i];
            if (s.mixed)
                return true;
            int e = s.expected;
            if (tiered && e > 0 && e != gpus && e != gpus - 1)
                return true;
            if (isReductionSession(s.kind) &&
                (s.duplicate || s.issuers.count() != (e > 0 ? e : gpus)))
                return true;
        }
        return false;
    }

  private:
    struct Slot
    {
        Addr base = 0;
        std::uint64_t bytes = 0;
        NodeMask issuers;
        int expected = 0;
        std::uint32_t gen = 0;
        RemoteOpKind kind = RemoteOpKind::plainLoad;
        bool mixed = false;
        bool duplicate = false;
    };

    /** The key's slot, or the empty one where it belongs. */
    std::size_t
    probe(RemoteOpKind kind, Addr base, std::uint64_t bytes) const
    {
        // Fibonacci hashing: the product's top bits index the table.
        std::uint64_t h = (base ^ (bytes << 40) ^
                           static_cast<std::uint64_t>(kind)) *
                          0x9e3779b97f4a7c15ull;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = static_cast<std::size_t>(h >> shift);;
             i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (s.gen != gen ||
                (s.base == base && s.bytes == bytes && s.kind == kind))
                return i;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots.size()));
        old.swap(slots);
        shift = 64 - std::countr_zero(slots.size());
        for (std::uint32_t &i : used) {
            const Slot &s = old[i];
            i = static_cast<std::uint32_t>(probe(s.kind, s.base, s.bytes));
            slots[i] = s;
        }
    }

    std::vector<Slot> slots;
    std::vector<std::uint32_t> used;
    int shift = 64;
    std::uint32_t gen = 1;
};

void
checkV3(Ctx &cx)
{
    const SystemConfig &sc = cx.sys.config();
    const std::uint64_t interleave = sc.fabric.interleaveBytes;
    const std::uint64_t chunk = sc.gpu.chunkBytes;
    const Fabric &fab = cx.sys.fabric();
    const bool tiered = sc.fabric.multiTier();
    const int G = cx.sys.numGpus();

    // Switches an address's merge traffic lands on: its rail (its
    // switch on flat shapes) and, on multi-tier ones, its spine.
    auto sameSwitches = [&](Addr a, Addr b) {
        return fab.routeAddr(a) == fab.routeAddr(b) &&
               (!tiered ||
                fab.spineNodeForAddr(a) == fab.spineNodeForAddr(b));
    };
    auto where = [&](Addr a) {
        return tiered ? strfmt("rail%d/spine.sw%d", fab.routeAddr(a),
                               fab.spineNodeForAddr(a) -
                                   fab.switchNodeId(
                                       sc.fabric.numLeaves()))
                      : strfmt("sw%d", fab.routeAddr(a));
    };

    // A chunk never straddles an interleave block when chunks tile
    // the blocks and the op starts on a chunk boundary (chunk is a
    // power of two behind the front door).
    const bool chunksTileBlocks = interleave % chunk == 0;
    const bool chunkPow2 = (chunk & (chunk - 1)) == 0;
    auto chunkAligned = [&](Addr a) {
        return chunkPow2 ? (a & (chunk - 1)) == 0 : a % chunk == 0;
    };

    // A session chunk spanning two interleave blocks splits one
    // address class across two switches (routing keys on the chunk
    // base), unless both blocks hash to the same one. @return the
    // offset of @p op's first such chunk, or op.bytes if none.
    auto firstStraddle = [&](const RemoteOp &op) -> std::uint64_t {
        if (chunksTileBlocks && chunkAligned(op.base))
            return op.bytes;
        std::uint64_t off = 0;
        int scanned = 0;
        while (off < op.bytes && scanned++ < 4096) {
            std::uint64_t n = std::min<std::uint64_t>(chunk,
                                                      op.bytes - off);
            Addr a = op.base + off;
            Addr z = a + n - 1;
            if (a / interleave != z / interleave && !sameSwitches(a, z))
                return off;
            off += n;
        }
        return op.bytes;
    };

    // Straddles report in issue order (TB by TB, pulls before pushes).
    auto reportStraddles = [&](const KernelDesc &k) {
        for (GpuId g = 0; g < G; ++g) {
            const TbGrid &grid = k.grid(g);
            for (const TbDesc &tb : grid.tbs) {
                for (auto ops : {grid.pullOps(tb), grid.pushOps(tb)}) {
                    for (const RemoteOp &op : ops) {
                        if (!isSessionKind(op.kind))
                            continue;
                        const std::uint64_t off = firstStraddle(op);
                        if (off == op.bytes)
                            continue;
                        const std::uint64_t n = std::min<std::uint64_t>(
                            chunk, op.bytes - off);
                        const Addr a = op.base + off;
                        const Addr z = a + n - 1;
                        cx.report(
                            "V3",
                            strfmt("kernel %s: %s chunk at 0x%llx "
                                   "(+%llu B) straddles interleave "
                                   "blocks, splitting one address "
                                   "class across %s and %s",
                                   k.name.c_str(), kindName(op.kind),
                                   static_cast<unsigned long long>(a),
                                   static_cast<unsigned long long>(n),
                                   where(a).c_str(), where(z).c_str()),
                            {k.name,
                             strfmt("addr=0x%llx",
                                    static_cast<unsigned long long>(a)),
                             where(a), where(z)});
                    }
                }
            }
        }
    };

    // One flat sweep per op array finds straddles and fills the
    // session table (whose checks do not depend on op order); only a
    // kernel with a straddle is walked again, in TB order, to report
    // it. The per-session checks follow for every kernel the table
    // flags, in kernel order. The issuer mask holds one bit per GPU.
    const bool maskFits = G <= NodeMask::capacity;
    SessionTable table;
    std::vector<KernelId> flagged;
    for (std::size_t ki = 0; ki < cx.sys.numKernels(); ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        table.reset();
        bool straddled = false;
        for (GpuId g = 0; g < G; ++g) {
            const TbGrid &grid = k.grid(g);
            for (auto ops : {grid.allPulls(), grid.allPushes()}) {
                for (const RemoteOp &op : ops) {
                    if (!isSessionKind(op.kind))
                        continue;
                    straddled |= firstStraddle(op) != op.bytes;
                    if (maskFits && isSessionCounted(op.kind))
                        table.add(op, g);
                }
            }
        }
        if (straddled)
            reportStraddles(k);
        if (!maskFits || table.suspicious(G, tiered))
            flagged.push_back(k.id);
    }
    for (KernelId kid : flagged)
        reportSessions(cx, cx.sys.kernel(kid));
}

// ------------------------------------------------------------------
// V4: TB-group / Group-Sync-Table consistency
// ------------------------------------------------------------------

void
checkV4(Ctx &cx)
{
    const SystemConfig &sc = cx.sys.config();
    const int G = cx.sys.numGpus();

    // The sync and merge tables track participants in a fixed-width
    // node mask; on multi-tier fabrics leaf-switch node ids register
    // alongside GPU ids, so the whole node-id space must fit.
    const int nodes = G + sc.fabric.numSwitches;
    if (nodes > NodeMask::capacity) {
        cx.report(
            "V4",
            strfmt("%d GPUs plus %d switches exceed the %d-entry "
                   "group-sync participant mask",
                   G, sc.fabric.numSwitches, NodeMask::capacity),
            {strfmt("numGpus=%d", G),
             strfmt("numSwitches=%d", sc.fabric.numSwitches)});
    }

    std::vector<int> counts;
    std::vector<GroupId> ids;
    for (std::size_t ki = 0; ki < cx.sys.numKernels(); ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        if (!k.preLaunchSync && !k.preAccessSync)
            continue;
        // TBs per (group, GPU), dense over the kernel's group ids:
        // groups come from allocGroups, so [lo, hi] is contiguous;
        // sparse ids (hand-built kernels) index by rank instead.
        GroupId lo = 0, hi = -1;
        std::size_t grouped = 0;
        for (GpuId g = 0; g < G; ++g)
            for (const TbDesc &tb : k.grid(g).tbs)
                if (tb.group != invalidId) {
                    lo = grouped ? std::min(lo, tb.group) : tb.group;
                    hi = grouped ? std::max(hi, tb.group) : tb.group;
                    ++grouped;
                }
        if (grouped == 0)
            continue;
        const bool sparse =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) -
                                       lo) >= grouped;
        ids.clear();
        if (sparse) {
            for (GpuId g = 0; g < G; ++g)
                for (const TbDesc &tb : k.grid(g).tbs)
                    if (tb.group != invalidId)
                        ids.push_back(tb.group);
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        }
        auto rowOf = [&](GroupId group) {
            return sparse ? static_cast<std::size_t>(
                                std::lower_bound(ids.begin(), ids.end(),
                                                 group) -
                                ids.begin())
                          : static_cast<std::size_t>(group - lo);
        };
        const std::size_t rows =
            sparse ? ids.size() : static_cast<std::size_t>(hi - lo) + 1;
        counts.assign(rows * static_cast<std::size_t>(G), 0);
        for (GpuId g = 0; g < G; ++g)
            for (const TbDesc &tb : k.grid(g).tbs)
                if (tb.group != invalidId)
                    ++counts[rowOf(tb.group) *
                                 static_cast<std::size_t>(G) +
                             static_cast<std::size_t>(g)];

        for (std::size_t row = 0; row < rows; ++row) {
            const int *perGpu = &counts[row * static_cast<std::size_t>(G)];
            const GroupId group =
                sparse ? ids[row] : lo + static_cast<GroupId>(row);
            int spanned = 0;
            bool oversized = false;
            for (GpuId g = 0; g < G; ++g) {
                const int n = perGpu[g];
                spanned += n > 0;
                if (n > 1) {
                    cx.report(
                        "V4",
                        strfmt("kernel %s: TB group %lld has %d TBs "
                               "on GPU %d (the sync table counts "
                               "each GPU once, so extra TBs never "
                               "release)",
                               k.name.c_str(),
                               static_cast<long long>(group), n, g),
                        {k.name,
                         strfmt("group=%lld",
                                static_cast<long long>(group)),
                         strfmt("gpu%d", g), strfmt("tbs=%d", n)});
                    oversized = true;
                    break;
                }
            }
            if (oversized || spanned == 0)
                continue;
            if (spanned != G) {
                std::vector<std::string> path = {
                    k.name,
                    strfmt("group=%lld",
                           static_cast<long long>(group))};
                for (GpuId g = 0; g < G; ++g)
                    if (perGpu[g] == 0)
                        path.push_back(strfmt("missing gpu%d", g));
                cx.report(
                    "V4",
                    strfmt("kernel %s: TB group %lld spans %d "
                           "GPU(s) but the release broadcast waits "
                           "for all %d",
                           k.name.c_str(),
                           static_cast<long long>(group), spanned,
                           G),
                    std::move(path));
            }
        }
    }

    // Throttle-threshold reachability: the merge unit counts open
    // sessions per group, which is bounded by the merging-table entry
    // capacity and by the fleet-wide outstanding-load cap.
    const MergeParams &mp = sc.inswitch.merge;
    if (mp.throttleEnabled) {
        if (mp.tableBytesPerPort > 0 && mp.chunkBytes > 0) {
            std::uint64_t entries =
                mp.tableBytesPerPort / mp.chunkBytes;
            if (static_cast<std::uint64_t>(mp.throttleThreshold) >
                entries) {
                cx.report(
                    "V4",
                    strfmt("throttle threshold %d exceeds the %llu "
                           "merging-table entries per port, so the "
                           "hint level is unreachable",
                           mp.throttleThreshold,
                           static_cast<unsigned long long>(entries)),
                    {strfmt("throttleThreshold=%d",
                            mp.throttleThreshold),
                     strfmt("tableEntriesPerPort=%llu",
                            static_cast<unsigned long long>(
                                entries))});
            }
        }
        std::uint64_t fleetCap =
            static_cast<std::uint64_t>(G) *
            static_cast<std::uint64_t>(
                sc.gpu.maxCaisLoadOutstanding);
        if (static_cast<std::uint64_t>(mp.throttleThreshold) >
            fleetCap) {
            cx.report(
                "V4",
                strfmt("throttle threshold %d exceeds the fleet-wide "
                       "outstanding-request cap %llu (%d GPUs x %d), "
                       "so the hint level is unreachable",
                       mp.throttleThreshold,
                       static_cast<unsigned long long>(fleetCap), G,
                       sc.gpu.maxCaisLoadOutstanding),
                {strfmt("throttleThreshold=%d", mp.throttleThreshold),
                 strfmt("fleetCap=%llu",
                        static_cast<unsigned long long>(fleetCap))});
        }
    }
}

// ------------------------------------------------------------------
// V5: kernel-graph sanity
// ------------------------------------------------------------------

void
checkV5(Ctx &cx)
{
    const std::size_t N = cx.sys.numKernels();

    // Tracker -> producing kernels, in kernel order. Tracker ids are
    // indices into the system's trackers; a negative one names none.
    std::vector<std::vector<std::size_t>> producers;
    for (std::size_t ki = 0; ki < N; ++ki) {
        const int t = cx.sys.kernel(static_cast<KernelId>(ki))
                          .producesTracker;
        if (t < 0)
            continue;
        if (static_cast<std::size_t>(t) >= producers.size())
            producers.resize(static_cast<std::size_t>(t) + 1);
        producers[static_cast<std::size_t>(t)].push_back(ki);
    }

    // Dependency edges: explicit kernelDeps plus tile-level
    // producer/consumer edges through the trackers. Every edge added
    // while visiting kernel ki ends at ki, so each target list comes
    // out ascending; skipping a repeat of its last entry deduplicates.
    std::vector<std::vector<std::size_t>> adj(N);
    auto addEdge = [&](std::size_t from, std::size_t to) {
        if (adj[from].empty() || adj[from].back() != to)
            adj[from].push_back(to);
    };
    std::vector<std::uint8_t> seen(producers.size(), 0);
    std::vector<int> depTrackers;
    for (std::size_t ki = 0; ki < N; ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        for (KernelId d : k.kernelDeps) {
            if (d < 0 || static_cast<std::size_t>(d) >= N) {
                cx.report("V5",
                          strfmt("kernel %s depends on unknown "
                                 "kernel id %d",
                                 k.name.c_str(), d),
                          {k.name, strfmt("dep=%d", d)});
                continue;
            }
            addEdge(static_cast<std::size_t>(d), ki);
        }
        // Each produced tracker this kernel waits on, once. The set
        // does not depend on the GPU, so a shared grid is read once.
        depTrackers.clear();
        for (const TbGrid &grid : k.grids)
            for (const TileRef &ref : grid.allDeps()) {
                const int t = ref.tracker;
                if (t < 0 ||
                    static_cast<std::size_t>(t) >= producers.size() ||
                    seen[static_cast<std::size_t>(t)])
                    continue;
                seen[static_cast<std::size_t>(t)] = 1;
                depTrackers.push_back(t);
            }
        for (int t : depTrackers) {
            seen[static_cast<std::size_t>(t)] = 0;
            for (std::size_t p : producers[static_cast<std::size_t>(t)])
                if (p != ki)
                    addEdge(p, ki);
        }
    }

    auto kernelName = [&](std::size_t ki) {
        return cx.sys.kernel(static_cast<KernelId>(ki)).name;
    };

    // Cycle detection (DFS, deterministic order). A kernel finishes
    // after all its targets, so its reachability row -- one bit per
    // kernel -- is filled once, from theirs, when it finishes.
    const std::size_t W = (N + 63) / 64;
    std::vector<std::uint64_t> reach(N * W, 0);
    auto finish = [&](std::size_t node) {
        std::uint64_t *row = &reach[node * W];
        for (std::size_t t : adj[node]) {
            row[t / 64] |= std::uint64_t{1} << (t % 64);
            const std::uint64_t *from = &reach[t * W];
            for (std::size_t w = 0; w < W; ++w)
                row[w] |= from[w];
        }
    };
    std::vector<std::uint8_t> color(N, 0);
    std::vector<std::size_t> pathStack;
    std::vector<std::pair<std::size_t, std::size_t>> frames;
    for (std::size_t root = 0; root < N; ++root) {
        if (color[root] != 0)
            continue;
        frames.emplace_back(root, 0);
        color[root] = 1;
        pathStack = {root};
        while (!frames.empty()) {
            auto &[node, next] = frames.back();
            if (next < adj[node].size()) {
                std::size_t t = adj[node][next++];
                if (color[t] == 1) {
                    auto it = std::find(pathStack.begin(),
                                        pathStack.end(), t);
                    std::vector<std::string> cyc;
                    for (; it != pathStack.end(); ++it)
                        cyc.push_back(kernelName(*it));
                    cyc.push_back(kernelName(t));
                    const std::size_t kernels = cyc.size() - 1;
                    cx.report(
                        "V5",
                        strfmt("kernel dependency cycle over %zu "
                               "kernel(s): none of them can ever "
                               "launch",
                               kernels),
                        std::move(cyc));
                    return; // reachability below assumes a DAG
                }
                if (color[t] == 0) {
                    color[t] = 1;
                    frames.emplace_back(t, 0);
                    pathStack.push_back(t);
                }
            } else {
                color[node] = 2;
                finish(node);
                frames.pop_back();
                pathStack.pop_back();
            }
        }
    }
    auto reaches = [&](std::size_t from, std::size_t to) {
        return (reach[from * W + to / 64] >> (to % 64)) & 1u;
    };

    // Traffic direction of each SM-partitioned kernel (the only ones
    // the overlap rule pairs): +1 pure pull (stresses the
    // switch-to-GPU direction), -1 pure push (GPU-to-switch), 0 mixed
    // or local-only.
    std::vector<int> dir(N, 0);
    std::vector<bool> partial(N, false);
    for (std::size_t ki = 0; ki < N; ++ki) {
        const KernelDesc &k =
            cx.sys.kernel(static_cast<KernelId>(ki));
        partial[ki] = k.smFrom > 0.0 || k.smTo < 1.0;
        if (!partial[ki])
            continue;
        // Only the signs count, so a shared grid is read once.
        std::uint64_t pull = 0, push = 0;
        for (const TbGrid &grid : k.grids) {
            for (const RemoteOp &op : grid.allPulls())
                pull += op.bytes;
            for (const RemoteOp &op : grid.allPushes())
                push += op.bytes;
        }
        if (pull > 0 && push == 0)
            dir[ki] = 1;
        else if (push > 0 && pull == 0)
            dir[ki] = -1;
    }

    // Asymmetric-overlap pairs: SM-disjoint, unordered kernels that
    // both press the same link direction saturate it instead of
    // overlapping complementary traffic (Sec. III-C.2).
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = i + 1; j < N; ++j) {
            if (!partial[i] || !partial[j])
                continue;
            if (dir[i] == 0 || dir[i] != dir[j])
                continue;
            if (reaches(i, j) || reaches(j, i))
                continue;
            const KernelDesc &a =
                cx.sys.kernel(static_cast<KernelId>(i));
            const KernelDesc &b =
                cx.sys.kernel(static_cast<KernelId>(j));
            bool disjoint = a.smTo <= b.smFrom || b.smTo <= a.smFrom;
            if (!disjoint)
                continue;
            cx.report(
                "V5",
                strfmt("asymmetric-overlap pair %s / %s runs on "
                       "disjoint SM partitions with no ordering but "
                       "both %s: the shared link direction "
                       "saturates instead of overlapping",
                       a.name.c_str(), b.name.c_str(),
                       dir[i] > 0 ? "pull" : "push"),
                {a.name, b.name, dir[i] > 0 ? "pull" : "push"});
        }
    }
}

} // namespace

// ------------------------------------------------------------------
// Public API
// ------------------------------------------------------------------

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {"V1",
         "virtual-channel channel-dependency graph must be acyclic "
         "across switch chips and credit links, including the "
         "leaf/spine tier hops of multi-tier fabrics",
         "break the coupling cycle: give the generated traffic class "
         "its own VC or decouple buffer hold from emission"},
        {"V2",
         "link credits, receiver buffer capacities and batched credit "
         "returns must balance per (link, VC)",
         "start every link VC with the full grant of "
         "SwitchParams::vcDepth credits and an empty send queue: "
         "send nothing before the first event"},
        {"V3",
         "every mergeable address class maps to exactly one switch "
         "(one rail per tier on multi-tier fabrics) and all GPUs "
         "agree on session membership",
         "align session bases to the chunk size, keep the interleave "
         "a multiple of it, and issue one contribution per "
         "participating GPU"},
        {"V4",
         "TB groups match the Group Sync Table: one TB per "
         "participating GPU on every GPU, masks and throttle "
         "thresholds within capacity",
         "emit one TB per (group, GPU) across all GPUs and keep the "
         "throttle threshold within table and outstanding-request "
         "capacity"},
        {"V5",
         "kernel and tile-level producer/consumer dependencies are "
         "acyclic; asymmetric-overlap pairs have complementary "
         "traffic directions",
         "remove the dependency back edge, or pair a pull-direction "
         "kernel with a push-direction one on the disjoint SM "
         "partition"},
        {"V8",
         "the simulated makespan must be at least the static "
         "analytical bound of every resource class (SM compute, HBM, "
         "link serialization, merge service, kernel critical path)",
         "a makespan below the bound is a simulator bug: audit the "
         "resource model the diagnostic names, or the bound term if "
         "the model intentionally overlaps that cost"},
        {"V9",
         "when sim/bound exceeds the configured slack ratio, the "
         "causal profiler must attribute the slack (coverage >= 95%)",
         "profile the run (RunConfig::profile) and inspect the "
         "dominant wait class, or raise the slack ratio if the "
         "workload is legitimately far from its bound"},
    };
    return table;
}

std::string
VerifyResult::text() const
{
    if (diagnostics.empty())
        return "cais-verify: clean (0 diagnostics)\n";
    std::string out =
        strfmt("cais-verify: %zu diagnostic(s)\n", diagnostics.size());
    for (const Diagnostic &d : diagnostics) {
        out += "[" + d.id + "] " + d.message + "\n";
        if (!d.hint.empty())
            out += "  fix: " + d.hint + "\n";
        if (!d.path.empty()) {
            out += "  path: ";
            for (std::size_t i = 0; i < d.path.size(); ++i) {
                if (i)
                    out += " -> ";
                out += d.path[i];
            }
            out += "\n";
        }
    }
    return out;
}

std::string
VerifyResult::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

void
VerifyResult::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", verifySchemaVersion);
    if (!strategy.empty())
        w.field("strategy", strategy);
    if (!workload.empty())
        w.field("workload", workload);
    w.key("counts").beginObject();
    for (const RuleInfo &r : ruleTable()) {
        std::uint64_t n = 0;
        for (const Diagnostic &d : diagnostics)
            if (d.id == r.id)
                ++n;
        w.field(r.id, n);
    }
    w.endObject();
    w.key("diagnostics").beginArray();
    for (const Diagnostic &d : diagnostics) {
        w.beginObject();
        w.field("id", d.id);
        w.field("message", d.message);
        w.field("hint", d.hint);
        w.key("path").beginArray();
        for (const std::string &p : d.path)
            w.value(p);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

VerifyResult
verifySystem(const System &sys, const Options &opts)
{
    VerifyResult r;
    r.strategy = opts.strategy;
    r.workload = opts.workload;
    Ctx cx{sys, opts, r.diagnostics};
    if (cx.enabled("V1"))
        checkV1(cx);
    if (cx.enabled("V2"))
        checkV2(cx);
    if (cx.enabled("V3"))
        checkV3(cx);
    if (cx.enabled("V4"))
        checkV4(cx);
    if (cx.enabled("V5"))
        checkV5(cx);
    return r;
}

V1Graphs
v1Graphs(const FabricParams &fabric, const Options &opts)
{
    V1Graphs r;
    withChannels(fabric, opts, [&](const auto &ch) {
        const ClassGraph reps = classGraph(ch, false);
        const ClassGraph all = classGraph(ch, true);
        r.fromRepresentatives.assign(reps.row.begin(), reps.row.end());
        r.fromEveryChannel.assign(all.row.begin(), all.row.end());
        r.classCyclic = reps.cyclic();
        std::vector<Diagnostic> found;
        reportFirstChannelCycle(found, ch);
        r.channelCyclic = !found.empty();
    });
    return r;
}

VerifyResult
verifyRun(const StrategySpec &spec, const OpGraph &graph,
          const RunConfig &cfg, const Options &opts)
{
    cfg.validate();
    System sys(cfg.toSystemConfig(spec));
    GraphLowering lowering(sys, graph, spec.opts);
    lowering.lower();
    Options o = opts;
    if (o.strategy.empty())
        o.strategy = spec.name;
    return verifySystem(sys, o);
}

VerifyResult
verifyPostRun(const System &sys, const BoundResult &bound,
              Cycle makespan, const Attribution *attr,
              const Options &opts)
{
    (void)sys; // context only; the rules act on the finished numbers
    VerifyResult r;
    r.strategy = opts.strategy;
    r.workload = opts.workload;

    const std::pair<const char *, Cycle> classes[] = {
        {"smCompute", bound.smCompute},
        {"hbm", bound.hbm},
        {"linkSerialization", bound.linkSerialization},
        {"mergeService", bound.mergeService},
        {"criticalPath", bound.criticalPath},
    };

    if (!opts.suppress.count("V8")) {
        for (const auto &[name, cyc] : classes) {
            if (makespan >= cyc)
                continue;
            Diagnostic d;
            d.id = "V8";
            d.message = strfmt(
                "simulated makespan %llu cycles is below the static "
                "%s bound of %llu cycles (composite bound %llu, "
                "binding resource %s)",
                static_cast<unsigned long long>(makespan), name,
                static_cast<unsigned long long>(cyc),
                static_cast<unsigned long long>(bound.composite),
                bound.binding.c_str());
            d.hint =
                "a run faster than its resource floor is a simulator "
                "bug: audit the model behind the named resource, or "
                "the bound term if the cost is intentionally "
                "overlapped";
            d.path = {std::string("resource:") + name};
            r.diagnostics.push_back(std::move(d));
        }
    }

    if (opts.v9SlackRatio > 0.0 && !opts.suppress.count("V9") &&
        bound.composite > 0 &&
        static_cast<double>(makespan) >
            opts.v9SlackRatio * static_cast<double>(bound.composite)) {
        const bool explained = attr != nullptr &&
                               attr->coverage() >= 0.95;
        if (!explained) {
            std::size_t dom = 1; // dominant attributed class (skip
                                 // index 0 = unattributed)
            if (attr != nullptr) {
                for (std::size_t i = 2; i < attr->byClass.size(); ++i)
                    if (attr->byClass[i] > attr->byClass[dom])
                        dom = i;
            }
            Diagnostic d;
            d.id = "V9";
            const double ratio =
                static_cast<double>(makespan) /
                static_cast<double>(bound.composite);
            if (attr == nullptr) {
                d.message = strfmt(
                    "sim/bound ratio %.2f exceeds the slack threshold "
                    "%.2f (makespan %llu vs composite bound %llu, "
                    "binding %s) and no profiler attribution is "
                    "available to explain the slack",
                    ratio, opts.v9SlackRatio,
                    static_cast<unsigned long long>(makespan),
                    static_cast<unsigned long long>(bound.composite),
                    bound.binding.c_str());
            } else {
                d.message = strfmt(
                    "sim/bound ratio %.2f exceeds the slack threshold "
                    "%.2f (makespan %llu vs composite bound %llu, "
                    "binding %s) and the profiler explains only "
                    "%.1f%% of the makespan (dominant wait class %s)",
                    ratio, opts.v9SlackRatio,
                    static_cast<unsigned long long>(makespan),
                    static_cast<unsigned long long>(bound.composite),
                    bound.binding.c_str(), attr->coverage() * 100.0,
                    waitClassName(static_cast<WaitClass>(dom)));
            }
            d.hint =
                "profile the run (RunConfig::profile) and chase the "
                "dominant wait class, or raise boundSlackRatio if the "
                "workload legitimately runs this far from its bound";
            d.path = {std::string("binding:") + bound.binding};
            r.diagnostics.push_back(std::move(d));
        }
    }
    return r;
}

} // namespace verify
} // namespace cais
