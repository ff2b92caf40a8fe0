#include "analysis/causal_profile.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <tuple>

#include "analysis/trace.hh"
#include "common/json.hh"

namespace cais
{

const char *
waitClassName(WaitClass c)
{
    switch (c) {
    case WaitClass::unattributed:
        return "unattributed";
    case WaitClass::smCompute:
        return "smCompute";
    case WaitClass::hbm:
        return "hbm";
    case WaitClass::linkSerialization:
        return "linkSerialization";
    case WaitClass::creditStall:
        return "creditStall";
    case WaitClass::vcArbitration:
        return "vcArbitration";
    case WaitClass::mergeWait:
        return "mergeWait";
    case WaitClass::syncBarrier:
        return "syncBarrier";
    case WaitClass::nvlsFanout:
        return "nvlsFanout";
    case WaitClass::schedulerIdle:
        return "schedulerIdle";
    case WaitClass::hubInjection:
        return "hubInjection";
    case WaitClass::launch:
        return "launch";
    case WaitClass::depWait:
        return "depWait";
    case WaitClass::numClasses:
        break;
    }
    return "?";
}

CausalProfiler::CausalProfiler() = default;
CausalProfiler::~CausalProfiler() = default;

void
CausalProfiler::record(ProfNode dst, WaitClass cls, Cycle t0,
                       Cycle t1, ProfNode src, Cycle src_t)
{
    WaitEdge e;
    e.dst = dst;
    e.cls = cls;
    e.t0 = std::min(t0, t1);
    e.t1 = t1;
    if (src == 0) {
        // No enabling cause: self-continue backward in time so the
        // walk keeps attributing instead of breaking the chain.
        src = dst;
        src_t = e.t0;
    }
    e.src = src;
    e.srcT = std::min(src_t, t1);
    edges.push_back(e);
}

void
CausalProfiler::record(ProfNode dst, WaitClass cls, Cycle t0,
                       Cycle t1)
{
    record(dst, cls, t0, t1, cause, causeT);
}

ProfNode
CausalProfiler::causeNode() const
{
    return cause;
}

Cycle
CausalProfiler::causeTime() const
{
    return causeT;
}

void
CausalProfiler::setName(ProfNode node, const std::string &name)
{
    names[node] = name;
}

std::uint32_t
CausalProfiler::addLink(const std::string &name)
{
    std::uint32_t id = nextLinkId++;
    names[profnode::link(id)] = name;
    return id;
}

void
CausalProfiler::finalize()
{
    if (finalized)
        return;
    // Canonical order: the full-tuple sort makes the log, and
    // everything derived from it, independent of recording order.
    std::sort(edges.begin(), edges.end(),
              [](const WaitEdge &a, const WaitEdge &b) {
                  return std::tie(a.dst, a.t1, a.t0, a.cls, a.src,
                                  a.srcT) <
                         std::tie(b.dst, b.t1, b.t0, b.cls, b.src,
                                  b.srcT);
              });
    finalized = true;
}

Attribution
CausalProfiler::analyze(ProfNode start, Cycle makespan) const
{
    Attribution a;
    a.makespan = makespan;
    a.start = start;

    // Per-dst contiguous ranges over the sorted edge vector.
    struct Range
    {
        std::size_t lo, hi;
    };
    std::unordered_map<ProfNode, Range> index;
    for (std::size_t i = 0; i < edges.size();) {
        std::size_t j = i;
        while (j < edges.size() && edges[j].dst == edges[i].dst)
            ++j;
        index.emplace(edges[i].dst, Range{i, j});
        i = j;
    }

    ProfNode node = start;
    Cycle t = makespan;
    // Bound the walk: zero-time hops cannot cycle forever.
    std::size_t steps = 4 * edges.size() + 64;
    while (t > 0 && steps-- > 0) {
        auto it = index.find(node);
        if (it == index.end())
            break;
        // Last edge at this dst with t1 <= t: max t1, then max t0,
        // then last in canonical order — fully deterministic.
        std::size_t lo = it->second.lo;
        std::size_t hi = it->second.hi;
        auto cmp = [](const WaitEdge &e, Cycle tt) {
            return e.t1 <= tt;
        };
        std::size_t idx = lo;
        {
            // upper bound over e.t1 <= t
            std::size_t count = hi - lo;
            std::size_t first = lo;
            while (count > 0) {
                std::size_t step = count / 2;
                std::size_t mid = first + step;
                if (cmp(edges[mid], t)) {
                    first = mid + 1;
                    count -= step + 1;
                } else {
                    count = step;
                }
            }
            if (first == lo)
                break; // no edge ends at or before t
            idx = first - 1;
        }
        // Skip degenerate records that make no progress in either
        // node or time (self edge whose cause time equals t).
        while (edges[idx].src == node &&
               std::min(edges[idx].srcT, t) == t) {
            if (idx == lo) {
                idx = hi; // sentinel: nothing usable
                break;
            }
            --idx;
        }
        if (idx == hi)
            break;
        const WaitEdge &e = edges[idx];
        Cycle t_next = std::min(e.srcT, t);
        if (t_next < t) {
            PathSegment seg;
            seg.node = node;
            seg.cls = e.cls;
            seg.t0 = t_next;
            seg.t1 = t;
            a.path.push_back(seg);
            a.byClass[static_cast<std::size_t>(e.cls)] += t - t_next;
        }
        node = e.src;
        t = t_next;
    }
    if (t > 0)
        a.byClass[static_cast<std::size_t>(
            WaitClass::unattributed)] += t;
    std::reverse(a.path.begin(), a.path.end());
    return a;
}

std::string
CausalProfiler::nodeName(ProfNode n) const
{
    auto it = names.find(n);
    if (it != names.end())
        return it->second;
    char buf[64];
    std::uint64_t payload =
        n & ((std::uint64_t(1) << profnode::typeShift) - 1);
    switch (profnode::typeOf(n)) {
    case profnode::typeRoot:
        return "root";
    case profnode::typeKernel:
        std::snprintf(buf, sizeof(buf), "kernel#%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeTb:
        std::snprintf(
            buf, sizeof(buf), "tb k%llu g%llu t%llu",
            static_cast<unsigned long long>((payload >> 36) &
                                            0xFFFFF),
            static_cast<unsigned long long>((payload >> 24) & 0xFFF),
            static_cast<unsigned long long>(payload & 0xFFFFFF));
        return buf;
    case profnode::typeTile:
        std::snprintf(
            buf, sizeof(buf), "tile tr%llu g%llu i%llu",
            static_cast<unsigned long long>((payload >> 44) & 0xFFF),
            static_cast<unsigned long long>((payload >> 32) & 0xFFF),
            static_cast<unsigned long long>(payload & 0xFFFFFFFF));
        return buf;
    case profnode::typeHub:
        std::snprintf(buf, sizeof(buf), "hub g%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeHubQueue:
        std::snprintf(buf, sizeof(buf), "hubq g%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeHbm:
        std::snprintf(buf, sizeof(buf), "hbm g%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeSched:
        std::snprintf(buf, sizeof(buf), "sched g%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeLink:
        std::snprintf(buf, sizeof(buf), "link#%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeMerge:
        std::snprintf(buf, sizeof(buf), "merge sw%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeSync:
        std::snprintf(buf, sizeof(buf), "sync sw%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    case profnode::typeNvls:
        std::snprintf(buf, sizeof(buf), "nvls sw%llu",
                      static_cast<unsigned long long>(payload));
        return buf;
    default:
        break;
    }
    std::snprintf(buf, sizeof(buf), "node#%llu",
                  static_cast<unsigned long long>(n));
    return buf;
}

std::string
CausalProfiler::toJson(const Attribution &a,
                       const std::string &strategy,
                       const std::string &workload) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", schemaVersion);
    w.field("strategy", strategy);
    w.field("workload", workload);
    w.field("makespan", a.makespan);
    w.field("edges", static_cast<std::uint64_t>(edges.size()));
    w.field("attributedCycles", a.attributed());
    w.field("coverage", a.coverage());
    w.key("attribution").beginArray();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(WaitClass::numClasses); ++i) {
        w.beginObject();
        w.field("class",
                waitClassName(static_cast<WaitClass>(i)));
        w.field("cycles", a.byClass[i]);
        w.field("share",
                a.makespan == 0
                    ? 0.0
                    : static_cast<double>(a.byClass[i]) /
                          static_cast<double>(a.makespan));
        w.endObject();
    }
    w.endArray();
    w.key("criticalPath").beginArray();
    for (const PathSegment &s : a.path) {
        w.beginObject();
        w.field("node", nodeName(s.node));
        w.field("class", waitClassName(s.cls));
        w.field("start", s.t0);
        w.field("end", s.t1);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
CausalProfiler::writeFile(const std::string &path,
                          const Attribution &a,
                          const std::string &strategy,
                          const std::string &workload) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << toJson(a, strategy, workload) << "\n";
    return static_cast<bool>(f);
}

void
CausalProfiler::emitFlameLanes(TraceCollector &tc, int pid,
                               const Attribution &a) const
{
    tc.nameProcess(pid, "critical path");
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(WaitClass::numClasses); ++i)
        tc.nameLane(pid, static_cast<int>(i),
                    waitClassName(static_cast<WaitClass>(i)));
    for (const PathSegment &s : a.path)
        tc.addSpan(nodeName(s.node), "critical-path", pid,
                   static_cast<int>(s.cls), s.t0, s.t1);
}

} // namespace cais
