#include "dataflow/tile_dependency.hh"

#include <algorithm>

#include "analysis/causal_profile.hh"
#include "common/event_queue.hh"
#include "common/log.hh"

namespace cais
{

TileTracker::TileTracker(std::string name, int num_gpus, int num_tiles,
                         std::uint64_t need_bytes_per_tile)
    : trackerName(std::move(name)), gpus(num_gpus), tiles(num_tiles),
      need(need_bytes_per_tile),
      got(static_cast<std::size_t>(num_gpus) *
              static_cast<std::size_t>(num_tiles),
          0),
      relevant(got.size(), true),
      relevantCount(num_gpus * num_tiles)
{
    if (num_gpus < 1 || num_tiles < 1 || need == 0)
        panic("tracker %s: bad dimensions", trackerName.c_str());
}

void
TileTracker::setRelevance(std::span<const int> shard_start)
{
    if (shard_start.size() != static_cast<std::size_t>(gpus) + 1)
        panic("tracker %s: %zu shard boundaries for %d GPUs",
              trackerName.c_str(), shard_start.size(), gpus);
    relevantCount = 0;
    readyCount = 0;
    for (GpuId g = 0; g < gpus; ++g) {
        for (int t = 0; t < tiles; ++t) {
            bool r = t >= shard_start[static_cast<std::size_t>(g)] &&
                     t < shard_start[static_cast<std::size_t>(g) + 1];
            relevant[index(g, t)] = r;
            if (r) {
                ++relevantCount;
                if (got[index(g, t)] >= need)
                    ++readyCount;
            }
        }
    }
}

void
TileTracker::setProfiler(CausalProfiler *pr, int tracker_idx,
                         EventQueue *eq)
{
    prof = pr;
    profIdx = tracker_idx;
    profEq = eq;
    if (prof)
        firstContribAt.assign(got.size(), ~Cycle{0});
}

void
TileTracker::contribute(GpuId gpu, int tile, std::uint64_t bytes)
{
    if (gpu < 0 || gpu >= gpus || tile < 0 || tile >= tiles)
        panic("tracker %s: contribution out of range (gpu %d tile %d)",
              trackerName.c_str(), gpu, tile);
    std::size_t i = index(gpu, tile);
    bool was_ready = got[i] >= need;
    got[i] += bytes;
    if (prof && firstContribAt[i] == ~Cycle{0})
        firstContribAt[i] = profEq->now();
    if (was_ready || got[i] < need)
        return;

    if (relevant[i])
        ++readyCount;

    std::uint64_t tile_node = 0;
    if (prof) {
        // The tile accumulated contributions from the first arrival
        // until this crossing one made it ready; whoever delivered the
        // crossing bytes (the active cause) is the enabling event.
        tile_node = profnode::tile(profIdx, gpu, tile);
        prof->record(tile_node, WaitClass::depWait, firstContribAt[i],
                     profEq->now());
    }
    // Waiters (consumer-TB dispatch, kernel readiness) are enabled by
    // this tile becoming ready, not directly by the landing write.
    CausalProfiler::ScopedCause sc(prof, tile_node,
                                   prof ? profEq->now() : 0);

    std::uint64_t k = static_cast<std::uint64_t>(i);
    auto it = waiters.find(k);
    if (it != waiters.end()) {
        std::vector<TbRecId> recs = std::move(it->second);
        waiters.erase(it);
        for (TbRecId rec : recs)
            listener->onTileReady(rec);
    }
    checkComplete();
}

bool
TileTracker::ready(GpuId gpu, int tile) const
{
    return got[index(gpu, tile)] >= need;
}

bool
TileTracker::complete() const
{
    return readyCount >= relevantCount;
}

void
TileTracker::waitFor(GpuId gpu, int tile, TbRecId rec)
{
    if (ready(gpu, tile)) {
        listener->onTileReady(rec);
        return;
    }
    waiters[static_cast<std::uint64_t>(index(gpu, tile))].push_back(rec);
}

void
TileTracker::waitComplete(KernelId k)
{
    if (complete()) {
        listener->onTrackerComplete(k);
        return;
    }
    completeWaiters.push_back(k);
}

void
TileTracker::checkComplete()
{
    if (!complete() || completeWaiters.empty())
        return;
    std::vector<KernelId> ks = std::move(completeWaiters);
    completeWaiters.clear();
    for (KernelId k : ks)
        listener->onTrackerComplete(k);
}

double
TileTracker::progress() const
{
    if (relevantCount == 0)
        return 1.0;
    return static_cast<double>(readyCount) /
           static_cast<double>(relevantCount);
}

void
AddressMap::addRange(Addr base, std::uint64_t bytes,
                     TileTracker *tracker, int first_tile,
                     std::uint64_t bytes_per_tile)
{
    if (!tracker || bytes == 0 || bytes_per_tile == 0)
        panic("address map: bad range");
    ranges.push_back(Range{base, bytes, tracker, first_tile,
                           bytes_per_tile});
    dirty = true;
}

bool
AddressMap::dispatch(GpuId gpu, Addr addr, std::uint32_t bytes,
                     int contribs)
{
    if (dirty) {
        std::sort(ranges.begin(), ranges.end(),
                  [](const Range &a, const Range &b) {
            return a.base < b.base;
        });
        dirty = false;
    }

    // Find the last range with base <= addr.
    auto it = std::upper_bound(ranges.begin(), ranges.end(), addr,
                               [](Addr a, const Range &r) {
        return a < r.base;
    });
    if (it == ranges.begin()) {
        unmatched.inc();
        return false;
    }
    --it;
    if (addr >= it->base + it->bytes) {
        unmatched.inc();
        return false;
    }

    std::uint64_t factor = contribs > 0
        ? static_cast<std::uint64_t>(contribs) : 1;

    // Spread the payload over the tiles it covers.
    std::uint64_t off = addr - it->base;
    std::uint64_t end = std::min<std::uint64_t>(off + bytes, it->bytes);
    while (off < end) {
        std::uint64_t tile_off = off % it->bytesPerTile;
        std::uint64_t span =
            std::min(it->bytesPerTile - tile_off, end - off);
        int tile = it->firstTile +
                   static_cast<int>(off / it->bytesPerTile);
        it->tracker->contribute(gpu, tile, span * factor);
        off += span;
    }
    return true;
}

} // namespace cais
