/**
 * @file
 * Fine-grained TB(tile)-level dependency tracking (Sec. III-C.1).
 *
 * A TileTracker follows the readiness of one tensor's tiles at each
 * GPU, counted in *bytes contributed*: a tile is ready at a GPU once
 * the accumulated bytes reach tileBytes x needFactor (needFactor > 1
 * expresses reduction semantics: G partial contributions must land).
 * Producers contribute either locally (a TB finished computing) or
 * via the fabric (an AddressMap dispatches landing writes). Consumer
 * TBs wait per (gpu, tile), by record id, enabling a consumer TB to
 * launch as soon as its inputs are available — before the producer
 * kernel finishes.
 */

#ifndef CAIS_DATAFLOW_TILE_DEPENDENCY_HH
#define CAIS_DATAFLOW_TILE_DEPENDENCY_HH

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/tb_listener.hh"

namespace cais
{

class CausalProfiler;
class EventQueue;

/** Readiness tracker for one tensor across GPUs. */
class TileTracker
{
  public:
    /**
     * @param need_bytes_per_tile bytes required for readiness
     *        (tile bytes x contribution factor).
     */
    TileTracker(std::string name, int num_gpus, int num_tiles,
                std::uint64_t need_bytes_per_tile);

    /**
     * Restrict completeness to each tile's home GPU. By default every
     * (gpu, tile) pair is relevant; a sharded tensor passes its shard
     * boundaries (G+1 non-decreasing entries): GPU g homes tiles
     * [shard_start[g], shard_start[g+1]).
     */
    void setRelevance(std::span<const int> shard_start);

    /** Receiver of waiter notifications. */
    void setListener(TbListener *l) { listener = l; }

    /**
     * Attach the causal profiler (DESIGN.md §6g). @p tracker_idx is
     * this tracker's dense index in System creation order (the
     * profile-node id space); @p eq supplies timestamps. Readiness
     * crossings then record tile wait-for edges and hand the tile
     * node to waiter callbacks as their enabling cause.
     */
    void setProfiler(CausalProfiler *pr, int tracker_idx,
                     EventQueue *eq);

    /** Add @p bytes toward (gpu, tile). */
    void contribute(GpuId gpu, int tile, std::uint64_t bytes);

    bool ready(GpuId gpu, int tile) const;

    /** All relevant (gpu, tile) pairs ready. */
    bool complete() const;

    /**
     * Notify onTileReady(@p rec) once (gpu, tile) is ready
     * (immediately if it already is), in registration order and
     * before any completion waiter.
     */
    void waitFor(GpuId gpu, int tile, TbRecId rec);

    /** Notify onTrackerComplete(@p k) once the tensor is complete. */
    void waitComplete(KernelId k);

    const std::string &name() const { return trackerName; }
    int numTiles() const { return tiles; }
    int numGpus() const { return gpus; }
    std::uint64_t needBytesPerTile() const { return need; }

    /** Ready relevant pairs / total relevant pairs. */
    double progress() const;

  private:
    std::size_t index(GpuId g, int t) const
    {
        return static_cast<std::size_t>(g) *
               static_cast<std::size_t>(tiles) +
               static_cast<std::size_t>(t);
    }

    void checkComplete();

    std::string trackerName;
    int gpus;
    int tiles;
    std::uint64_t need;

    std::vector<std::uint64_t> got;
    std::vector<bool> relevant;
    int relevantCount;
    int readyCount = 0;

    TbListener *listener = nullptr;
    std::unordered_map<std::uint64_t, std::vector<TbRecId>> waiters;
    std::vector<KernelId> completeWaiters;

    CausalProfiler *prof = nullptr;
    EventQueue *profEq = nullptr;
    int profIdx = 0;
    /** First-contribution cycle per (gpu, tile); ~0 = none yet. */
    std::vector<Cycle> firstContribAt;
};

/** Dispatches landing remote data to the owning tracker's tiles. */
class AddressMap
{
  public:
    /**
     * Register a contiguous range: tiles are laid out back-to-back,
     * tile (first_tile + k) covering
     * [base + k*bytes_per_tile, base + (k+1)*bytes_per_tile).
     */
    void addRange(Addr base, std::uint64_t bytes, TileTracker *tracker,
                  int first_tile, std::uint64_t bytes_per_tile);

    /**
     * Route an arrival at @p gpu to tracker tiles. @p contribs scales
     * the effective bytes (a merged reduction write carries several
     * contributions); 0 is treated as 1.
     * @return true if a range matched.
     */
    bool dispatch(GpuId gpu, Addr addr, std::uint32_t bytes,
                  int contribs);

    std::uint64_t unmatchedArrivals() const { return unmatched.value(); }

  private:
    struct Range
    {
        Addr base;
        std::uint64_t bytes;
        TileTracker *tracker;
        int firstTile;
        std::uint64_t bytesPerTile;
    };

    /** Sorted by base for binary search. */
    std::vector<Range> ranges;
    bool dirty = false;
    Counter unmatched;
};

} // namespace cais

#endif // CAIS_DATAFLOW_TILE_DEPENDENCY_HH
