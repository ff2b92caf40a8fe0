/**
 * @file
 * Merging Table of the CAIS merge unit (Fig. 5): per-session partial
 * state — cached data for loads, accumulated sums for reductions, the
 * session status (Load-Wait / Load-Ready / Reduction), a merged-request
 * counter and the request metadata Content Array.
 *
 * One MergingTable instance models the table at one switch port (the
 * port facing the session's home GPU); capacity is expressed in bytes
 * as in the paper ("40 KB per-port Merge Table, 320 entries").
 */

#ifndef CAIS_SWITCHCOMPUTE_MERGING_TABLE_HH
#define CAIS_SWITCHCOMPUTE_MERGING_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/nodemask.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "switchcompute/cam_table.hh"

namespace cais
{

/** Session status field of a merging-table entry. */
enum class SessionState : std::uint8_t
{
    invalid,
    loadWait,  ///< fetch outstanding toward the home GPU
    loadReady, ///< data cached; serving requesters
    reduction, ///< accumulating contributions
};

/** One merging-table entry. */
struct MergeEntry
{
    SessionState state = SessionState::invalid;
    Addr addr = 0;
    GpuId homeGpu = invalidId;
    GroupId group = invalidId;

    /** Number of merged requests so far. */
    int count = 0;
    /** Requests expected before the session completes. */
    int expected = 0;
    /** Fabric-wide participant count, forwarded upstream by leaf
     *  switches so the spine knows when the combine is complete. */
    int globalExpected = 0;
    /** Bitmask of nodes that contributed (throttling bookkeeping;
     *  GPU ids at leaves, leaf node ids at the spine). */
    NodeMask contribMask;

    /** Data bytes this session occupies in the table. */
    std::uint32_t bytes = 0;

    Cycle allocatedAt = 0;
    Cycle firstRequestAt = 0;
    Cycle lastAccess = 0;

    /** Content Array: requester metadata awaiting deferred response. */
    std::vector<Packet> pendingRequesters;

    bool valid() const { return state != SessionState::invalid; }
    bool isLoad() const
    {
        return state == SessionState::loadWait ||
               state == SessionState::loadReady;
    }
};

/** Fixed-capacity slot array with an associated CAM. */
class MergingTable
{
  public:
    /**
     * @param capacity_bytes table capacity; 0 means unbounded (used to
     *        measure the minimal required size, Fig. 13a).
     * @param chunk_bytes session data footprint (one request chunk).
     */
    MergingTable(std::uint64_t capacity_bytes, std::uint32_t chunk_bytes);

    /** Active session for (addr, is_load), or nullptr. */
    MergeEntry *find(Addr addr, bool is_load);

    /**
     * Allocate a session; returns nullptr when the table is full (the
     * caller must evict first). The entry is keyed in the CAM.
     */
    MergeEntry *allocate(Addr addr, bool is_load);

    /** Release a session and free its slot. */
    void release(MergeEntry *e);

    bool full() const;
    std::size_t liveEntries() const { return live; }
    std::uint64_t liveBytes() const
    {
        return static_cast<std::uint64_t>(live) * chunk;
    }

    /** High-water marks for the table-sizing study. */
    std::size_t peakEntries() const { return peakLive; }
    std::uint64_t peakBytes() const
    {
        return static_cast<std::uint64_t>(peakLive) * chunk;
    }

    std::uint32_t chunkBytes() const { return chunk; }
    std::size_t capacityEntries() const { return maxEntries; }

    /** Entries the table's storage is backed for: 0 until the first
     *  session, then the capacity of a bounded table. */
    std::size_t storageEntries() const { return entries.capacity(); }

    /** All slots (valid and not) for eviction scans / timeout sweeps. */
    std::vector<MergeEntry> &slots() { return entries; }

  private:
    std::uint64_t capacity;
    std::uint32_t chunk;
    std::size_t maxEntries; ///< 0 == unbounded

    CamLookupTable cam;
    std::vector<MergeEntry> entries;
    std::vector<int> freeList;
    std::size_t live = 0;
    std::size_t peakLive = 0;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_MERGING_TABLE_HH
