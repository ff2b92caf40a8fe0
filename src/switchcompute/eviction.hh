/**
 * @file
 * Eviction mechanism of the merge unit (Sec. III-A.4): LRU selection
 * among evictable sessions (Load-Ready and Reduction; Load-Wait is
 * deferred until the fetch returns) plus the timeout-based
 * forward-progress sweep.
 */

#ifndef CAIS_SWITCHCOMPUTE_EVICTION_HH
#define CAIS_SWITCHCOMPUTE_EVICTION_HH

#include <vector>

#include "common/stats.hh"
#include "switchcompute/merging_table.hh"

namespace cais
{

/** Eviction statistics exposed by the merge unit. */
struct EvictionStats
{
    Counter lruEvictions;
    Counter timeoutEvictions;
    Counter deferredEvictions; ///< LRU pick failed: all entries Load-Wait
};

/** Stateless policy helpers over one merging table. */
class EvictionPolicy
{
  public:
    explicit EvictionPolicy(Cycle timeout_cycles)
        : timeoutCycles(timeout_cycles)
    {}

    /**
     * Least-recently-used entry among evictable sessions, or nullptr
     * if every live session is in Load-Wait state.
     */
    MergeEntry *pickLruVictim(MergingTable &tbl) const;

    /**
     * Sessions whose last access is older than the timeout; Load-Wait
     * sessions are never returned (the fetch response will progress
     * them).
     */
    std::vector<MergeEntry *> expired(MergingTable &tbl, Cycle now) const;

    Cycle timeout() const { return timeoutCycles; }

    static bool
    evictable(const MergeEntry &e)
    {
        return e.state == SessionState::loadReady ||
               e.state == SessionState::reduction;
    }

  private:
    Cycle timeoutCycles;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_EVICTION_HH
