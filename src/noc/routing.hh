/**
 * @file
 * Deterministic routing for merging convergence (Sec. III-A.5).
 *
 * A lightweight hash on the request address (above the interleave
 * granularity) maps every request to a fixed switch, guaranteeing that
 * mergeable requests from different GPUs targeting the same address
 * are processed by the same merge unit. Group-sync traffic hashes the
 * group id the same way.
 *
 * On multi-tier fabrics the same hash composes across tiers: the rail
 * (leaf within a group) is the address hash modulo the rail count, and
 * the spine is a salted re-hash modulo the spine count — so all GPUs
 * still converge on one leaf per group and one spine fabric-wide.
 */

#ifndef CAIS_NOC_ROUTING_HH
#define CAIS_NOC_ROUTING_HH

#include <cstdint>

#include "common/types.hh"

namespace cais
{

/** Address/group to switch mapping shared by all GPUs. */
class DeterministicRouting
{
  public:
    DeterministicRouting(int num_switches, std::uint64_t interleave_bytes);

    /** Switch index (0-based) that owns @p addr. On multi-tier
     *  fabrics this is the rail index within a group. */
    SwitchId switchForAddr(Addr addr) const;

    /** Switch index that coordinates TB group @p g. */
    SwitchId switchForGroup(GroupId g) const;

    /** Spine index (0-based, out of @p num_spines) that owns @p addr:
     *  a salted re-hash, independent of the rail choice. */
    SwitchId spineForAddr(Addr addr, int num_spines) const;

    /** Spine index that coordinates TB group @p g. */
    SwitchId spineForGroup(GroupId g, int num_spines) const;

    int numSwitches() const { return switches; }
    std::uint64_t interleaveBytes() const { return interleave; }

    /** SplitMix64 finalizer; the "lightweight hash" of the paper. */
    static std::uint64_t mix64(std::uint64_t x);

  private:
    int switches;
    std::uint64_t interleave;
};

} // namespace cais

#endif // CAIS_NOC_ROUTING_HH
