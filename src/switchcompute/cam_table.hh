/**
 * @file
 * CAM Lookup Table of the CAIS merge unit (Fig. 5).
 *
 * Matches incoming requests by (address, request type) and yields the
 * Merging Table slot of the active session, mirroring the associative
 * search hardware described in Sec. III-A.2.
 */

#ifndef CAIS_SWITCHCOMPUTE_CAM_TABLE_HH
#define CAIS_SWITCHCOMPUTE_CAM_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace cais
{

/** Associative (addr, type) -> merging-table-slot map. */
class CamLookupTable
{
  public:
    static constexpr int noSlot = -1;

    /** Slot of the active session for (addr, is_load), or noSlot. */
    int lookup(Addr addr, bool is_load) const;

    /** Install a mapping; panics on duplicate keys. */
    void insert(Addr addr, bool is_load, int slot);

    /** Remove a mapping; panics if absent. */
    void erase(Addr addr, bool is_load);

    std::size_t size() const { return map.size(); }

  private:
    static std::uint64_t key(Addr addr, bool is_load)
    {
        // Loads and reductions to the same address are distinct
        // sessions; fold the type into bit 0 (addresses are at least
        // 2-byte aligned in practice).
        return (addr << 1) | (is_load ? 1u : 0u);
    }

    std::unordered_map<std::uint64_t, int> map;
};

} // namespace cais

#endif // CAIS_SWITCHCOMPUTE_CAM_TABLE_HH
