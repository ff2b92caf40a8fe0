/**
 * @file
 * 128-bit node/participant bitmask. The switch-compute tables track
 * which nodes contributed to a session; with multi-tier fabrics the
 * contributor set covers GPU ids *and* leaf-switch node ids, which
 * overflows a plain uint64 once the fabric exceeds 64 nodes (nvl72:
 * 72 GPUs + 42 switches). Two words cover every supported shape
 * (numGpus + numSwitches <= 128, enforced by FabricParams).
 */

#ifndef CAIS_COMMON_NODEMASK_HH
#define CAIS_COMMON_NODEMASK_HH

#include <cstdint>

namespace cais
{

/** Fixed 128-bit bitset keyed by node id, with deterministic
 *  ascending-bit iteration. */
struct NodeMask
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    static constexpr int capacity = 128;

    static NodeMask
    bit(int i)
    {
        NodeMask m;
        m.set(i);
        return m;
    }

    void
    set(int i)
    {
        if (i < 0 || i >= capacity)
            return;
        if (i < 64)
            lo |= 1ull << i;
        else
            hi |= 1ull << (i - 64);
    }

    bool
    test(int i) const
    {
        if (i < 0 || i >= capacity)
            return false;
        return i < 64 ? (lo >> i) & 1 : (hi >> (i - 64)) & 1;
    }

    bool any() const { return lo != 0 || hi != 0; }
    bool none() const { return !any(); }

    int
    count() const
    {
        return __builtin_popcountll(lo) + __builtin_popcountll(hi);
    }

    NodeMask &
    operator|=(const NodeMask &o)
    {
        lo |= o.lo;
        hi |= o.hi;
        return *this;
    }

    bool
    operator==(const NodeMask &o) const
    {
        return lo == o.lo && hi == o.hi;
    }

    /** Invoke @p fn on every set bit in ascending order (the
     *  deterministic broadcast/iteration order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t w = lo; w != 0; w &= w - 1)
            fn(__builtin_ctzll(w));
        for (std::uint64_t w = hi; w != 0; w &= w - 1)
            fn(64 + __builtin_ctzll(w));
    }
};

/**
 * Largest GPU count the front door (RunConfig::validationError)
 * accepts. It leaves room in the participant masks for the switch
 * node ids, and bounds every per-packet contribution count.
 */
constexpr int maxFabricGpus = 120;

} // namespace cais

#endif // CAIS_COMMON_NODEMASK_HH
