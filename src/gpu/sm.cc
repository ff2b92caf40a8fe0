#include "gpu/sm.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace cais
{

namespace
{
constexpr Cycle slotFree = ~Cycle(0);
} // namespace

SmPool::SmPool(EventQueue &eq_, int num_sms, int ctas_per_sm)
    : eq(eq_), sms(num_sms),
      busyAt(static_cast<std::size_t>(num_sms * ctas_per_sm), slotFree),
      freeBits((busyAt.size() + 63) / 64, ~std::uint64_t(0)),
      freeSlots(num_sms * ctas_per_sm)
{
    if (num_sms < 1 || ctas_per_sm < 1)
        panic("bad SM pool dimensions");
    if (busyAt.size() % 64 != 0)
        freeBits.back() = (std::uint64_t(1) << (busyAt.size() % 64)) - 1;
}

int
SmPool::findFree(double from, double to) const
{
    int lo = static_cast<int>(from * sms);
    int hi = static_cast<int>(to * sms);
    if (hi <= lo)
        hi = lo + 1;
    lo = std::max(lo, 0);
    hi = std::min(hi, sms);
    if (lo >= hi)
        return -1;
    // Layers ascend in slot order, so the first free bit found in a
    // layer's run [layer + lo, layer + hi) is the lowest matching slot.
    const auto slots = static_cast<int>(busyAt.size());
    for (int layer = 0; layer < slots; layer += sms) {
        for (int b = layer + lo, end = layer + hi; b < end;) {
            const auto w = static_cast<std::size_t>(b / 64);
            const int off = b % 64;
            const int span = std::min(64 - off, end - b);
            std::uint64_t bits = freeBits[w] >> off;
            if (span < 64)
                bits &= (std::uint64_t(1) << span) - 1;
            if (bits != 0)
                return b + std::countr_zero(bits);
            b += span;
        }
    }
    return -1;
}

int
SmPool::acquire(double from, double to)
{
    const int slot = findFree(from, to);
    if (slot >= 0) {
        const auto idx = static_cast<std::size_t>(slot);
        busyAt[idx] = eq.now();
        freeBits[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
        --freeSlots;
    }
    return slot;
}

bool
SmPool::hasFree(double from, double to) const
{
    return findFree(from, to) >= 0;
}

void
SmPool::release(int slot)
{
    auto idx = static_cast<std::size_t>(slot);
    if (idx >= busyAt.size() || busyAt[idx] == slotFree)
        panic("releasing free SM slot %d", slot);
    accumulated += eq.now() - busyAt[idx];
    busyAt[idx] = slotFree;
    freeBits[idx / 64] |= std::uint64_t(1) << (idx % 64);
    ++freeSlots;
}

Cycle
SmPool::busySlotCycles() const
{
    Cycle total = accumulated;
    Cycle now = eq.now();
    for (Cycle at : busyAt)
        if (at != slotFree)
            total += now - at;
    return total;
}

double
SmPool::utilization(Cycle t) const
{
    if (t == 0)
        return 0.0;
    double denom = static_cast<double>(busyAt.size()) *
                   static_cast<double>(t);
    return static_cast<double>(busySlotCycles()) / denom;
}

} // namespace cais
