#include "switchcompute/merging_table.hh"

#include "common/log.hh"

namespace cais
{

MergingTable::MergingTable(std::uint64_t capacity_bytes,
                           std::uint32_t chunk_bytes)
    : capacity(capacity_bytes), chunk(chunk_bytes)
{
    if (chunk == 0)
        panic("merging table chunk size must be non-zero");
    maxEntries = capacity ? static_cast<std::size_t>(capacity / chunk) : 0;
    if (capacity && maxEntries == 0)
        panic("merging table capacity %llu smaller than one chunk %u",
              static_cast<unsigned long long>(capacity), chunk);
}

MergeEntry *
MergingTable::find(Addr addr, bool is_load)
{
    int slot = cam.lookup(addr, is_load);
    if (slot == CamLookupTable::noSlot)
        return nullptr;
    return &entries[static_cast<std::size_t>(slot)];
}

bool
MergingTable::full() const
{
    return maxEntries != 0 && live >= maxEntries;
}

MergeEntry *
MergingTable::allocate(Addr addr, bool is_load)
{
    if (full())
        return nullptr;

    // Storage is backed on the first session, not at construction:
    // most ports of a large fabric never open one. From then on a
    // bounded table never reallocates, so MergeEntry pointers stay
    // valid across allocate() calls. Unbounded tables may grow;
    // callers must re-find entries across events in that mode.
    if (maxEntries && entries.capacity() == 0)
        entries.reserve(maxEntries);

    int slot;
    if (!freeList.empty()) {
        slot = freeList.back();
        freeList.pop_back();
    } else {
        slot = static_cast<int>(entries.size());
        entries.emplace_back();
    }

    MergeEntry &e = entries[static_cast<std::size_t>(slot)];
    e = MergeEntry{};
    e.addr = addr;
    e.state = is_load ? SessionState::loadWait : SessionState::reduction;
    e.bytes = chunk;
    e.homeGpu = addrHomeGpu(addr);

    cam.insert(addr, is_load, slot);
    ++live;
    if (live > peakLive)
        peakLive = live;
    return &e;
}

void
MergingTable::release(MergeEntry *e)
{
    if (!e || !e->valid())
        panic("releasing invalid merge entry");
    int slot = static_cast<int>(e - entries.data());
    cam.erase(e->addr, e->isLoad());
    e->state = SessionState::invalid;
    e->pendingRequesters.clear();
    freeList.push_back(slot);
    --live;
}

} // namespace cais
