#include "common/event_queue.hh"

#include <bit>

#include "common/log.hh"

namespace cais
{

namespace
{

/** Pull both cache lines of an event entry towards L1. */
void
prefetchEntry(const InlineEvent *e)
{
    const char *p = reinterpret_cast<const char *>(e);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
}

} // namespace

EventQueue::Chunk *
EventQueue::takeChunk()
{
    if (!freeChunks) {
        slabs.push_back(std::make_unique<Chunk[]>(slabChunks));
        Chunk *slab = slabs.back().get();
        // Lowest address on top, so a fresh slab is used in order.
        for (std::size_t i = slabChunks; i-- > 0;)
            releaseChunk(&slab[i]);
    }
    Chunk *c = freeChunks;
    freeChunks = c->next;
    c->next = nullptr;
    return c;
}

std::size_t
EventQueue::nextOccupied(Cycle from) const
{
    // Ring order starting at `from`'s bucket equals cycle order
    // because all in-ring cycles lie in [curTick, curTick + window).
    std::size_t start = static_cast<std::size_t>(from & bucketMask);
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied[word] & (~0ull << (start & 63));
    for (std::size_t i = 0; i <= bitmapWords; ++i) {
        if (bits)
            return (word << 6) + static_cast<std::size_t>(
                                     std::countr_zero(bits));
        word = (word + 1) % bitmapWords;
        bits = occupied[word];
    }
    panic("event ring bitmap empty with nearCount=%zu", nearCount);
}

EventQueue::Callback &
EventQueue::entryFor(Cycle when)
{
    if (when < curTick)
        panic("scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick));
    Callback *entry;
    if (when - curTick < nearWindow) {
        std::size_t b = static_cast<std::size_t>(when & bucketMask);
        Bucket &f = buckets[b];
        if (f.tailPos == chunkEntries) {
            Chunk *c = takeChunk();
            if (f.tail)
                f.tail->next = c;
            else
                f.head = c;
            f.tail = c;
            f.tailPos = 0;
        }
        entry = &f.tail->ev[f.tailPos++];
        markOccupied(b);
        ++nearCount;
    } else {
        std::uint32_t idx;
        if (farFree.empty()) {
            idx = static_cast<std::uint32_t>(farSlots.size());
            farSlots.emplace_back();
        } else {
            idx = farFree.back();
            farFree.pop_back();
        }
        heap.push(HeapKey{when, nextSeq++, idx});
        entry = &farSlots[idx];
    }
    if (size() > peak)
        peak = size();
    return *entry;
}

std::uint64_t
EventQueue::run(Cycle limit, std::uint64_t budget)
{
    std::uint64_t n = 0;
    while (n < budget) {
        // A cycle's events may be split between the ring and the heap,
        // and the heap's go first: an event reached the heap only while
        // its cycle was at least nearWindow ahead, so it was scheduled
        // (and got its seq) before any event of that cycle in the ring.
        // Comparing the two fronts by cycle alone therefore pops in
        // exact (when, seq) order without storing seq in the ring.
        if (nearCount != 0) {
            std::size_t b = nextOccupied(curTick);
            Cycle when = bucketCycle(b);
            if (heap.empty() || when < heap.top().when) {
                if (when > limit)
                    break;
                if (when >= nextObsAt)
                    runObserver(when);
                curTick = when;
                n += drain(b, budget - n);
                continue;
            }
        } else if (heap.empty()) {
            break;
        }
        if (heap.top().when > limit)
            break;
        runFar();
        ++n;
    }
    return n;
}

std::uint64_t
EventQueue::drain(std::size_t idx, std::uint64_t budget)
{
    // No far event can join this cycle while it drains: one scheduled
    // now would be less than nearWindow ahead, so it lands in the
    // ring, behind the bucket's pending events.
    Bucket &f = buckets[idx];
    std::uint64_t n = 0;
    while (n < budget) {
        Chunk *c = f.head;
        Callback &cb = c->ev[f.headPos++];
        --nearCount;
        if (c != f.tail || f.headPos != f.tailPos) {
            // Pending entries are cold (they were written up to a
            // window ago), so fetch the one three pops ahead while this
            // callback runs; crossing into the next chunk, fetch its
            // header too, so its `next` link is in cache when the walk
            // reaches it.
            std::size_t ahead = f.headPos + prefetchAhead - 1;
            Chunk *pc = c;
            if (ahead >= chunkEntries) {
                pc = c->next;
                ahead -= chunkEntries;
            }
            if (pc) {
                prefetchEntry(&pc->ev[ahead]);
                if (ahead == 0)
                    __builtin_prefetch(pc);
            }
        }

        ++numExecuted;
        ++n;
        // The entry stays in its chunk while it runs (and is destroyed
        // by the same call): the callback may append to this very
        // bucket, and the chunk goes back to the pool only after it
        // returns.
        cb();

        if (c == f.tail && f.headPos == f.tailPos) {
            f = Bucket{};
            releaseChunk(c);
            clearOccupied(idx);
            break;
        }
        if (f.headPos == chunkEntries) {
            f.head = c->next;
            f.headPos = 0;
            releaseChunk(c);
        }
    }
    return n;
}

void
EventQueue::runFar()
{
    HeapKey k = heap.top();
    heap.pop();
    // farSlots may grow while the callback runs, so it runs from the
    // stack; the heap is small (hundreds of events) and far events
    // are rare next to near ones.
    Callback cb = std::move(farSlots[k.idx]);
    farFree.push_back(k.idx);
    if (k.when >= nextObsAt)
        runObserver(k.when);
    curTick = k.when;
    ++numExecuted;
    cb();
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = run(noLimit, max_events);
    if (n == max_events && !empty())
        warn("event budget (%llu) exhausted with %zu events pending",
             static_cast<unsigned long long>(max_events), size());
    return n;
}

void
EventQueue::setPeriodicObserver(Cycle period,
                                std::function<void(Cycle)> fn)
{
    if (period == 0 || !fn) {
        obsPeriod = 0;
        nextObsAt = obsDisabled;
        observer = nullptr;
        return;
    }
    obsPeriod = period;
    observer = std::move(fn);
    // First sample strictly after the current time, aligned to the
    // period grid.
    nextObsAt = (curTick / period + 1) * period;
}

void
EventQueue::runObserver(Cycle when)
{
    // Outside the event stream: numExecuted and curTick untouched
    // until the caller proceeds with the event that triggered us.
    while (nextObsAt <= when) {
        observer(nextObsAt);
        nextObsAt += obsPeriod;
    }
}

void
EventQueue::reset()
{
    // Only pending entries hold a callable, so dropping the slabs and
    // the far slots runs every pending capture's destructor once.
    slabs.clear();
    freeChunks = nullptr;
    for (Bucket &f : buckets)
        f = Bucket{};
    for (std::uint64_t &w : occupied)
        w = 0;
    nearCount = 0;
    heap = decltype(heap)();
    farSlots.clear();
    farFree.clear();
    curTick = 0;
    nextSeq = 0;
    numExecuted = 0;
    peak = 0;
    if (obsPeriod != 0)
        nextObsAt = obsPeriod; // re-align the sample grid to t=0
}

} // namespace cais
