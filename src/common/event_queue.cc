#include "common/event_queue.hh"

#include <bit>

#include "common/log.hh"

namespace cais
{

namespace
{

constexpr Cycle noCycle = ~0ull;

} // namespace

EventQueue::EventQueue() : buckets(nearWindow) {}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != nilIdx) {
        std::uint32_t idx = freeHead;
        freeHead = slotAt(idx).next;
        return idx;
    }
    auto base = static_cast<std::uint32_t>(chunks.size() << chunkShift);
    chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
    // Thread all but the first new slot onto the freelist, lowest
    // index on top so allocation order stays cache-friendly.
    for (std::size_t i = chunkSlots - 1; i >= 1; --i) {
        slotAt(base + static_cast<std::uint32_t>(i)).next = freeHead;
        freeHead = base + static_cast<std::uint32_t>(i);
    }
    return base;
}

void
EventQueue::markOccupied(std::size_t idx)
{
    occupied[idx >> 6] |= 1ull << (idx & 63);
}

void
EventQueue::clearOccupied(std::size_t idx)
{
    occupied[idx >> 6] &= ~(1ull << (idx & 63));
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

void
EventQueue::schedule(Cycle when, Callback cb)
{
    if (when < curTick)
        panic("scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick));
    std::uint32_t idx = allocSlot();
    Slot &s = slotAt(idx);
    s.when = when;
    s.seq = nextSeq++;
    s.next = nilIdx;
    s.cb = std::move(cb);

    if (when - curTick < nearWindow) {
        std::size_t b = static_cast<std::size_t>(when & bucketMask);
        Fifo &f = buckets[b];
        if (f.head == nilIdx) {
            f.head = f.tail = idx;
            markOccupied(b);
        } else {
            slotAt(f.tail).next = idx;
            f.tail = idx;
        }
        ++nearCount;
    } else {
        heap.push(HeapKey{when, s.seq, idx});
    }
}

void
EventQueue::scheduleAfter(Cycle delta, Callback cb)
{
    schedule(curTick + delta, std::move(cb));
}

Cycle
EventQueue::nextWhen() const
{
    Cycle th = heap.empty() ? noCycle : heap.top().when;
    if (nearCount == 0)
        return th;
    const Fifo &f = buckets[nextOccupied(curTick)];
    Cycle tb = slotAt(f.head).when;
    return tb < th ? tb : th;
}

std::uint32_t
EventQueue::popNext()
{
    Cycle th = heap.empty() ? noCycle : heap.top().when;
    Fifo *f = nullptr;
    std::size_t bi = 0;
    Cycle tb = noCycle;
    std::uint64_t sb = 0;
    if (nearCount != 0) {
        bi = nextOccupied(curTick);
        f = &buckets[bi];
        const Slot &front = slotAt(f->head);
        tb = front.when;
        sb = front.seq;
    }

    // Earliest (when, seq) wins; bucket entries are FIFO in seq and
    // the heap breaks ties by seq, so comparing the two fronts gives
    // the global minimum even when a cycle's events are split across
    // ring and heap (scheduled near vs. scheduled far, then reached).
    bool from_heap = th != noCycle &&
                     (tb == noCycle || th < tb ||
                      (th == tb && heap.top().seq < sb));

    if (from_heap) {
        std::uint32_t idx = heap.top().idx;
        heap.pop();
        return idx;
    }

    std::uint32_t idx = f->head;
    f->head = slotAt(idx).next;
    if (f->head == nilIdx) {
        f->tail = nilIdx;
        clearOccupied(bi);
    }
    --nearCount;
    return idx;
}

bool
EventQueue::runOne()
{
    if (empty())
        return false;
    std::uint32_t idx = popNext();
    // The slot is detached from both the bucket/heap and the
    // freelist, and chunk addresses are stable, so the callback runs
    // in place even if it schedules further events.
    Slot &s = slotAt(idx);
    if (s.when >= nextObsAt)
        runObserver(s.when);
    curTick = s.when;
    ++numExecuted;
    s.cb();
    s.cb.reset();
    releaseSlot(idx);
    return true;
}

std::uint64_t
EventQueue::runUntil(Cycle limit)
{
    std::uint64_t n = 0;
    while (!empty() && nextWhen() <= limit) {
        runOne();
        ++n;
    }
    // Simulated time reaches the limit even when later events remain
    // pending.
    if (curTick < limit)
        curTick = limit;
    return n;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
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
    // Dropping the chunks runs every pending InlineEvent's destructor.
    chunks.clear();
    freeHead = nilIdx;
    for (Fifo &f : buckets)
        f = Fifo{};
    for (std::uint64_t &w : occupied)
        w = 0;
    nearCount = 0;
    heap = decltype(heap)();
    curTick = 0;
    nextSeq = 0;
    numExecuted = 0;
    if (obsPeriod != 0)
        nextObsAt = obsPeriod; // re-align the sample grid to t=0
}

} // namespace cais
