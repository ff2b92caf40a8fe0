/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue owns global simulated time. Components schedule
 * callbacks at absolute or relative cycles; ties are broken by
 * insertion order so simulations are fully deterministic.
 *
 * The scheduler is a calendar-queue-style near-future ring of
 * `nearWindow` per-cycle FIFO buckets backed by a far-future binary
 * heap. Scheduling within the window and popping are O(1) amortized;
 * only events more than `nearWindow` cycles out touch the heap. A
 * bucket's FIFO is a list of small contiguous chunks, so the pop path
 * streams through memory instead of chasing one pointer per event.
 *
 * The run loop picks the next cycle once, then drains that cycle's
 * bucket back to back, same-cycle events that callbacks append
 * included.
 *
 * Callbacks are `InlineEvent`s: move-only, run-once callables stored
 * entirely inside the event entry (no heap allocation, ever — a
 * capture that does not fit is a compile error), sized so that a
 * packet-delivery closure (a Packet plus one pointer) fits inline.
 */

#ifndef CAIS_COMMON_EVENT_QUEUE_HH
#define CAIS_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cais
{

/**
 * Small-buffer-only, run-once callable for scheduled events.
 *
 * Unlike std::function there is no heap fallback: the callable is
 * constructed directly in `inlineCapacity` bytes of inline storage,
 * so the packet-delivery hot path never allocates. Captures must be
 * nothrow-move-constructible and fit the buffer (both enforced at
 * compile time). Running the event destroys its capture in the same
 * indirect call, so an event runs at most once.
 */
class InlineEvent
{
  public:
    /**
     * Inline storage: a packet-delivery closure (a 64-byte Packet
     * plus one pointer) fits with room to spare, and a whole
     * InlineEvent is exactly two cache lines.
     */
    static constexpr std::size_t inlineCapacity = 112;

    InlineEvent() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent>>>
    InlineEvent(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        emplace(std::forward<F>(f));
    }

    InlineEvent(InlineEvent &&other) noexcept { moveFrom(other); }

    InlineEvent &
    operator=(InlineEvent &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineEvent(const InlineEvent &) = delete;
    InlineEvent &operator=(const InlineEvent &) = delete;

    ~InlineEvent() { destroy(); }

    /** True when a callable is held. */
    explicit operator bool() const { return invoke != nullptr; }

    /**
     * Invoke the stored callable once and destroy it, leaving the
     * event empty. The event must hold a callable.
     */
    void
    operator()()
    {
        void (*run)(void *) = invoke;
        invoke = nullptr;
        run(buf);
    }

    /**
     * Construct @p f in place. The event must be empty: this is the
     * schedule path's store into a fresh queue entry, which must not
     * wait on a load of that (possibly cold) entry.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= inlineCapacity,
                      "event capture exceeds InlineEvent::inlineCapacity; "
                      "shrink the capture (InlineEvent has no heap fallback)");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event captures are not supported");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event captures must be nothrow-move-constructible");
        ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
        // Call, then destroy: the capture is gone even if it throws.
        invoke = [](void *p) {
            struct Destroy
            {
                Fn *fn;
                ~Destroy() { fn->~Fn(); }
            } done{static_cast<Fn *>(p)};
            (*done.fn)();
        };
        // Null @p dst means "destroy only": one manager pointer covers
        // both relocation and destruction.
        relocate = [](void *dst, void *src) noexcept {
            Fn *s = static_cast<Fn *>(src);
            if (dst)
                ::new (dst) Fn(std::move(*s));
            s->~Fn();
        };
    }

  private:
    void
    moveFrom(InlineEvent &other) noexcept
    {
        invoke = other.invoke;
        relocate = other.relocate;
        if (invoke) {
            relocate(buf, other.buf);
            other.invoke = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (invoke) {
            relocate(nullptr, buf);
            invoke = nullptr;
        }
    }

    // Only `invoke` says whether a callable is held; `relocate` may
    // be stale once it is null. The thunks come first, so a capture
    // of up to 48 bytes (a credit arrival, a drain wake, a switch
    // service) shares the entry's first cache line with them.
    void (*invoke)(void *) = nullptr;
    void (*relocate)(void *dst, void *src) noexcept = nullptr;
    alignas(std::max_align_t) unsigned char buf[inlineCapacity];
};

static_assert(sizeof(InlineEvent) == 128,
              "an event entry is meant to span exactly two cache lines");

/** A deterministic discrete-event queue with nanosecond resolution. */
class EventQueue
{
  public:
    using Callback = InlineEvent;

    /**
     * Cycles covered by the near-future bucket ring (power of two).
     * Covers link latency (250) plus worst-case serialization with
     * ample slack; longer deltas (merge-table sweeps, launch skew)
     * take the far heap.
     */
    static constexpr Cycle nearWindow = 4096;

    /**
     * Events per chunk of a near bucket's FIFO. Every occupied bucket
     * holds at most one partly filled tail chunk and one partly
     * consumed head chunk, so this bounds the slack at
     * 2 * (chunkEntries - 1) entries per occupied bucket.
     */
    static constexpr std::size_t chunkEntries = 4;

    EventQueue() : buckets(nearWindow) {}

    /** Schedule @p cb at absolute cycle @p when (>= now). */
    void schedule(Cycle when, Callback cb) { entryFor(when) = std::move(cb); }

    /**
     * Schedule callable @p f at absolute cycle @p when (>= now),
     * constructing it straight into its queue entry. A capture whose
     * construction may throw is built first, so a throw leaves the
     * queue untouched.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback>>>
    void
    schedule(Cycle when, F &&f)
    {
        if constexpr (std::is_nothrow_constructible_v<std::decay_t<F>, F>)
            entryFor(when).emplace(std::forward<F>(f));
        else
            schedule(when, Callback(std::forward<F>(f)));
    }

    /** Schedule @p f @p delta cycles after the current time. */
    template <typename F>
    void
    scheduleAfter(Cycle delta, F &&f)
    {
        schedule(curTick + delta, std::forward<F>(f));
    }

    /** Pop and run the earliest event. @return false if queue empty. */
    bool runOne() { return run(noLimit, 1) == 1; }

    /**
     * Run events until the queue drains or simulated time would
     * exceed @p limit. Events scheduled exactly at @p limit run;
     * simulated time then advances to @p limit even when later
     * events remain pending.
     * @return the number of events executed.
     */
    std::uint64_t
    runUntil(Cycle limit)
    {
        std::uint64_t n = run(limit, ~0ull);
        // Simulated time reaches the limit even when later events
        // remain pending.
        if (curTick < limit)
            curTick = limit;
        return n;
    }

    /**
     * Run events until the queue drains.
     * @param max_events safety valve against runaway simulations.
     * @return the number of events executed.
     */
    std::uint64_t runAll(std::uint64_t max_events = ~0ull);

    /** Current simulated time in cycles. */
    Cycle now() const { return curTick; }

    /** True when no events remain. */
    bool empty() const { return nearCount == 0 && heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return nearCount + heap.size(); }

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /** Largest size() seen since construction (or reset()). */
    std::size_t peakPending() const { return peak; }

    /**
     * Chunks this queue owns, in use or pooled. The pool only grows
     * when more chunks are pending at once than ever before.
     */
    std::size_t chunkPoolSize() const
    {
        return slabs.size() * slabChunks;
    }

    /**
     * Install a non-perturbing periodic observer: as simulated time
     * advances past each multiple of @p period, @p fn is invoked with
     * that sample cycle *outside* the event stream — the call is not
     * an event, does not count toward executed(), and fires before
     * the events of the cycle it lands on, so the observed state is
     * exactly the state of the open interval ending at the sample
     * point. The observer must not schedule events or mutate
     * simulation state (it exists for trace/metric sampling; see
     * DESIGN.md §6d). A @p period of 0 removes the observer. Only one
     * observer is supported; installing replaces the previous one.
     */
    void setPeriodicObserver(Cycle period,
                             std::function<void(Cycle)> fn);

    /**
     * Reset time to zero and discard all pending events. The
     * insertion-order tie-break counter, the executed-event count and
     * the pending peak are also reset, so a reused queue reproduces
     * identical tie-breaks (and therefore identical simulations).
     * Must not be called from inside a running event (the event's
     * own chunk would be destroyed under it).
     */
    void reset();

  private:
    /**
     * A run of consecutive entries of one bucket's FIFO. Entries are
     * cache-line aligned (an InlineEvent is two lines) and a callback
     * runs in place; an entry is non-empty exactly while its event is
     * pending, so destroying a chunk destroys only pending captures.
     */
    struct Chunk
    {
        Chunk *next = nullptr; ///< next chunk of the FIFO, or pool
        alignas(64) Callback ev[chunkEntries];
    };

    /**
     * FIFO of one in-window cycle's events: chunks head..tail, the
     * next entry to run at head->ev[headPos], the next free one at
     * tail->ev[tailPos]. An empty bucket holds no chunk and has
     * tailPos == chunkEntries, so the first schedule takes a chunk.
     */
    struct Bucket
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
        std::uint32_t headPos = 0;
        std::uint32_t tailPos = chunkEntries;
    };

    /** Far-heap element: ordering key plus the payload's far slot. */
    struct HeapKey
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    struct Later
    {
        bool
        operator()(const HeapKey &a, const HeapKey &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t slabChunks = 64;
    /** How many pops ahead drain prefetches. */
    static constexpr std::size_t prefetchAhead = 3;
    static_assert(prefetchAhead >= 1 && prefetchAhead <= chunkEntries,
                  "drain's look-ahead crosses at most one chunk");
    static constexpr Cycle noLimit = ~0ull;
    static constexpr Cycle bucketMask = nearWindow - 1;
    static constexpr std::size_t bitmapWords = nearWindow / 64;

    /**
     * Enqueue an empty entry for an event at @p when and return it;
     * the caller fills it before any other queue call.
     */
    Callback &entryFor(Cycle when);

    /** Take a chunk from the pool (LIFO), growing it by a slab if dry. */
    Chunk *takeChunk();

    /** Return a drained chunk to the pool (LIFO for locality). */
    void
    releaseChunk(Chunk *c)
    {
        c->next = freeChunks;
        freeChunks = c;
    }

    void
    markOccupied(std::size_t idx)
    {
        occupied[idx >> 6] |= 1ull << (idx & 63);
    }

    void
    clearOccupied(std::size_t idx)
    {
        occupied[idx >> 6] &= ~(1ull << (idx & 63));
    }

    /**
     * Index of the first occupied bucket at or after the bucket of
     * @p from, in ring order. Requires nearCount > 0.
     */
    std::size_t nextOccupied(Cycle from) const;

    /** The in-window cycle bucket @p idx holds. */
    Cycle
    bucketCycle(std::size_t idx) const
    {
        return curTick + ((idx - curTick) & bucketMask);
    }

    /**
     * The one run loop: run events in (when, seq) order until the
     * queue drains, the next event lies after @p limit, or @p budget
     * events have run. @return the number of events run.
     */
    std::uint64_t run(Cycle limit, std::uint64_t budget);

    /**
     * Run up to @p budget events of bucket @p idx, the current cycle's,
     * front to back, same-cycle events that callbacks append included.
     * @return the number of events run.
     */
    std::uint64_t drain(std::size_t idx, std::uint64_t budget);

    /** Run the far heap's top event. */
    void runFar();

    // Chunk pool: slabs keep chunk addresses stable while callbacks
    // execute (an in-flight callback may grow the pool).
    std::vector<std::unique_ptr<Chunk[]>> slabs;
    Chunk *freeChunks = nullptr;

    // Near-future ring: bucket b holds the single in-window cycle
    // congruent to b (mod nearWindow); entries append in seq order.
    std::vector<Bucket> buckets;
    std::uint64_t occupied[bitmapWords] = {};
    std::size_t nearCount = 0;

    // Far-future events: the heap orders keys, the payloads sit in
    // farSlots (recycled through farFree).
    std::priority_queue<HeapKey, std::vector<HeapKey>, Later> heap;
    std::vector<Callback> farSlots;
    std::vector<std::uint32_t> farFree;

    Cycle curTick = 0;
    // Insertion order among far events; ring entries need none (see
    // run).
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::size_t peak = 0;

    // Periodic observer (trace sampling). nextObsAt stays at ~0ull
    // when disabled so the hot path pays a single always-false
    // comparison.
    static constexpr Cycle obsDisabled = ~0ull;
    Cycle obsPeriod = 0;
    Cycle nextObsAt = obsDisabled;
    std::function<void(Cycle)> observer;

    /** Fire the observer for every sample point in (curTick, when]. */
    void runObserver(Cycle when);
};

} // namespace cais

#endif // CAIS_COMMON_EVENT_QUEUE_HH
