/**
 * @file
 * Growable power-of-two ring buffer: the FIFO behind every per-hop
 * queue of the fabric model (link VC queues, switch input VCs, the
 * GPU hub's issue and wire-order queues).
 *
 * Compared with std::deque it keeps one contiguous buffer, so push and
 * pop are an index mask and a placement move. Storage is allocated on
 * the first push (most VCs of a large fabric never carry a packet) and
 * doubles when full. It gives memory back as it empties: a buffer
 * larger than retainCapacity elements halves once it is less than a
 * quarter full, so a queue that absorbed one burst does not hold its
 * peak footprint for the rest of the run, and a drained ring keeps at
 * most retainCapacity slots. That small buffer is never freed, so a
 * queue that alternates between empty and one element does not
 * allocate per packet. Elements need only be movable.
 */

#ifndef CAIS_COMMON_RING_HH
#define CAIS_COMMON_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/types.hh"

namespace cais
{

/** FIFO of movable @p T on a growable power-of-two ring. */
template <class T>
class Ring
{
  public:
    CAIS_OWNED_BY_DOMAIN(parent);

    /** First allocation, in elements. */
    static constexpr std::size_t initialCapacity = 4;

    /** Largest buffer that is never shrunk or freed, in elements. */
    static constexpr std::size_t retainCapacity = 8;

    Ring() = default;

    Ring(Ring &&o) noexcept
        : buf(o.buf), cap(o.cap), head(o.head), count(o.count)
    {
        o.buf = nullptr;
        o.cap = o.head = o.count = 0;
    }

    Ring &
    operator=(Ring &&o) noexcept
    {
        if (this != &o) {
            release();
            buf = std::exchange(o.buf, nullptr);
            cap = std::exchange(o.cap, 0);
            head = std::exchange(o.head, 0);
            count = std::exchange(o.count, 0);
        }
        return *this;
    }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    ~Ring() { release(); }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Allocated slots (0 until the first push and after a drain
     *  released the buffer). */
    std::size_t capacity() const { return cap; }

    /** Element @p i counted from the head; requires i < size(). */
    T &operator[](std::size_t i) { return buf[(head + i) & (cap - 1)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf[(head + i) & (cap - 1)];
    }

    /** Head element; requires !empty(). */
    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    void
    push_back(T &&v)
    {
        if (count == cap)
            grow();
        std::construct_at(&buf[(head + count) & (cap - 1)],
                          std::move(v));
        ++count;
    }

    void push_back(const T &v) { push_back(T(v)); }

    void
    push_front(T &&v)
    {
        if (count == cap)
            grow();
        head = (head + cap - 1) & (cap - 1);
        std::construct_at(&buf[head], std::move(v));
        ++count;
    }

    /** Drop the head element; requires !empty(). */
    void
    pop_front()
    {
        std::destroy_at(&buf[head]);
        head = (head + 1) & (cap - 1);
        if (--count < cap / 4 && cap > retainCapacity)
            resize(cap / 2);
    }

    /**
     * Insert @p v so that it becomes element @p pos (pos <= size()).
     * Costs O(pos): meant for insertion a few slots behind the head.
     */
    void
    insert(std::size_t pos, T &&v)
    {
        if (pos >= count) {
            push_back(std::move(v));
            return;
        }
        push_front(std::move(v));
        for (std::size_t i = 0; i < pos; ++i)
            std::swap((*this)[i], (*this)[i + 1]);
    }

    void insert(std::size_t pos, const T &v) { insert(pos, T(v)); }

  private:
    void grow() { resize(cap ? cap * 2 : initialCapacity); }

    /** Move the elements into a fresh buffer of @p ncap >= count
     *  slots, head first. */
    void
    resize(std::size_t ncap)
    {
        T *nbuf = std::allocator<T>().allocate(ncap);
        for (std::size_t i = 0; i < count; ++i) {
            T &src = (*this)[i];
            std::construct_at(&nbuf[i], std::move(src));
            std::destroy_at(&src);
        }
        if (buf)
            std::allocator<T>().deallocate(buf, cap);
        buf = nbuf;
        cap = ncap;
        head = 0;
    }

    void
    release()
    {
        for (std::size_t i = 0; i < count; ++i)
            std::destroy_at(&(*this)[i]);
        if (buf)
            std::allocator<T>().deallocate(buf, cap);
        buf = nullptr;
        cap = head = count = 0;
    }

    T *buf = nullptr;
    std::size_t cap = 0;   ///< 0 or a power of two
    std::size_t head = 0;  ///< index of the front element
    std::size_t count = 0;
};

} // namespace cais

#endif // CAIS_COMMON_RING_HH
