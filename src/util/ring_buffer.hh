/**
 * @file
 * Fixed-capacity ring buffer: the backing store for the timing core's
 * store queue and delay pipes. Unlike std::deque it never allocates
 * per push — capacity is reserved once (sized from the MachineConfig)
 * and reused across simulations, which is what lets a warm SimSession
 * run with zero heap allocations per simulated instruction.
 *
 * Semantics:
 *   - push_back() on a full buffer is a hard error (conopt_panic), not
 *     silent growth: the pipeline's own resource checks bound every
 *     queue, so hitting capacity means the caller sized it wrong.
 *   - reserve() grows the backing store explicitly (contents kept);
 *     reset() clears and ensures capacity in one step. Neither ever
 *     shrinks, so a reused buffer stops allocating once it has seen
 *     its high-water configuration.
 *   - erase() removes by logical index, preserving order.
 */

#ifndef CONOPT_UTIL_RING_BUFFER_HH
#define CONOPT_UTIL_RING_BUFFER_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/logging.hh"

namespace conopt {

/** Fixed-capacity circular FIFO with indexed access. */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(size_t capacity = 0) { reserve(capacity); }

    /** Elements currently held. */
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == data_.size(); }
    /** Slots allocated (always a power of two, possibly more than
     *  requested). */
    size_t capacity() const { return data_.size(); }

    /**
     * Ensure room for at least @p capacity elements, preserving
     * contents. Never shrinks.
     */
    void
    reserve(size_t capacity)
    {
        if (capacity <= data_.size())
            return;
        size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        std::vector<T> grown(cap);
        for (size_t i = 0; i < size_; ++i)
            grown[i] = std::move(slot(i));
        data_.swap(grown);
        head_ = 0;
    }

    /** Drop all elements and ensure room for @p capacity. */
    void
    reset(size_t capacity)
    {
        clear();
        reserve(capacity);
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Append; the buffer must not be full (capacity never grows
     *  implicitly — see file header). */
    void
    push_back(T value)
    {
        if (full())
            conopt_panic("RingBuffer overflow (capacity %zu)",
                         data_.size());
        data_[(head_ + size_) & (data_.size() - 1)] = std::move(value);
        ++size_;
    }

    /** Remove the oldest element. */
    void
    pop_front()
    {
        conopt_assert(size_ > 0);
        head_ = (head_ + 1) & (data_.size() - 1);
        --size_;
    }

    T &front() { return slot(0); }
    const T &front() const { return slot(0); }
    T &back() { return slot(size_ - 1); }
    const T &back() const { return slot(size_ - 1); }

    /** Logical index 0 is the oldest element. */
    T &operator[](size_t i) { return slot(i); }
    const T &operator[](size_t i) const { return slot(i); }

    /**
     * Remove the element at logical index @p i, shifting everything
     * younger down one slot (order-preserving; O(size - i)).
     */
    void
    erase(size_t i)
    {
        conopt_assert(i < size_);
        for (size_t k = i + 1; k < size_; ++k)
            slot(k - 1) = std::move(slot(k));
        --size_;
    }

  private:
    T &
    slot(size_t i)
    {
        conopt_assert(i < size_);
        return data_[(head_ + i) & (data_.size() - 1)];
    }

    const T &
    slot(size_t i) const
    {
        conopt_assert(i < size_);
        return data_[(head_ + i) & (data_.size() - 1)];
    }

    std::vector<T> data_; ///< power-of-two length, or empty
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace conopt

#endif // CONOPT_UTIL_RING_BUFFER_HH
