/**
 * @file
 * Fixed-latency pipeline latch used to model multi-stage sections of the
 * processor front end (decode stages, the extra optimizer stages, value
 * feedback transmission). Items pushed at cycle C become visible at cycle
 * C + depth.
 *
 * Storage is a RingBuffer: a caller that knows its occupancy bound (the
 * timing core sizes its pipes from the MachineConfig) calls reserve()
 * once and the pipe never heap-allocates again; without a reservation
 * the pipe grows geometrically on demand, so casual users keep the old
 * deque-like behaviour.
 */

#ifndef CONOPT_UTIL_DELAY_PIPE_HH
#define CONOPT_UTIL_DELAY_PIPE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/ring_buffer.hh"

namespace conopt {

/**
 * A latency pipe: a queue whose entries carry the cycle at which they
 * become visible at the tail. Supports arbitrary (even zero) latency.
 */
template <typename T>
class DelayPipe
{
  public:
    explicit DelayPipe(uint32_t depth = 1) : depth_(depth) {}

    /** Change the pipe depth (only before use / after clear()). */
    void setDepth(uint32_t depth) { depth_ = depth; }

    /** Pre-size the backing ring (contents kept; never shrinks). */
    void reserve(size_t capacity) { entries_.reserve(capacity); }

    /** Insert an item at cycle @p now; it matures at now + depth. */
    void
    push(uint64_t now, T item)
    {
        if (entries_.full())
            entries_.reserve(entries_.capacity() ? entries_.capacity() * 2
                                                 : 8);
        entries_.push_back(Entry{now + depth_, std::move(item)});
    }

    /** True if an item is available at cycle @p now. */
    bool
    ready(uint64_t now) const
    {
        return !entries_.empty() && entries_.front().readyCycle <= now;
    }

    /** Access the oldest matured item (ready(now) must hold). */
    T &front() { return entries_.front().item; }
    const T &front() const { return entries_.front().item; }

    /** Remove the oldest item. */
    void pop() { entries_.pop_front(); }

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    void clear() { entries_.clear(); }

  private:
    struct Entry
    {
        uint64_t readyCycle = 0;
        T item{};
    };

    uint32_t depth_;
    RingBuffer<Entry> entries_;
};

} // namespace conopt

#endif // CONOPT_UTIL_DELAY_PIPE_HH
