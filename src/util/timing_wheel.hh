/**
 * @file
 * Bounded timing wheel (a calendar queue: R. Brown, "Calendar Queues",
 * CACM 1988) for the timing core's per-cycle events: one bucket per
 * cycle modulo a power of two above the horizon, each a list of seqs
 * linked through a per-slot next array (slot = seq & slot mask), so an
 * in-flight seq sits in at most one bucket of a wheel.
 *
 * The owner drains every cycle's bucket in cycle order, so a bucket
 * only holds one cycle's events, in ascending seq order. An event at
 * or before the current cycle lands in the next cycle's bucket; one
 * beyond the horizon panics rather than wrap. Storage never shrinks,
 * so a warm reset() and the hot path allocate nothing.
 */

#ifndef CONOPT_UTIL_TIMING_WHEEL_HH
#define CONOPT_UTIL_TIMING_WHEEL_HH

#include <cstdint>
#include <vector>

#include "src/util/bitops.hh"
#include "src/util/logging.hh"

namespace conopt {

/** Per-cycle buckets of seqs over intrusive per-slot links. */
class TimingWheel
{
  public:
    /** Drop every event and zero the work counters; size for events
     *  up to @p horizon cycles ahead, over seqs whose in-flight span
     *  fits @p slots (a power of two). */
    void
    reset(uint64_t horizon, size_t slots)
    {
        conopt_assert(isPowerOfTwo(slots));
        horizon_ = horizon;
        buckets_.assign(ceilPowerOfTwo(horizon + 1), Bucket{});
        bucketMask_ = buckets_.size() - 1;
        if (next_.size() < slots)
            next_.resize(slots);
        slotMask_ = slots - 1;
        scheduled_ = steps_ = 0;
    }

    /** Queue @p seq for @p cycle, as seen at cycle @p now. */
    void
    schedule(uint64_t now, uint64_t cycle, uint64_t seq)
    {
        if (cycle <= now)
            cycle = now + 1;
        if (cycle - now > horizon_)
            conopt_panic("TimingWheel overflow: event %llu cycles ahead "
                         "(horizon %llu)",
                         static_cast<unsigned long long>(cycle - now),
                         static_cast<unsigned long long>(horizon_));
        ++scheduled_;
        Bucket &b = buckets_[cycle & bucketMask_];
        uint64_t *link = &b.head;
        if (b.head != kNil && b.tail < seq) {
            link = &next_[b.tail & slotMask_]; // in-order append
        } else {
            // kNil is the largest uint64_t, so the walk stops at the end.
            for (; *link < seq; ++steps_)
                link = &next_[*link & slotMask_];
        }
        next_[seq & slotMask_] = *link;
        *link = seq;
        if (next_[seq & slotMask_] == kNil)
            b.tail = seq;
    }

    /** Pop cycle @p now's events in ascending seq order, calling
     *  fn(seq) for each. */
    template <typename Fn>
    void
    drain(uint64_t now, Fn &&fn)
    {
        uint64_t &head = buckets_[now & bucketMask_].head;
        while (head != kNil) {
            const uint64_t seq = head;
            head = next_[seq & slotMask_];
            fn(seq);
        }
    }

    /** Events scheduled since reset(). */
    uint64_t scheduled() const { return scheduled_; }
    /** Links walked past, since reset(), by events that could not
     *  append at their bucket's tail. */
    uint64_t orderSteps() const { return steps_; }

  private:
    static constexpr uint64_t kNil = ~uint64_t(0);

    struct Bucket
    {
        uint64_t head = kNil;
        uint64_t tail = 0; ///< last seq; stale while head == kNil
    };

    std::vector<Bucket> buckets_;
    std::vector<uint64_t> next_; ///< per-slot next seq in its bucket
    uint64_t horizon_ = 0;
    size_t bucketMask_ = 0;
    size_t slotMask_ = 0;
    uint64_t scheduled_ = 0;
    uint64_t steps_ = 0;
};

} // namespace conopt

#endif // CONOPT_UTIL_TIMING_WHEEL_HH
