/**
 * @file
 * Wakeup-machinery tests: the per-register waiter lists and the
 * per-cycle timing wheel behind the timing core's event-driven
 * scheduling, including their fixed-capacity overflow contracts, and
 * the core's deterministic work counters. The machinery's effect on
 * simulated results is pinned end to end by the tolerance-0 bench
 * baselines.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/pipeline/ooo_core.hh"
#include "src/sim/session.hh"
#include "src/util/timing_wheel.hh"
#include "src/util/wake_list.hh"
#include "src/workloads/workload.hh"

using namespace conopt;

// ---------------------------------------------------------------------------
// WakeList
// ---------------------------------------------------------------------------

TEST(WakeList, AddAndDrainRoundTripsPerKey)
{
    WakeList wl;
    wl.reset(8, 16);
    EXPECT_EQ(wl.size(), 0u);
    EXPECT_EQ(wl.capacity(), 16u);
    EXPECT_TRUE(wl.empty(3));

    wl.add(3, 100);
    wl.add(3, 101);
    wl.add(5, 200);
    EXPECT_EQ(wl.size(), 3u);
    EXPECT_FALSE(wl.empty(3));
    EXPECT_FALSE(wl.empty(5));
    EXPECT_TRUE(wl.empty(0));

    // Draining one key leaves the others untouched; order within a
    // key is unspecified, so compare as a multiset.
    std::vector<uint64_t> got;
    wl.drain(3, [&](uint64_t v) { got.push_back(v); });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint64_t>{100, 101}));
    EXPECT_TRUE(wl.empty(3));
    EXPECT_FALSE(wl.empty(5));
    EXPECT_EQ(wl.size(), 1u);

    // Draining an empty key is a no-op.
    got.clear();
    wl.drain(3, [&](uint64_t v) { got.push_back(v); });
    EXPECT_TRUE(got.empty());
}

TEST(WakeList, DrainedNodesAreReusedWithoutGrowth)
{
    WakeList wl;
    wl.reset(4, 3);
    // Fill to capacity, drain, and refill repeatedly: the pool must
    // recycle its nodes rather than demand more.
    for (int round = 0; round < 10; ++round) {
        wl.add(0, 1);
        wl.add(1, 2);
        wl.add(1, 3);
        EXPECT_EQ(wl.size(), 3u);
        size_t drained = 0;
        wl.drain(0, [&](uint64_t) { ++drained; });
        wl.drain(1, [&](uint64_t) { ++drained; });
        EXPECT_EQ(drained, 3u);
        EXPECT_EQ(wl.size(), 0u);
    }
    EXPECT_EQ(wl.capacity(), 3u);
}

TEST(WakeList, ResetDropsWaitersAndResizes)
{
    WakeList wl;
    wl.reset(2, 2);
    wl.add(0, 7);
    wl.reset(16, 8);
    EXPECT_EQ(wl.size(), 0u);
    EXPECT_GE(wl.capacity(), 8u);
    for (uint32_t k = 0; k < 16; ++k)
        EXPECT_TRUE(wl.empty(k));
}

TEST(WakeListDeathTest, OverflowIsRejectedNotGrown)
{
    WakeList wl;
    wl.reset(4, 2);
    wl.add(0, 1);
    wl.add(1, 2);
    EXPECT_DEATH(wl.add(2, 3), "WakeList overflow");
}

// ---------------------------------------------------------------------------
// TimingWheel
// ---------------------------------------------------------------------------

namespace {

std::vector<uint64_t>
drainAll(TimingWheel &w, uint64_t now)
{
    std::vector<uint64_t> got;
    w.drain(now, [&](uint64_t seq) { got.push_back(seq); });
    return got;
}

} // namespace

TEST(TimingWheel, BucketDrainsInAscendingSeqOrder)
{
    TimingWheel w;
    w.reset(8, 16);
    // Scheduled out of order, into one bucket; the seqs straddle a
    // multiple of the 16 slots (34 sits in slot 2), so the order must
    // come from full seqs, not slots.
    for (const uint64_t seq : {29u, 26u, 34u, 27u, 31u})
        w.schedule(10, 14, seq);
    w.schedule(10, 12, 28);
    EXPECT_TRUE(drainAll(w, 11).empty());
    EXPECT_EQ(drainAll(w, 12), (std::vector<uint64_t>{28}));
    EXPECT_TRUE(drainAll(w, 13).empty());
    EXPECT_EQ(drainAll(w, 14),
              (std::vector<uint64_t>{26, 27, 29, 31, 34}));
    EXPECT_TRUE(drainAll(w, 14).empty()) << "a drain empties its bucket";
    EXPECT_EQ(w.scheduled(), 6u);
    // 34 appends after the tail for free; 27 walks past 26, and 31
    // past 26, 27 and 29.
    EXPECT_EQ(w.orderSteps(), 4u);
}

TEST(TimingWheel, PastEventsLandInTheNextCycle)
{
    TimingWheel w;
    w.reset(4, 8);
    w.schedule(20, 20, 5); // at the current cycle
    w.schedule(20, 3, 4);  // long past
    w.schedule(20, 21, 6); // exactly next cycle
    EXPECT_TRUE(drainAll(w, 20).empty());
    EXPECT_EQ(drainAll(w, 21), (std::vector<uint64_t>{4, 5, 6}));
}

TEST(TimingWheel, FullHorizonIsUsableAcrossWrap)
{
    TimingWheel w;
    w.reset(5, 8); // 8 buckets
    for (uint64_t now = 0; now < 40; ++now) {
        w.schedule(now, now + 5, now);
        if (now >= 5) {
            EXPECT_EQ(drainAll(w, now), (std::vector<uint64_t>{now - 5}));
        }
    }
}

TEST(TimingWheelDeathTest, EventBeyondHorizonIsRejectedNotWrapped)
{
    TimingWheel w;
    w.reset(100, 8);
    w.schedule(0, 100, 1);
    EXPECT_DEATH(w.schedule(0, 101, 2), "TimingWheel overflow");
}

// ---------------------------------------------------------------------------
// Deterministic work counters
// ---------------------------------------------------------------------------

TEST(WorkCounts, RepeatExactlyOnColdAndWarmSessions)
{
    const auto &w = workloads::workloadByName("untst");
    const auto prog = std::make_shared<const assembler::Program>(w.build(1));
    const auto cfg = pipeline::MachineConfig::optimized();

    sim::SimSession session;
    const auto cold = session.simulate(prog, cfg);
    const auto c = session.core().workCounts();
    session.simulate(prog, pipeline::MachineConfig::baseline());
    const auto warm = session.simulate(prog, cfg);
    const auto v = session.core().workCounts();

    EXPECT_EQ(warm.stats.cycles, cold.stats.cycles);
    EXPECT_EQ(c.ticks, cold.stats.cycles) << "one tick per cycle";
    EXPECT_EQ(v.ticks, c.ticks);
    EXPECT_EQ(v.events, c.events);
    EXPECT_EQ(v.orderSteps, c.orderSteps);
    // Every instruction that issues schedules one completion event,
    // so the count is positive and bounded by two per instruction.
    EXPECT_GT(c.events, 0u);
    EXPECT_LE(c.events, 2 * cold.stats.retired);
}
