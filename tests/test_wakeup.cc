/**
 * @file
 * WakeList tests: the per-register waiter lists behind the timing
 * core's event-driven wakeup, including the fixed-capacity overflow
 * contract. The wakeup machinery's effect on simulated results is
 * pinned end to end by the tolerance-0 bench baselines.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/wake_list.hh"

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
