/**
 * @file
 * Unit tests for the util substrate: bit helpers, the deterministic RNG,
 * the DelayPipe latency latch, and the percentile accumulator the perf
 * harness prints host-seconds distributions with.
 */

#include <gtest/gtest.h>

#include "src/pipeline/stats_aggregate.hh"
#include "src/util/bitops.hh"
#include "src/util/delay_pipe.hh"
#include "src/util/rng.hh"

using namespace conopt;

TEST(Bitops, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(uint64_t(1) << 63));
    EXPECT_FALSE(isPowerOfTwo((uint64_t(1) << 63) + 1));
}

TEST(Bitops, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(1024), 10u);
    EXPECT_EQ(log2Exact(uint64_t(1) << 63), 63u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(sext64(0x80, 8), -128);
    EXPECT_EQ(sext64(0x7f, 8), 127);
    EXPECT_EQ(sext64(0xffffffff, 32), -1);
    EXPECT_EQ(sext64(0x7fffffff, 32), 0x7fffffff);
}

TEST(Bitops, WrappingArithmetic)
{
    EXPECT_EQ(wrappingAdd(~uint64_t(0), 1), 0u);
    EXPECT_EQ(wrappingSub(0, 1), ~uint64_t(0));
    EXPECT_EQ(wrappingMul(uint64_t(1) << 63, 2), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const int64_t v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RoughUniformity)
{
    Rng rng(99);
    int buckets[8] = {};
    for (int i = 0; i < 8000; ++i)
        ++buckets[rng.nextBelow(8)];
    for (int b : buckets) {
        EXPECT_GT(b, 800);
        EXPECT_LT(b, 1200);
    }
}

TEST(DelayPipe, FixedLatency)
{
    DelayPipe<int> pipe(3);
    pipe.push(10, 1);
    EXPECT_FALSE(pipe.ready(10));
    EXPECT_FALSE(pipe.ready(12));
    ASSERT_TRUE(pipe.ready(13));
    EXPECT_EQ(pipe.front(), 1);
    pipe.pop();
    EXPECT_TRUE(pipe.empty());
}

TEST(DelayPipe, PreservesOrder)
{
    DelayPipe<int> pipe(2);
    pipe.push(0, 1);
    pipe.push(0, 2);
    pipe.push(1, 3);
    ASSERT_TRUE(pipe.ready(2));
    EXPECT_EQ(pipe.front(), 1);
    pipe.pop();
    EXPECT_EQ(pipe.front(), 2);
    pipe.pop();
    EXPECT_FALSE(pipe.ready(2));
    EXPECT_TRUE(pipe.ready(3));
    EXPECT_EQ(pipe.front(), 3);
}

TEST(DelayPipe, ZeroLatency)
{
    DelayPipe<int> pipe(0);
    pipe.push(5, 9);
    EXPECT_TRUE(pipe.ready(5));
}

TEST(DelayPipe, RemoveIf)
{
    DelayPipe<int> pipe(1);
    for (int i = 0; i < 6; ++i)
        pipe.push(0, i);
    pipe.removeIf([](int v) { return v % 2 == 0; });
    EXPECT_EQ(pipe.size(), 3u);
    ASSERT_TRUE(pipe.ready(1));
    EXPECT_EQ(pipe.front(), 1);
}

TEST(DelayPipe, PushSlotMaturesLikePush)
{
    DelayPipe<int> pipe(3);
    pipe.pushSlot(0) = 42;
    pipe.push(0, 43);
    EXPECT_FALSE(pipe.ready(2));
    ASSERT_TRUE(pipe.ready(3));
    EXPECT_EQ(pipe.front(), 42);
    pipe.pop();
    ASSERT_TRUE(pipe.ready(3));
    EXPECT_EQ(pipe.front(), 43);
    pipe.pop();
    EXPECT_TRUE(pipe.empty());
}

TEST(PercentileAccumulator, NearestRankPercentiles)
{
    pipeline::PercentileAccumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.percentile(50), 0.0) << "no samples: 0 by contract";

    // 10 samples, inserted out of order: nearest-rank p50 of n=10 is
    // the 5th smallest, p95 the 10th, p99 the 10th.
    for (double x : {7.0, 1.0, 9.0, 3.0, 10.0, 2.0, 8.0, 4.0, 6.0, 5.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 10u);
    EXPECT_DOUBLE_EQ(acc.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(acc.percentile(95), 10.0);
    EXPECT_DOUBLE_EQ(acc.percentile(99), 10.0);
    EXPECT_DOUBLE_EQ(acc.percentile(10), 1.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 10.0);

    acc.clear();
    EXPECT_TRUE(acc.empty());
    acc.add(3.5);
    EXPECT_DOUBLE_EQ(acc.percentile(50), 3.5);
    EXPECT_DOUBLE_EQ(acc.percentile(99), 3.5);
}

TEST(PercentileAccumulator, InsertionOrderDoesNotMatter)
{
    pipeline::PercentileAccumulator fwd, rev;
    for (int i = 1; i <= 100; ++i)
        fwd.add(double(i));
    for (int i = 100; i >= 1; --i)
        rev.add(double(i));
    for (double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(fwd.percentile(p), rev.percentile(p)) << p;
    EXPECT_DOUBLE_EQ(fwd.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(fwd.percentile(99), 99.0);
}
