/**
 * @file
 * SimSession / RingBuffer tests: the allocation-free hot-path refactor
 * must change how fast we simulate, never what we simulate.
 *
 * The load-bearing properties:
 *   - a reused session is bit-identical to a fresh one: the same job
 *     run on a session that already executed N unrelated jobs (other
 *     programs, other machine configurations) yields the same
 *     SimStats, counter for counter;
 *   - SweepRunner's thread-local sessions reproduce the per-job
 *     construction results of PR 4 exactly;
 *   - RingBuffer is a faithful bounded FIFO: wrap-around preserves
 *     order, full/empty transitions are exact, and overflowing a full
 *     buffer is a hard error, never silent growth;
 *   - the steady-state hot path performs zero heap allocations: a
 *     warm session re-runs an entire job without a single operator
 *     new call (checked with a counting global allocator), and a
 *     TimingWheel resized within its high-water mark allocates nothing.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/arch/emulator.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/pipeline/sim_stats.hh"
#include "src/sim/baseline.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep.hh"
#include "src/util/ring_buffer.hh"
#include "src/util/timing_wheel.hh"
#include "src/workloads/workload.hh"

using namespace conopt;

// ---------------------------------------------------------------------------
// Counting global allocator (for the zero-allocation steady-state test).
// Replacing the ordinary operator new/delete pair is enough: the array
// and default-aligned forms all funnel through these.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_newCalls{0};
} // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair; it cannot see that the replaced operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

TEST(RingBuffer, StartsEmptyWithRoundedUpCapacity)
{
    RingBuffer<int> rb(5);
    EXPECT_TRUE(rb.empty());
    EXPECT_FALSE(rb.full());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 8u) << "capacity rounds up to a power of 2";
}

TEST(RingBuffer, WrapAroundPreservesFifoOrderAndIndexing)
{
    RingBuffer<int> rb(4);
    // Drive head_ around the ring several times with a sliding window.
    int next = 0, expect_front = 0;
    for (int i = 0; i < 3; ++i)
        rb.push_back(next++);
    for (int round = 0; round < 25; ++round) {
        rb.push_back(next++);
        ASSERT_EQ(rb.size(), 4u);
        EXPECT_TRUE(rb.full());
        // Logical index 0 is the oldest; indexing walks in push order.
        for (size_t k = 0; k < rb.size(); ++k)
            EXPECT_EQ(rb[k], expect_front + int(k));
        EXPECT_EQ(rb.front(), expect_front);
        EXPECT_EQ(rb.back(), next - 1);
        rb.pop_front();
        ++expect_front;
    }
    EXPECT_EQ(rb.size(), 3u);
}

TEST(RingBuffer, FullEmptyTransitions)
{
    RingBuffer<int> rb(2);
    EXPECT_TRUE(rb.empty());
    rb.push_back(1);
    EXPECT_FALSE(rb.empty());
    EXPECT_FALSE(rb.full());
    rb.push_back(2);
    EXPECT_TRUE(rb.full());
    rb.pop_front();
    EXPECT_FALSE(rb.full());
    rb.pop_front();
    EXPECT_TRUE(rb.empty());
    // reset() clears and re-reserves in one step.
    rb.push_back(7);
    rb.reset(16);
    EXPECT_TRUE(rb.empty());
    EXPECT_GE(rb.capacity(), 16u);
}

TEST(RingBufferDeathTest, OverflowIsRejectedNotGrown)
{
    RingBuffer<int> rb(2);
    rb.push_back(1);
    rb.push_back(2);
    ASSERT_TRUE(rb.full());
    EXPECT_DEATH(rb.push_back(3), "RingBuffer overflow");
}

TEST(RingBuffer, ReserveGrowsAcrossWrapPreservingOrder)
{
    RingBuffer<int> rb(4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(4);
    rb.push_back(5); // head is mid-ring, contents {2,3,4,5}
    rb.reserve(9);
    EXPECT_GE(rb.capacity(), 9u);
    ASSERT_EQ(rb.size(), 4u);
    for (size_t k = 0; k < rb.size(); ++k)
        EXPECT_EQ(rb[k], int(k) + 2);
    rb.push_back(6);
    EXPECT_EQ(rb.back(), 6);
    EXPECT_EQ(rb.front(), 2);
}

TEST(RingBuffer, EraseByLogicalIndexPreservesOrder)
{
    RingBuffer<int> rb(8);
    // Wrap the head first so erase crosses the physical seam.
    for (int i = 0; i < 6; ++i)
        rb.push_back(i);
    for (int i = 0; i < 6; ++i)
        rb.pop_front();
    for (int i = 0; i < 7; ++i)
        rb.push_back(i);
    rb.erase(3);
    ASSERT_EQ(rb.size(), 6u);
    const int expect[] = {0, 1, 2, 4, 5, 6};
    for (size_t k = 0; k < rb.size(); ++k)
        EXPECT_EQ(rb[k], expect[k]);
    rb.erase(0);
    EXPECT_EQ(rb.front(), 1);
    rb.erase(rb.size() - 1);
    EXPECT_EQ(rb.back(), 5);
}

TEST(RingBuffer, EraseDuringIndexedIterationVisitsEverySurvivor)
{
    // The issue loops walk a queue by logical index and erase entries
    // that issue, re-testing the same index afterwards. Pin those
    // semantics: erase(i) makes index i name the next-younger element,
    // everything older keeps its index, and no survivor is skipped.
    RingBuffer<int> rb(8);
    // Wrap the head so the scan crosses the physical seam.
    for (int i = 0; i < 5; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 5; ++i)
        rb.pop_front();
    for (int i = 0; i < 8; ++i)
        rb.push_back(i);

    std::vector<int> visited;
    size_t i = 0;
    while (i < rb.size()) {
        visited.push_back(rb[i]);
        if (rb[i] % 2 == 0)
            rb.erase(i); // "issued": index i now names the next entry
        else
            ++i;
    }
    EXPECT_EQ(visited, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "every element is visited exactly once";
    ASSERT_EQ(rb.size(), 4u);
    const int odd[] = {1, 3, 5, 7};
    for (size_t k = 0; k < rb.size(); ++k)
        EXPECT_EQ(rb[k], odd[k]) << "survivors keep their age order";
}

// ---------------------------------------------------------------------------
// Session reuse determinism
// ---------------------------------------------------------------------------

namespace {

sim::ProgramPtr
programOf(const std::string &workload, unsigned scale = 1)
{
    const auto &w = workloads::workloadByName(workload);
    return std::make_shared<const assembler::Program>(w.build(scale));
}

/** Field-by-field SimStats/SimResult comparison with a named context
 *  (SimStats has no operator==; enumerate every counter that feeds
 *  artifacts, tables, or figures). */
void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.halted, b.halted);
    const auto &x = a.stats, &y = b.stats;
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.retired, y.retired);
    EXPECT_EQ(x.halted, y.halted);
    EXPECT_EQ(x.branches, y.branches);
    EXPECT_EQ(x.condBranches, y.condBranches);
    EXPECT_EQ(x.mispredicted, y.mispredicted);
    EXPECT_EQ(x.earlyResolvedBranches, y.earlyResolvedBranches);
    EXPECT_EQ(x.earlyRecoveredMispredicts, y.earlyRecoveredMispredicts);
    EXPECT_EQ(x.btbResteers, y.btbResteers);
    EXPECT_EQ(x.loads, y.loads);
    EXPECT_EQ(x.stores, y.stores);
    EXPECT_EQ(x.loadsForwardedFromStoreQ, y.loadsForwardedFromStoreQ);
    EXPECT_EQ(x.mbcMisspecFlushes, y.mbcMisspecFlushes);
    EXPECT_EQ(x.dl1Hits, y.dl1Hits);
    EXPECT_EQ(x.dl1Misses, y.dl1Misses);
    EXPECT_EQ(x.il1Misses, y.il1Misses);
    EXPECT_EQ(x.fetchStallMispredict, y.fetchStallMispredict);
    EXPECT_EQ(x.fetchStallIcache, y.fetchStallIcache);
    EXPECT_EQ(x.fetchStallQueueFull, y.fetchStallQueueFull);
    EXPECT_EQ(x.renameStallRob, y.renameStallRob);
    EXPECT_EQ(x.renameStallDispatchQ, y.renameStallDispatchQ);
    EXPECT_EQ(x.renameStallPregs, y.renameStallPregs);
    EXPECT_EQ(x.dispatchStallSched, y.dispatchStallSched);
    EXPECT_EQ(x.opt.instsRenamed, y.opt.instsRenamed);
    EXPECT_EQ(x.opt.earlyExecuted, y.opt.earlyExecuted);
    EXPECT_EQ(x.opt.movesEliminated, y.opt.movesEliminated);
    EXPECT_EQ(x.opt.branchesResolved, y.opt.branchesResolved);
    EXPECT_EQ(x.opt.memOps, y.opt.memOps);
    EXPECT_EQ(x.opt.loads, y.opt.loads);
    EXPECT_EQ(x.opt.addrKnown, y.opt.addrKnown);
    EXPECT_EQ(x.opt.loadsRemoved, y.opt.loadsRemoved);
    EXPECT_EQ(x.opt.loadsSynthesized, y.opt.loadsSynthesized);
    EXPECT_EQ(x.opt.mbcMisspecs, y.opt.mbcMisspecs);
    EXPECT_EQ(x.opt.symRewrites, y.opt.symRewrites);
    EXPECT_EQ(x.opt.depthBlocked, y.opt.depthBlocked);
    EXPECT_EQ(x.opt.strengthReductions, y.opt.strengthReductions);
    EXPECT_EQ(x.opt.branchInferences, y.opt.branchInferences);
    EXPECT_EQ(x.mbc.lookups, y.mbc.lookups);
    EXPECT_EQ(x.mbc.hits, y.mbc.hits);
    EXPECT_EQ(x.mbc.inserts, y.mbc.inserts);
    EXPECT_EQ(x.mbc.evictions, y.mbc.evictions);
    EXPECT_EQ(x.mbc.invalidations, y.mbc.invalidations);
    EXPECT_EQ(x.mbc.flushes, y.mbc.flushes);
}

} // namespace

TEST(SimSession, ReusedSessionMatchesFreshRunAfterUnrelatedJobs)
{
    const auto untst = programOf("untst");
    const auto mcf = programOf("mcf");
    const auto base = pipeline::MachineConfig::baseline();
    const auto opt = pipeline::MachineConfig::optimized();

    // Reference: every job on a fresh one-shot simulate().
    const auto refUntstBase = sim::simulate(*untst, base);
    const auto refUntstOpt = sim::simulate(*untst, opt);
    const auto refMcfOpt = sim::simulate(*mcf, opt);

    // One session runs a shuffle of unrelated jobs (different
    // programs, different machine configurations — including MBC
    // geometry and predictor changes) before and between the jobs
    // under test.
    sim::SimSession session;
    expectSameResult(session.simulate(untst, base), refUntstBase,
                     "cold session");
    expectSameResult(session.simulate(mcf, opt), refMcfOpt,
                     "after one job");
    expectSameResult(session.simulate(untst, opt), refUntstOpt,
                     "config flip on same program");
    session.simulate(mcf, pipeline::MachineConfig::fetchBound(true));
    session.simulate(untst, pipeline::MachineConfig::execBound(false));
    expectSameResult(session.simulate(untst, base), refUntstBase,
                     "same job after 4 unrelated jobs");
    expectSameResult(session.simulate(mcf, opt), refMcfOpt,
                     "and the optimized job again");
}

TEST(SimSession, RunWithoutResetIsFatal)
{
    sim::SimSession session;
    EXPECT_EXIT(session.run(), ::testing::ExitedWithCode(1),
                "without a prior reset");
    // ...and run() consumes the arming.
    session.reset(programOf("untst"),
                  pipeline::MachineConfig::baseline());
    EXPECT_TRUE(session.armed());
    session.run();
    EXPECT_FALSE(session.armed());
    EXPECT_EXIT(session.run(), ::testing::ExitedWithCode(1),
                "without a prior reset");
}

// ---------------------------------------------------------------------------
// Sweep-level regression: thread-local sessions == per-job construction
// ---------------------------------------------------------------------------

TEST(SimSession, SweepRunnerSessionsMatchPerJobConstruction)
{
    sim::SweepSpec spec;
    spec.workloads({"untst", "mcf", "g721d"})
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());

    // Two workers => both thread-local sessions run several jobs each.
    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run(spec);
    ASSERT_EQ(res.size(), 6u);

    sim::ProgramCache cache;
    for (const auto &r : res.all()) {
        const auto program = cache.get(r.job.workload, r.job.scale);
        const auto fresh =
            sim::simulate(*program, r.job.config, r.job.maxInsts);
        expectSameResult(r.sim, fresh, r.job.label);
    }
}

TEST(SimSession, AddPerfSkipsCacheHitsSoArtifactsNeverCarryLoaderTime)
{
    // A cache hit's wall time measures the artifact loader, not the
    // simulator; addPerf must leave such jobs unmeasured so a --perf
    // --result-cache run can never fake a host-perf improvement.
    sim::JobResult measured;
    measured.job.label = "w/measured";
    measured.sim.instructions = 1000;
    measured.hostSeconds = 0.5;
    measured.simSeconds = 0.4;
    measured.kips = 1000.0 / 0.4 / 1e3;
    sim::JobResult cached;
    cached.job.label = "w/cached";
    cached.sim.instructions = 1000;
    cached.hostSeconds = 0.0005; // loader time, not simulation
    cached.fromCache = true;     // simSeconds/kips stay 0
    sim::SweepResult res;
    res.add(measured);
    res.add(cached);

    auto art = sim::BenchArtifact::fromSweep(res);
    const std::string withoutPerf = art.toJson();
    art.addPerf(res);
    const auto *m = art.findJob("w/measured");
    const auto *c = art.findJob("w/cached");
    ASSERT_NE(m, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(m->hostSeconds, 0.4) << "simulation time, not "
                                             "whole-job time";
    EXPECT_DOUBLE_EQ(m->kips, 2.5);
    EXPECT_DOUBLE_EQ(c->hostSeconds, 0.0);
    EXPECT_DOUBLE_EQ(c->kips, 0.0);
    // And the serialized perf fields appear only on the measured job.
    const std::string withPerf = art.toJson();
    EXPECT_NE(withPerf, withoutPerf);
    EXPECT_NE(withPerf.find("\"host_seconds\""), std::string::npos);
    art.jobs.erase(art.jobs.begin()); // drop the measured job
    EXPECT_EQ(art.toJson().find("\"host_seconds\""), std::string::npos)
        << "an unmeasured job must serialize byte-identically to the "
           "pre-perf schema";
}

// ---------------------------------------------------------------------------
// Zero heap allocations on the warm path
// ---------------------------------------------------------------------------

TEST(SimSession, WarmRunPerformsZeroHeapAllocations)
{
    const auto prog = programOf("untst");
    const auto cfg = pipeline::MachineConfig::optimized();

    sim::SimSession session;
    const auto cold = session.simulate(prog, cfg);

    // Everything is sized now: the same job again — including the
    // reset — must not allocate at all. This is deliberately stronger
    // than "no allocations per instruction": the entire warm
    // reset+run cycle is allocation-free.
    const uint64_t before = g_newCalls.load(std::memory_order_relaxed);
    session.reset(prog, cfg);
    const auto warm = session.run();
    const uint64_t after = g_newCalls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "warm reset+run allocated " << (after - before) << " times";
    expectSameResult(warm, cold, "warm vs cold");
    EXPECT_GT(warm.instructions, 1000u)
        << "the workload must be big enough to mean something";
}

TEST(TimingWheel, WarmResetPerformsZeroHeapAllocations)
{
    TimingWheel w;
    w.reset(1100, 256); // the high-water horizon and window
    w.schedule(0, 1100, 3);

    // Smaller or equal sizes reuse the storage: no reset allocates.
    const uint64_t before = g_newCalls.load(std::memory_order_relaxed);
    w.reset(119, 256);
    w.schedule(0, 119, 4);
    w.reset(1100, 128);
    w.reset(1100, 256);
    const uint64_t after = g_newCalls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "warm reset allocated " << (after - before) << " times";
}
