/**
 * @file
 * Pre-decode trace cache tests.
 *
 * The predecode layer (src/arch/predecode.*) is a host-speed cache of
 * the static half of Emulator::step(); it must be invisible in the
 * simulated results. Past the entry state, the timing core sees the
 * emulator only through the DynInst stream and done(), so these tests
 * pin that stream: a cached and a re-decoding emulator step side by
 * side over every registered workload and must agree on every DynInst
 * field. They also pin the
 * cross-program correctness of the shared process-wide cache through
 * one warm session, the allocation-free warm path, and the
 * content-key/flattening basics.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/arch/emulator.hh"
#include "src/arch/predecode.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/sim/session.hh"
#include "src/workloads/workload.hh"

using namespace conopt;

// ---------------------------------------------------------------------------
// Counting global allocator (for the zero-allocation warm-hit test),
// same pattern as tests/test_session.cc: replacing the ordinary
// new/delete pair is enough, the other forms funnel through these.
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

namespace {

sim::ProgramPtr
programOf(const std::string &workload, unsigned scale = 1)
{
    const auto &w = workloads::workloadByName(workload);
    return std::make_shared<const assembler::Program>(w.build(scale));
}

/** Every SimStats counter that feeds artifacts, tables, or figures
 *  (the tests/test_wakeup.cc set). */
void
expectSameStats(const pipeline::SimStats &x, const pipeline::SimStats &y,
                const std::string &what)
{
    SCOPED_TRACE(what);
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

/** Every DynInst field the timing core reads, compared exactly. */
bool
sameDynInst(const arch::DynInst &x, const arch::DynInst &y)
{
    return x.seq == y.seq && x.pc == y.pc && x.inst.op == y.inst.op &&
           x.inst.ra == y.inst.ra && x.inst.rb == y.inst.rb &&
           x.inst.rc == y.inst.rc && x.inst.useImm == y.inst.useImm &&
           x.inst.imm == y.inst.imm && x.srcA == y.srcA &&
           x.srcB == y.srcB && x.srcC == y.srcC && x.result == y.result &&
           x.memAddr == y.memAddr && x.memSize == y.memSize &&
           x.taken == y.taken && x.nextPc == y.nextPc;
}

} // namespace

// ---------------------------------------------------------------------------
// Content key and flattening basics
// ---------------------------------------------------------------------------

TEST(PredecodeProgram, ContentKeyDistinguishesProgramsAndIsStable)
{
    const auto mcf1 = programOf("mcf");
    const auto gcc1 = programOf("gcc");
    const auto mcf2 = programOf("mcf", 2);

    const uint64_t kMcf1 = arch::programContentKey(*mcf1);
    // Rebuilding the same (workload, scale) yields the same bytes and
    // therefore the same key; different programs and different scales
    // land on different keys (that IS the invalidation mechanism).
    EXPECT_EQ(arch::programContentKey(*programOf("mcf")), kMcf1);
    EXPECT_NE(arch::programContentKey(*gcc1), kMcf1);
    EXPECT_NE(arch::programContentKey(*mcf2), kMcf1);
    EXPECT_NE(arch::programContentKey(*mcf2),
              arch::programContentKey(*gcc1));
}

TEST(PredecodeProgram, FlattensOneRecordPerStaticInstruction)
{
    const auto prog = programOf("untst");
    const arch::PreDecodedProgram pre(*prog);
    ASSERT_EQ(pre.size(), prog->code.size());
    EXPECT_EQ(pre.fingerprint(), arch::programContentKey(*prog));
    EXPECT_EQ(pre.entryPc(), prog->entryPc);
    for (size_t i = 0; i < pre.size(); ++i) {
        const arch::PreInst &p = pre.at(i);
        // The static instruction is carried verbatim.
        EXPECT_EQ(p.inst.op, prog->code[i].op) << "inst " << i;
        // The pre-cast immediate matches the instruction's own.
        EXPECT_EQ(p.immU, uint64_t(p.inst.imm)) << "inst " << i;
        // A record can be a load or a conditional branch, never both.
        EXPECT_FALSE(p.has(arch::PreInst::kIsLoad) &&
                     p.has(arch::PreInst::kIsCondBranch))
            << "inst " << i;
    }
}

// ---------------------------------------------------------------------------
// On/off bit-exactness of the DynInst stream over every workload
// ---------------------------------------------------------------------------

TEST(Predecode, OnAndOffStepIdenticalDynInstsOnEveryWorkload)
{
    auto &pc = arch::PredecodeCache::instance();
    const uint64_t hitsBefore = pc.hits();

    uint64_t totalInsts = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const auto program = programOf(w.name);
        arch::Emulator cached(program);
        arch::Emulator reference(program);
        reference.setPredecode(false);
        ASSERT_TRUE(cached.predecodeActive()) << "predecode defaults on";
        ASSERT_FALSE(reference.predecodeActive());

        while (!cached.done() && !reference.done()) {
            const arch::DynInst x = cached.step();
            const arch::DynInst y = reference.step();
            ASSERT_TRUE(sameDynInst(x, y))
                << "streams diverge at seq " << y.seq << " pc 0x"
                << std::hex << y.pc << " ("
                << isa::disassemble(y.inst, y.pc) << ")";
        }
        EXPECT_TRUE(cached.done());
        EXPECT_TRUE(reference.done());
        EXPECT_EQ(cached.halted(), reference.halted());
        EXPECT_EQ(cached.instCount(), reference.instCount());
        EXPECT_EQ(cached.state().intRegs, reference.state().intRegs);
        EXPECT_EQ(cached.state().fpRegs, reference.state().fpRegs);
        EXPECT_EQ(cached.memory().read(workloads::checksumAddr, 8),
                  reference.memory().read(workloads::checksumAddr, 8));
        totalInsts += reference.instCount();
    }

    // Non-vacuity: the cached emulators really stepped through the
    // shared cache's tables, over a meaningful instruction count.
    EXPECT_GT(pc.hits(), hitsBefore)
        << "the predecode path never hit the cache: the comparison "
           "above tested nothing";
    EXPECT_GT(totalInsts, 1000000u);
}

// ---------------------------------------------------------------------------
// Cross-program correctness through one warm session
// ---------------------------------------------------------------------------

TEST(Predecode, WarmSessionSwitchesProgramsWithoutStaleDecode)
{
    // One warm session alternating two different programs must rebind
    // its pre-decode on every switch (A,B,A,B) and match fresh
    // single-use sessions exactly; the shared cache must build each
    // program once and serve the revisits as hits.
    const auto cfg = pipeline::MachineConfig::optimized();
    const auto a = programOf("mcf");
    const auto b = programOf("gcc");

    sim::SimSession freshA, freshB;
    const auto refA = freshA.simulate(a, cfg);
    const auto refB = freshB.simulate(b, cfg);

    auto &pc = arch::PredecodeCache::instance();
    const uint64_t buildsBefore = pc.builds();

    sim::SimSession warm;
    const auto a1 = warm.simulate(a, cfg);
    const auto b1 = warm.simulate(b, cfg);
    const auto a2 = warm.simulate(a, cfg);
    const auto b2 = warm.simulate(b, cfg);

    expectSameStats(a1.stats, refA.stats, "warm mcf #1");
    expectSameStats(b1.stats, refB.stats, "warm gcc #1");
    expectSameStats(a2.stats, refA.stats, "warm mcf #2");
    expectSameStats(b2.stats, refB.stats, "warm gcc #2");
    EXPECT_EQ(a1.instructions, refA.instructions);
    EXPECT_EQ(b1.instructions, refB.instructions);

    // The fresh sessions above already populated both programs, so the
    // warm session's four runs must not build anything new.
    EXPECT_EQ(pc.builds(), buildsBefore)
        << "a warm program switch rebuilt a table the cache already had";
}

// ---------------------------------------------------------------------------
// Zero heap allocations on the warm cached path
// ---------------------------------------------------------------------------

TEST(Predecode, WarmCachedRunPerformsZeroHeapAllocations)
{
    // The batched-execution warm path (same program, back-to-back
    // configs on one resident session) must stay allocation-free with
    // predecode on: a cache hit is a map probe plus a shared_ptr copy.
    const auto prog = programOf("untst");
    const auto base = pipeline::MachineConfig::baseline();
    const auto opt = pipeline::MachineConfig::optimized();

    sim::SimSession session;
    // Cold pass over both configs sizes everything, including the
    // pre-decode table for prog.
    const auto coldBase = session.simulate(prog, base);
    const auto coldOpt = session.simulate(prog, opt);
    ASSERT_TRUE(session.emulator().predecodeActive());

    const uint64_t before = g_newCalls.load(std::memory_order_relaxed);
    session.reset(prog, base);
    const auto warmBase = session.run();
    session.reset(prog, opt);
    const auto warmOpt = session.run();
    const uint64_t after = g_newCalls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "warm batched reset+run allocated " << (after - before)
        << " times";

    expectSameStats(warmBase.stats, coldBase.stats, "warm base rerun");
    expectSameStats(warmOpt.stats, coldOpt.stats, "warm opt rerun");
    EXPECT_GT(warmBase.instructions, 1000u)
        << "the workload must be big enough to mean something";
}
