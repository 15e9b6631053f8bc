/**
 * @file
 * Timing-model tests: branch-misprediction penalty calibration (Table 2:
 * 20 cycles minimum on the baseline, +2 with the optimizer, much less
 * when the optimizer resolves the branch at rename), IPC sanity,
 * in-order retirement, physical-register leak checking, and pinned
 * results under edge machine configurations.
 */

#include <utility>

#include <gtest/gtest.h>

#include "src/arch/emulator.hh"
#include "src/asm/assembler.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/sim/simulator.hh"
#include "src/workloads/workload.hh"

using namespace conopt;
using namespace conopt::assembler;

namespace {

/**
 * Straight-line program with one conditional branch in the middle whose
 * taken target is its own fall-through, so taken/not-taken execute the
 * same instructions and any cycle difference is pure branch handling.
 *
 * @param taken branch actually taken (cold predictor says not-taken,
 *              so taken == mispredicted)
 * @param known_source condition register holds an immediate constant
 *        (resolvable by the optimizer) vs. a loaded value
 */
Program
branchProbe(bool taken, bool known_source)
{
    Assembler a;
    const uint64_t cell = a.dataQuads({1});
    if (known_source) {
        a.li(R1, 1);
    } else {
        a.li(R2, int64_t(cell));
        a.ldq(R1, 0, R2);
    }
    // Fully independent filler so completion time is fetch-bound and
    // the redirect bubble is visible end to end.
    for (int i = 0; i < 40; ++i)
        a.li(Reg(3 + (i % 8)), i);
    if (taken)
        a.bne(R1, "after"); // r1 == 1: taken, predicted not-taken
    else
        a.beq(R1, "after"); // not taken, predicted not-taken: correct
    a.label("after");
    for (int i = 0; i < 60; ++i)
        a.li(Reg(3 + (i % 8)), i);
    a.halt();
    return a.finish();
}

uint64_t
cyclesOf(const Program &p, const pipeline::MachineConfig &cfg)
{
    return sim::simulate(p, cfg).stats.cycles;
}

} // namespace

TEST(PipelineCalibration, BaselineMispredictPenaltyIsTwentyCycles)
{
    const auto cfg = pipeline::MachineConfig::baseline();
    const auto hit = branchProbe(false, true);
    const auto miss = branchProbe(true, true);
    const uint64_t penalty = cyclesOf(miss, cfg) - cyclesOf(hit, cfg);
    EXPECT_EQ(penalty, 20u) << "Table 2: 20 cycles (min) for BR res";
}

namespace {

/**
 * Branch probe with a floating-point condition: the optimizer never
 * tracks fp registers, so these branches are never resolved at rename
 * and the full (extended) recovery loop is exposed.
 */
Program
branchProbeFp(bool taken)
{
    Assembler a;
    a.li(R9, 1);
    a.cvtqt(R9, F1); // F1 = 1.0 (nonzero), ready long before the branch
    for (int i = 0; i < 40; ++i)
        a.li(Reg(3 + (i % 8)), i);
    if (taken)
        a.fbne(F1, "after"); // taken, cold predictor says not-taken
    else
        a.fbeq(F1, "after"); // not taken: predicted correctly
    a.label("after");
    for (int i = 0; i < 60; ++i)
        a.li(Reg(3 + (i % 8)), i);
    a.halt();
    return a.finish();
}

} // namespace

TEST(PipelineCalibration, OptimizerAddsTwoCyclesWhenNotResolvedEarly)
{
    // fp-condition branches cannot be resolved by the (integer-only)
    // optimizer, so the penalty difference between the two machines is
    // exactly the optimizer's two extra rename stages.
    const auto base_cfg = pipeline::MachineConfig::baseline();
    const auto opt_cfg = pipeline::MachineConfig::optimized();
    const auto hit = branchProbeFp(false);
    const auto miss = branchProbeFp(true);
    const uint64_t base_penalty =
        cyclesOf(miss, base_cfg) - cyclesOf(hit, base_cfg);
    const uint64_t opt_penalty =
        cyclesOf(miss, opt_cfg) - cyclesOf(hit, opt_cfg);
    EXPECT_EQ(opt_penalty, base_penalty + 2)
        << "two extra rename stages lengthen the recovery loop";
}

TEST(PipelineCalibration, EarlyResolutionSavesPostRenameCycles)
{
    const auto cfg = pipeline::MachineConfig::optimized();
    // Known condition: resolved at the end of the extended rename stage.
    const auto hit = branchProbe(false, true);
    const auto miss = branchProbe(true, true);
    const uint64_t early_penalty =
        cyclesOf(miss, cfg) - cyclesOf(hit, cfg);
    EXPECT_LT(early_penalty, 20u);
    EXPECT_GE(early_penalty, 10u);
}

TEST(Pipeline, IndependentOpsReachFetchWidthIpc)
{
    // A looped block so the I-cache warms up (straight-line cold code
    // is memory-latency bound, not width bound).
    Assembler a;
    a.li(R20, 64);
    a.label("rep");
    for (int i = 0; i < 512; ++i)
        a.addq(Reg(1 + (i % 16)), 1, Reg(1 + (i % 16)));
    a.subq(R20, 1, R20);
    a.bne(R20, "rep");
    a.halt();
    const auto r = sim::simulate(a.finish(),
                                 pipeline::MachineConfig::baseline());
    // 16 independent chains, 4-wide fetch/rename: IPC near 4.
    EXPECT_GT(r.stats.ipc(), 3.0);
}

TEST(Pipeline, SerialChainIsLatencyBound)
{
    Assembler a;
    a.li(R20, 64);
    a.label("rep");
    for (int i = 0; i < 256; ++i)
        a.addq(R1, 1, R1);
    a.subq(R20, 1, R20);
    a.bne(R20, "rep");
    a.halt();
    // Baseline: roughly one add per cycle.
    const auto base = sim::simulate(a.finish(),
                                    pipeline::MachineConfig::baseline());
    EXPECT_LE(base.stats.ipc(), 1.3);
}

TEST(Pipeline, OptimizerCollapsesSerialChain)
{
    Assembler a;
    a.li(R1, 5);
    a.li(R20, 64);
    a.label("rep");
    for (int i = 0; i < 256; ++i)
        a.addq(R1, 1, R1);
    a.subq(R20, 1, R20);
    a.bne(R20, "rep");
    a.halt();
    const auto base = sim::simulate(a.finish(),
                                    pipeline::MachineConfig::baseline());
    Assembler b;
    b.li(R1, 5);
    b.li(R20, 64);
    b.label("rep");
    for (int i = 0; i < 256; ++i)
        b.addq(R1, 1, R1);
    b.subq(R20, 1, R20);
    b.bne(R20, "rep");
    b.halt();
    const auto opt = sim::simulate(b.finish(),
                                   pipeline::MachineConfig::optimized());
    // Every add folds to a constant: the serial chain becomes
    // fetch-bound instead of 1 IPC.
    EXPECT_GT(opt.stats.ipc(), 2.5 * base.stats.ipc());
    EXPECT_GT(opt.stats.execEarlyFrac(), 0.90);
}

TEST(Pipeline, LoadLatencyObserved)
{
    Assembler a;
    const uint64_t cell = a.dataQuads({0x10});
    a.li(R2, int64_t(cell));
    // Pointer-chase style serial loads (address depends on prior load).
    const int n = 500;
    a.ldq(R1, 0, R2);
    for (int i = 0; i < n; ++i) {
        a.and_(R1, 0, R1);       // r1 = 0 (depends on load)
        a.addq(R1, int64_t(cell), R3);
        a.ldq(R1, 0, R3);        // serial load
    }
    a.halt();
    const auto r = sim::simulate(a.finish(),
                                 pipeline::MachineConfig::baseline());
    // Each iteration needs at least the 2-cycle L1 latency plus agen.
    EXPECT_GT(double(r.stats.cycles), 4.0 * n);
}

TEST(Pipeline, StoreLoadForwardingThroughStoreQueue)
{
    Assembler a;
    const uint64_t buf = a.allocQuads(1);
    a.li(R1, int64_t(buf));
    a.li(R2, 99);
    for (int i = 0; i < 100; ++i) {
        a.addq(R2, 1, R2);
        a.stq(R2, 0, R1);
        a.ldq(R3, 0, R1); // must see the store's value
        a.addq(R3, 0, R4);
    }
    a.halt();
    // Run on the baseline (no MBC): the LSQ must forward.
    const auto r = sim::simulate(a.finish(),
                                 pipeline::MachineConfig::baseline());
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.stats.loadsForwardedFromStoreQ, 50u);

    // Partial overlap: an older, narrower store that covers only the
    // low half of an 8-byte load cannot supply it, so the load must
    // wait for the store to leave the queue and read memory. The two
    // programs differ only in the store width; the full-width one is
    // the forwarding control.
    constexpr uint64_t kHigh = 0x1234567800000000ull;
    const auto build = [](bool narrow_store) {
        Assembler b;
        const uint64_t cell = b.dataQuads({kHigh, 0});
        b.li(R1, int64_t(cell));
        b.li(R2, 99);
        b.li(R5, 0);
        for (int i = 0; i < 100; ++i) {
            b.addq(R2, 1, R2);
            if (narrow_store)
                b.stl(R2, 0, R1); // writes bytes [0, 4) of the quad
            else
                b.stq(R2, 0, R1);
            b.ldq(R3, 0, R1); // reads bytes [0, 8)
            b.addq(R5, R3, R5);
        }
        b.stq(R5, 8, R1); // the sum of every loaded value
        b.halt();
        return std::make_pair(b.finish(), cell);
    };
    // What each ldq must return, summed: with the narrow store the
    // high half keeps the initial bytes.
    uint64_t narrowSum = 0, wideSum = 0;
    for (uint64_t v = 100; v < 200; ++v) {
        narrowSum += kHigh | v;
        wideSum += v;
    }

    const auto [narrowProg, narrowBuf] = build(true);
    const auto [wideProg, wideBuf] = build(false);
    for (const auto &cfg : {pipeline::MachineConfig::baseline(),
                            pipeline::MachineConfig::optimized()}) {
        arch::Emulator narrowEmu(narrowProg);
        pipeline::OooCore narrowCore(cfg, narrowEmu);
        const auto narrow = narrowCore.run();
        arch::Emulator wideEmu(wideProg);
        pipeline::OooCore wideCore(cfg, wideEmu);
        const auto wide = wideCore.run();

        EXPECT_TRUE(narrow.halted);
        EXPECT_EQ(narrow.loadsForwardedFromStoreQ, 0u)
            << "a partially overlapping store forwarded to a wider load";
        // The loaded values are the emulator's, and they include the
        // bytes the narrow store did not write.
        EXPECT_EQ(narrowEmu.memory().read(narrowBuf + 8, 8), narrowSum);
        EXPECT_EQ(wideEmu.memory().read(wideBuf + 8, 8), wideSum);
        // Non-vacuity: the narrow loads really met in-flight stores and
        // waited on them, where the control forwarded instead.
        if (!cfg.opt.enabled) {
            EXPECT_GT(wide.loadsForwardedFromStoreQ, 50u);
            EXPECT_GT(narrow.cycles, wide.cycles)
                << "blocked loads cost no cycles: they never met a store";
        }
    }
}

TEST(Pipeline, NoPhysicalRegisterLeaks)
{
    Assembler a;
    const uint64_t buf = a.allocQuads(32);
    a.li(R1, int64_t(buf));
    a.li(R2, 200);
    a.label("loop");
    a.and_(R2, 31, R3);
    a.sll(R3, 3, R3);
    a.addq(R1, R3, R4);
    a.stq(R2, 0, R4);
    a.ldq(R5, 0, R4);
    a.addq(R5, R5, R6);
    a.subq(R2, 1, R2);
    a.bne(R2, "loop");
    a.halt();
    Program p = a.finish();

    arch::Emulator emu(p);
    pipeline::OooCore core(pipeline::MachineConfig::optimized(), emu);
    core.run();
    // After the pipeline drains, live registers are only the RAT
    // mappings/symbolic bases and MBC-held entries.
    const unsigned live = core.intPrf().allocatedCount();
    EXPECT_GE(live, 31u);
    EXPECT_LE(live, 31u + 31u + 128u);
    EXPECT_LE(core.fpPrf().allocatedCount(), 32u);
}

TEST(Pipeline, RetiredCountMatchesEmulator)
{
    Assembler a;
    a.li(R1, 100);
    a.label("loop");
    a.subq(R1, 1, R1);
    a.bne(R1, "loop");
    a.halt();
    Program p = a.finish();
    arch::Emulator ref(p);
    ref.run();
    for (const auto &cfg : {pipeline::MachineConfig::baseline(),
                            pipeline::MachineConfig::optimized()}) {
        const auto r = sim::simulate(p, cfg);
        EXPECT_EQ(r.instructions, ref.instCount());
        EXPECT_EQ(r.stats.retired, ref.instCount());
        EXPECT_TRUE(r.halted);
    }
}

TEST(Pipeline, ProgramWithoutHaltDrains)
{
    Assembler a;
    for (int i = 0; i < 50; ++i)
        a.addq(R1, 1, R1);
    a.label("spin");
    a.br("spin");
    const auto r =
        sim::simulate(a.finish(), pipeline::MachineConfig::baseline(),
                      /*max_insts=*/500);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.stats.retired, 500u);
}

TEST(Pipeline, RetireWidthBoundsThroughput)
{
    // IPC can never exceed the retire width (Table 2: 6).
    Assembler a;
    for (int i = 0; i < 2000; ++i)
        a.addq(Reg(1 + (i % 20)), 1, Reg(1 + (i % 20)));
    a.halt();
    const auto r = sim::simulate(a.finish(),
                                 pipeline::MachineConfig::optimized());
    EXPECT_LE(r.stats.ipc(), 6.0);
}

TEST(MachineConfig, PresetsMatchTable2)
{
    const auto c = pipeline::MachineConfig::baseline();
    EXPECT_EQ(c.fetchWidth, 4u);
    EXPECT_EQ(c.retireWidth, 6u);
    EXPECT_EQ(c.robEntries, 160u);
    EXPECT_EQ(c.schedEntries, 8u);
    EXPECT_EQ(c.numSimpleAlu, 4u);
    EXPECT_EQ(c.numComplexAlu, 1u);
    EXPECT_EQ(c.numFpAlu, 2u);
    EXPECT_EQ(c.numAgen, 2u);
    EXPECT_EQ(c.bp.historyBits, 18u);
    EXPECT_EQ(c.bp.btbEntries, 1024u);
    EXPECT_EQ(c.hier.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.hier.l2.latency, 10u);
    EXPECT_EQ(c.hier.memLatency, 100u);
    EXPECT_FALSE(c.opt.enabled);

    const auto o = pipeline::MachineConfig::optimized();
    EXPECT_TRUE(o.opt.enabled);
    EXPECT_EQ(o.opt.extraStages, 2u);
    EXPECT_EQ(o.opt.mbc.entries, 128u);
    EXPECT_EQ(o.renameDepth(), c.renameDepth() + 2);

    EXPECT_EQ(pipeline::MachineConfig::fetchBound(false).schedEntries,
              16u);
    EXPECT_EQ(pipeline::MachineConfig::execBound(false).fetchWidth, 8u);
}

// ---------------------------------------------------------------------------
// Edge configurations
// ---------------------------------------------------------------------------

namespace {

/** One pinned run: edge config, workload, machine, and its results. */
struct EdgeRun
{
    int edge;
    const char *workload;
    bool optimized;
    uint64_t cycles, retired, dl1Misses, mispredicted, dispatchStallSched;
};

/**
 * Results at the edges of the timing core's sizing: zero register-read
 * and scheduler delay (events land in the very next cycle), a 1000-
 * cycle memory behind a 40-cycle L2 (events far past the default
 * horizon), and a 12-stage optimizer with a 9-cycle value feedback
 * (ready events far ahead at rename). The values were recorded with
 * the sorted-list event queues the timing wheels replaced, so a
 * horizon or ordering bug in the wheels shows as a panic or a drift.
 */
constexpr EdgeRun kEdgeRuns[] = {
    {0, "mcf", false, 183322u, 216355u, 221u, 5096u, 19308u},
    {0, "mcf", true, 159902u, 216355u, 221u, 5097u, 4062u},
    {0, "eqk", false, 159521u, 486527u, 8619u, 61u, 34590u},
    {0, "eqk", true, 153921u, 486527u, 8619u, 65u, 45603u},
    {0, "untst", false, 84919u, 130728u, 45u, 72u, 66369u},
    {0, "untst", true, 61668u, 130728u, 45u, 73u, 60371u},
    {1, "mcf", false, 247773u, 216355u, 221u, 5110u, 36880u},
    {1, "mcf", true, 211817u, 216355u, 221u, 5110u, 21815u},
    {1, "eqk", false, 326658u, 486527u, 8733u, 62u, 203394u},
    {1, "eqk", true, 321395u, 486527u, 8736u, 66u, 212128u},
    {1, "untst", false, 97120u, 130728u, 45u, 72u, 74536u},
    {1, "untst", true, 73464u, 130728u, 45u, 73u, 68433u},
    {2, "mcf", false, 198352u, 216355u, 221u, 5096u, 19140u},
    {2, "mcf", true, 213178u, 216355u, 221u, 5095u, 3539u},
    {2, "eqk", false, 159681u, 486527u, 8619u, 61u, 34558u},
    {2, "eqk", true, 155199u, 486527u, 8622u, 61u, 44827u},
    {2, "untst", false, 85138u, 130728u, 45u, 72u, 66423u},
    {2, "untst", true, 63146u, 130728u, 45u, 73u, 61504u},
};

pipeline::MachineConfig
edgeConfig(int edge, bool optimized)
{
    auto cfg = optimized ? pipeline::MachineConfig::optimized()
                         : pipeline::MachineConfig::baseline();
    if (edge == 0) {
        cfg.regReadDepth = 0;
        cfg.schedMinDelay = 0;
    } else if (edge == 1) {
        cfg.hier.memLatency = 1000;
        cfg.hier.l2.latency = 40;
    } else {
        cfg.opt.extraStages = 12;
        cfg.vfbDelay = 9;
    }
    return cfg;
}

} // namespace

TEST(Pipeline, EdgeConfigsReproducePinnedResults)
{
    for (const EdgeRun &run : kEdgeRuns) {
        SCOPED_TRACE(std::string(run.workload) + " edge " +
                     std::to_string(run.edge) +
                     (run.optimized ? " optimized" : " baseline"));
        const auto program =
            workloads::workloadByName(run.workload).build(1);
        const auto r =
            sim::simulate(program, edgeConfig(run.edge, run.optimized));
        const auto &s = r.stats;
        EXPECT_EQ(s.cycles, run.cycles);
        EXPECT_EQ(s.retired, run.retired);
        EXPECT_EQ(s.dl1Misses, run.dl1Misses);
        EXPECT_EQ(s.mispredicted, run.mispredicted);
        EXPECT_EQ(s.dispatchStallSched, run.dispatchStallSched);
    }
}
