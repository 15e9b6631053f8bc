/**
 * @file
 * The cycle-level out-of-order core (paper section 4.2): a P4-like deep
 * pipeline with a 4-wide front end, the continuous optimizer embedded in
 * rename, four small schedulers, a pool of execution units, a 160-entry
 * instruction window, and a three-level memory hierarchy.
 *
 * The model is trace-driven: the functional emulator supplies the
 * correct-path dynamic instruction stream with oracle values. A
 * mispredicted branch stalls fetch until the branch resolves (at execute,
 * or at the end of the extended rename stage when the optimizer resolves
 * it early), then fetch resumes after a redirect penalty. Wrong-path
 * instructions are never renamed, which matches the paper's recovery
 * model (wrong-path optimizer state is discarded).
 *
 * run() ticks every simulated cycle, idle or not; each stage counts
 * its own stall cycles as it finds itself blocked. Loads decide
 * forwarding and ordering by walking the in-flight store queue from
 * its youngest entry. Skipping idle cycles and hashing the store
 * queue were both measured and bought no host time (README,
 * "Host-speed layer: pre-decode"): idle cycles are the cheapest
 * ones, and the walk averages under one entry per load.
 *
 * Host-performance architecture (simulated results are unaffected):
 *
 *  - One seq-indexed window. Every in-flight instruction, from fetch
 *    to retire, owns slot seq & slotMask_ of one RobEntry vector
 *    (slotMask_ + 1 covers the front pipe plus the ROB). Fetch writes
 *    the emulator's DynInst straight into its slot, rename fills the
 *    rest of the same slot in place, and the front and dispatch pipes
 *    carry bare seqs, so no stage copies an instruction record.
 *
 *  - Event-driven wakeup. Scheduler occupants are never polled. An
 *    instruction dispatching with unready operands registers in a
 *    per-physical-register WakeList; when the producer issues (the
 *    one setReadyAt call of a register's lifetime), its waiters learn
 *    their operand-ready cycle. Once every operand has a known ready
 *    cycle the entry is scheduled for that cycle, and then it moves
 *    into its scheduler's ready queue, kept sorted by age — so
 *    issueStage() scans only entries that can actually issue, in
 *    exactly the age order the polling loop used.
 *
 *  - Per-cycle timing wheels. Completion and ready events sit in a
 *    TimingWheel bucket for their cycle (horizon:
 *    MachineConfig::eventHorizon()), and each tick drains just its own
 *    bucket, oldest seq first. Events are mostly scheduled in age
 *    order, so a bucket insert is almost always an O(1) tail append.
 *
 *  - Hot-field SoA split. The per-cycle-touched state (completion and
 *    address-ready cycles, wakeup bookkeeping, store ranges and data
 *    deps) lives in parallel arrays indexed like the window, so
 *    writeback, retire and forwarding touch dense cache lines.
 */

#ifndef CONOPT_PIPELINE_OOO_CORE_HH
#define CONOPT_PIPELINE_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/arch/emulator.hh"
#include "src/branch/branch_predictor.hh"
#include "src/cache/cache.hh"
#include "src/core/optimizer.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/phys_reg_file.hh"
#include "src/pipeline/sim_stats.hh"
#include "src/pipeline/stats_aggregate.hh"
#include "src/util/delay_pipe.hh"
#include "src/util/ring_buffer.hh"
#include "src/util/timing_wheel.hh"
#include "src/util/wake_list.hh"

namespace conopt::pipeline {

/** One cycle value meaning "not scheduled yet". */
constexpr uint64_t neverCycle = ~uint64_t(0);

/** The simulated processor. */
class OooCore
{
  public:
    /**
     * @param config machine parameters
     * @param emu functional emulator positioned at the program entry
     */
    OooCore(const MachineConfig &config, arch::Emulator &emu);

    /**
     * Re-initialize for a new simulation under @p config, reading the
     * initial architectural state from the emulator (which the caller
     * must have reset/positioned at the program entry first). All hot
     * containers are cleared in place; storage is reallocated only
     * when @p config needs more capacity than any earlier run, so a
     * warm core starts its steady state with zero heap allocations
     * per simulated instruction.
     */
    void reset(const MachineConfig &config);

    /** Simulate until the program's HALT retires (or maxCycles). */
    const SimStats &run();

    /** Advance one cycle: every stage runs once, in reverse pipeline
     *  order. run() is exactly a loop of these (exposed for
     *  fine-grained tests). */
    void tick();

    /**
     * Arm per-interval IPC sampling: every @p intervalInsts retired
     * instructions, the interval's IPC (insts retired / cycles
     * elapsed) is added to a bounded reservoir of @p reservoirCapacity
     * samples drawn with the deterministic stream seeded by @p seed.
     * 0 disables sampling (the default, and the mode gated runs use).
     *
     * Host-side observability only: the hook reads the retired and
     * cycle counters and writes a side accumulator — it never touches
     * simulated state, so SimStats are bit-identical with sampling on
     * or off. Settings survive reset(); the collected samples clear
     * per run.
     */
    void
    setIpcSampling(uint64_t intervalInsts,
                   size_t reservoirCapacity =
                       ReservoirAccumulator::kDefaultCapacity,
                   uint64_t seed = 0)
    {
        ipcSampleInterval_ = intervalInsts;
        ipcSampleSeed_ = seed;
        // Reconstruct (and reallocate) only on a capacity change so
        // re-arming identical sampling per job — SweepRunner does this
        // on every warm session — stays allocation-free.
        if (ipcReservoirCap_ != reservoirCapacity) {
            ipcReservoirCap_ = reservoirCapacity;
            ipcSamples_ =
                ReservoirAccumulator(ipcReservoirCap_, ipcSampleSeed_);
        } else {
            ipcSamples_.reset(ipcSampleSeed_);
        }
        ipcMarkRetired_ = stats_.retired;
        ipcMarkCycle_ = cycle_;
    }
    uint64_t ipcSampleInterval() const { return ipcSampleInterval_; }
    /** The reservoir of per-interval IPC samples from the last run. */
    const ReservoirAccumulator &ipcSamples() const { return ipcSamples_; }

    bool halted() const { return halted_; }
    uint64_t cycle() const { return cycle_; }
    /** Ticks run() executed: one per simulated cycle, since run()
     *  never skips a cycle. Host-side introspection only. */
    uint64_t ticksExecuted() const { return cycle_; }
    const SimStats &stats() const { return stats_; }
    const PhysRegFile &intPrf() const { return intPrf_; }
    const PhysRegFile &fpPrf() const { return fpPrf_; }
    const core::RenameUnit &renameUnit() const { return rename_; }

    /** Deterministic host-work counts since reset(): ticks, events
     *  scheduled on the timing wheels, and in-bucket ordering steps.
     *  Host-side only, never part of SimStats. */
    struct WorkCounts
    {
        uint64_t ticks = 0, events = 0, orderSteps = 0;
    };
    WorkCounts
    workCounts() const
    {
        return {cycle_, completions_.scheduled() + readyEvents_.scheduled(),
                completions_.orderSteps() + readyEvents_.orderSteps()};
    }

  private:
    /**
     * One in-flight instruction's cold record, written once per stage
     * (fetch fills dyn and the prediction, rename the rest). Every
     * field the steady state re-reads each cycle lives in the hot
     * parallel arrays below instead (indexed seq & slotMask_).
     */
    struct RobEntry
    {
        arch::DynInst dyn;
        core::OptResult opt;
        branch::Prediction pred{};
        bool isBranch = false;
        bool mispredicted = false; ///< direction or indirect target wrong
        bool earlyRecovered = false;
        bool isLoad = false;
        bool isStore = false;
        bool storeAddrWasUnknown = false;
        bool forwardedFromStore = false;
    };

    // --- stages (called in reverse order each tick) ----------------------
    void retireStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void renameStage();
    void fetchStage();

    // --- helpers -----------------------------------------------------------
    RobEntry &entryOf(uint64_t seq);
    PhysRegFile &prfFor(bool fp) { return fp ? fpPrf_ : intPrf_; }
    bool depsReady(const RobEntry &e) const;
    unsigned schedIndex(isa::OpClass cls) const;
    /** Outcome of a load's ordering scan against older stores. */
    enum class StoreScan : uint8_t { Clear, Forward, Block };
    /** Decide @p e (a load) against the youngest overlapping older
     *  in-flight store, found by walking the store queue from its
     *  youngest entry. */
    StoreScan scanOlderStores(const RobEntry &e);
    bool tryIssueMem(RobEntry &e);
    bool tryIssueAlu(RobEntry &e, unsigned &budget);
    void resolveMispredict(const RobEntry &e, uint64_t resolve_cycle);
    void finalizeStats();

    // --- event-driven wakeup ---------------------------------------------
    size_t slot(uint64_t seq) const { return size_t(seq) & slotMask_; }
    /** The single write point of a register's ready cycle: updates the
     *  PRF and wakes every scheduler entry waiting on @p reg. */
    void setRegReady(bool fp, core::PhysRegId reg, uint64_t cycle);
    /** Register @p seq's unready operands in the wake lists (or
     *  schedule its ready event directly), at dispatch time. */
    void registerWakeups(uint64_t seq, const RobEntry &e, unsigned sched);
    /** @p seq's operands all have known ready cycles; queue it to
     *  enter its scheduler's ready queue at cycle @p ready. */
    void scheduleReady(uint64_t seq, uint64_t ready);
    /** Insert @p seq into ready queue @p sched, keeping age order. */
    void insertReady(unsigned sched, uint64_t seq);

    // --- configuration -----------------------------------------------------
    MachineConfig cfg_;
    unsigned optExtra_;
    unsigned renameDepth_;
    unsigned ilineShift_;

    // --- components ----------------------------------------------------------
    arch::Emulator &emu_;
    PhysRegFile intPrf_;
    PhysRegFile fpPrf_;
    core::RenameUnit rename_;
    branch::BranchPredictor bp_;
    cache::Hierarchy hier_;

    // --- pipeline state -------------------------------------------------------
    uint64_t cycle_ = 0;
    bool halted_ = false;
    SimStats stats_;

    DelayPipe<uint64_t> frontPipe_;    ///< seqs in fetch/decode stages
    size_t frontCap_;
    DelayPipe<uint64_t> dispatchPipe_; ///< seqs in rename/optimize stages
    size_t dispatchCap_;

    /** The window: every in-flight instruction's record at
     *  slot(seq). The ROB is its seqs [robHead_, robHead_ + robCount_);
     *  the front pipe holds the seqs fetched after those. */
    std::vector<RobEntry> window_;
    uint64_t robHead_ = 0;
    size_t robCount_ = 0;

    // --- hot per-entry state (SoA, indexed like the window) ----------------
    size_t slotMask_ = 0;
    std::vector<uint64_t> hotDoneCycle_;
    std::vector<uint64_t> hotAddrReadyCycle_;
    /** Wakeup bookkeeping: operands still waiting for a producer, the
     *  max known operand-ready cycle (seeded with dispatch cycle +
     *  schedMinDelay), and which scheduler the entry sits in. */
    std::vector<uint8_t> hotPendingDeps_;
    std::vector<uint64_t> hotDepBound_;
    std::vector<uint8_t> hotSched_;
    /** Store fields for the load-ordering scan: [lo, hi) address range
     *  and the commit-data dependency. */
    std::vector<uint64_t> hotStoreLo_;
    std::vector<uint64_t> hotStoreHi_;
    std::vector<core::PhysRegId> hotStoreDataReg_;
    std::vector<uint8_t> hotStoreDataFp_;

    /** Four schedulers: int-simple, int-complex, fp, mem (Table 2).
     *  Occupancy is a counter (dispatch checks it); the occupants
     *  themselves live in the wake lists / ready events until they
     *  reach their scheduler's ready queue, sorted by seq so issue
     *  preserves the polling loop's age order exactly. */
    std::array<unsigned, 4> schedCount_{};
    std::array<std::vector<uint64_t>, 4> ready_;

    /** Entries whose operands all have known ready cycles, waiting for
     *  that cycle. */
    TimingWheel readyEvents_;

    /** Producer wake lists, one per register file. */
    WakeList intWake_;
    WakeList fpWake_;

    /** In-flight stores (seqs), oldest first, for load ordering. */
    RingBuffer<uint64_t> storeQueue_;

    /** Execution completions, popped by writeback in seq order. */
    TimingWheel completions_;

    // --- fetch state ---------------------------------------------------------
    bool mispredictPending_ = false;
    uint64_t pendingMispredictSeq_ = 0;
    uint64_t fetchResumeCycle_ = 0;   ///< fetch blocked before this cycle
    uint64_t icacheReadyCycle_ = 0;
    uint64_t lastFetchLine_ = neverCycle;

    // --- per-cycle FU accounting ------------------------------------------
    unsigned portsUsedThisCycle_ = 0;
    unsigned agenUsedThisCycle_ = 0;

    uint64_t lastRetireCycle_ = 0;

    // --- per-interval IPC sampling (host-side observability) --------------
    uint64_t ipcSampleInterval_ = 0; ///< 0 = off (gated runs)
    size_t ipcReservoirCap_ = ReservoirAccumulator::kDefaultCapacity;
    uint64_t ipcSampleSeed_ = 0;
    ReservoirAccumulator ipcSamples_;
    uint64_t ipcMarkRetired_ = 0; ///< retired count at last sample
    uint64_t ipcMarkCycle_ = 0;   ///< cycle at last sample
};

} // namespace conopt::pipeline

#endif // CONOPT_PIPELINE_OOO_CORE_HH
