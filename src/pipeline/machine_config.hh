/**
 * @file
 * Full machine configuration (paper Table 2) plus the optimizer knobs,
 * with the preset variants used throughout the evaluation:
 *
 *   - baseline():   4-wide P4-like machine, no optimizer, 20-cycle
 *                   minimum branch-resolution pipeline
 *   - optimized():  baseline + 2-stage continuous optimizer
 *   - fetchBound(): doubled scheduler entries (fig. 8)
 *   - execBound():  8-wide front end (fig. 8)
 */

#ifndef CONOPT_PIPELINE_MACHINE_CONFIG_HH
#define CONOPT_PIPELINE_MACHINE_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/branch/branch_predictor.hh"
#include "src/cache/cache.hh"
#include "src/core/optimizer.hh"
#include "src/isa/isa.hh"

namespace conopt::pipeline {

/** Every parameter of the simulated machine. */
struct MachineConfig
{
    // --- widths (Table 2: fetch/decode/rename 4, retire 6) -------------
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned retireWidth = 6;

    // --- stage depths (tuned so the minimum branch-resolution pipeline
    //     is 20 cycles on the baseline; see tests/test_pipeline.cc) -----
    unsigned frontEndDepth = 9;     ///< fetch + decode stages
    unsigned renameBaseStages = 2;  ///< rename depth without optimizer
    unsigned schedMinDelay = 1;     ///< dispatch-to-first-issue latency
    unsigned regReadDepth = 3;      ///< register read + bypass stages
    unsigned redirectPenalty = 4;   ///< resolve -> first refetch
    unsigned resteerPenalty = 6;    ///< decode-stage direct-target fixup

    // --- resources (Table 2) --------------------------------------------
    unsigned robEntries = 160;      ///< max in-flight instructions
    unsigned schedEntries = 8;      ///< per scheduler (4 schedulers)
    unsigned dispatchQueueEntries = 16;
    unsigned numSimpleAlu = 4;
    unsigned numComplexAlu = 1;
    unsigned numFpAlu = 2;
    unsigned numAgen = 2;
    unsigned numDCachePorts = 2;
    unsigned intPhysRegs = 768;
    unsigned fpPhysRegs = 320;

    // --- memory system (Table 2) ----------------------------------------
    cache::HierarchyConfig hier;

    // --- branch prediction (Table 2) --------------------------------------
    branch::PredictorConfig bp;

    // --- optimizer ---------------------------------------------------------
    core::OptimizerConfig opt;

    /** Value-feedback transmission delay in cycles (fig. 12). */
    unsigned vfbDelay = 1;

    /** Front-end stall charged when a speculative MBC forward turns out
     *  stale (recovery from an unknown-address store collision). */
    unsigned mbcMisspecPenalty = 20;

    /** Safety net: abort simulation after this many cycles. */
    uint64_t maxCycles = uint64_t(1) << 40;

    /** Total rename-stage depth including the optimizer's extra stages. */
    unsigned
    renameDepth() const
    {
        return renameBaseStages + (opt.enabled ? opt.extraStages : 0);
    }

    // --- derived capacities (sizing for the event-driven scheduler) ------
    // Methods only: adding *fields* here would change every persisted
    // config fingerprint and invalidate the bench baselines.

    /** Occupancy bound across all four schedulers. */
    unsigned schedTotalEntries() const { return 4 * schedEntries; }

    /**
     * Concurrent wake-list registrations the core can ever hold per
     * register file: every waiting scheduler entry registers at most
     * its (up to 3) source operands, and in the worst case all of
     * them wait on one file.
     */
    unsigned wakeListCapacity() const { return 3 * schedTotalEntries(); }

    /**
     * Furthest ahead of the current cycle the core ever schedules a
     * completion or ready event: register read, then agen plus a miss
     * all the way to memory (or the slowest ALU op, if longer), plus
     * the optimizer's extra stages and schedMinDelay.
     */
    unsigned
    eventHorizon() const
    {
        unsigned slowest =
            1 + hier.l1d.latency + hier.l2.latency + hier.memLatency;
        for (const isa::OpInfo &info : isa::detail::opTable)
            slowest = std::max<unsigned>(slowest, info.latency);
        return regReadDepth + slowest + opt.extraStages + schedMinDelay;
    }

    // --- presets -----------------------------------------------------------
    static MachineConfig baseline();
    static MachineConfig optimized();
    static MachineConfig withOptimizer(const core::OptimizerConfig &opt);
    static MachineConfig fetchBound(bool with_opt);
    static MachineConfig execBound(bool with_opt);

    /** Human-readable dump (Table 2 reproduction). */
    std::string describe() const;
};

} // namespace conopt::pipeline

#endif // CONOPT_PIPELINE_MACHINE_CONFIG_HH
