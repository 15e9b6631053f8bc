/**
 * @file
 * SimSession: a reusable simulation context.
 *
 * The construct-per-call simulate() of the first four PRs paid the full
 * allocation cost of an Emulator + OooCore — sparse memory pages,
 * register files, RAT/MBC tables, predictor arrays, ROB/scheduler/
 * store-queue storage — once per job, hundreds of times per sweep. A
 * SimSession owns one of everything and re-initializes it in place:
 * reset() rebinds the session to a (program, config, maxInsts) triple
 * without reallocating whatever the previous run already sized, and
 * run() executes the timing simulation to completion.
 *
 * Determinism contract: a reused session produces bit-identical
 * SimResults to a freshly constructed one for the same job, no matter
 * what ran on it before (tests/test_session.cc pins this; the bench
 * baselines gate it end to end). Reuse changes how fast we simulate,
 * never what we simulate.
 *
 * SweepRunner keeps one thread-local session per worker thread, so an
 * N-thread sweep over hundreds of jobs constructs ~N cores' worth of
 * state instead of hundreds.
 */

#ifndef CONOPT_SIM_SESSION_HH
#define CONOPT_SIM_SESSION_HH

#include <cstdint>
#include <memory>

#include "src/asm/program.hh"
#include "src/pipeline/machine_config.hh"
#include "src/sim/simulator.hh"

namespace conopt::arch {
class Emulator;
} // namespace conopt::arch
namespace conopt::pipeline {
class OooCore;
} // namespace conopt::pipeline

namespace conopt::sim {

/** An immutable, shareable assembled program. */
using ProgramPtr = std::shared_ptr<const assembler::Program>;

/** A reusable (Emulator, OooCore) pair. */
class SimSession
{
  public:
    SimSession();
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    /**
     * Arm the session for one run of @p program under @p config.
     * The first reset constructs the underlying emulator and core;
     * later resets re-initialize them in place.
     */
    void reset(ProgramPtr program, const pipeline::MachineConfig &config,
               uint64_t max_insts = uint64_t(1) << 32);

    /**
     * Run the armed simulation to completion. reset() must have been
     * called since the last run(); runs are one-shot (the pipeline
     * drains into its final state), so re-running requires re-arming.
     */
    SimResult run();

    /** Convenience: reset() + run() in one call. */
    SimResult
    simulate(ProgramPtr program, const pipeline::MachineConfig &config,
             uint64_t max_insts = uint64_t(1) << 32)
    {
        reset(std::move(program), config, max_insts);
        return run();
    }

    /** True between reset() and run(). */
    bool armed() const { return armed_; }

    /**
     * Arm per-interval IPC sampling on the core: every @p intervalInsts
     * retired instructions one IPC sample enters a bounded reservoir of
     * @p reservoirCapacity slots drawn deterministically from @p seed
     * (0 interval = off, the default). Sticky across reset()/simulate()
     * calls. Host-side observability only — simulated results are
     * bit-identical with sampling on or off; the samples come back in
     * SimResult::ipcSamples.
     */
    void setIpcSampling(uint64_t intervalInsts,
                        size_t reservoirCapacity = 256, uint64_t seed = 0);
    uint64_t ipcSampleInterval() const { return ipcInterval_; }

    /** Components, for tests (valid after the first reset()). */
    const arch::Emulator &emulator() const { return *emu_; }
    const pipeline::OooCore &core() const { return *core_; }

  private:
    ProgramPtr program_; ///< keeps the armed program alive
    std::unique_ptr<arch::Emulator> emu_;
    std::unique_ptr<pipeline::OooCore> core_;
    bool armed_ = false;
    uint64_t ipcInterval_ = 0;
    size_t ipcCapacity_ = 256;
    uint64_t ipcSeed_ = 0;
};

} // namespace conopt::sim

#endif // CONOPT_SIM_SESSION_HH
