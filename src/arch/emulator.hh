/**
 * @file
 * Functional (architectural) emulator. Executes a Program instruction by
 * instruction, producing the oracle DynInst stream the timing model runs
 * on. Also usable standalone for workload validation.
 */

#ifndef CONOPT_ARCH_EMULATOR_HH
#define CONOPT_ARCH_EMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>

#include "src/arch/dyn_inst.hh"
#include "src/arch/memory.hh"
#include "src/arch/predecode.hh"
#include "src/asm/program.hh"
#include "src/isa/isa.hh"

namespace conopt::arch {

/** Architectural register state. */
struct ArchState
{
    std::array<uint64_t, isa::numIntRegs> intRegs{};
    std::array<uint64_t, isa::numFpRegs> fpRegs{};
    uint64_t pc = 0;

    uint64_t
    readInt(isa::RegIndex r) const
    {
        return r == isa::zeroReg ? 0 : intRegs[r];
    }

    void
    writeInt(isa::RegIndex r, uint64_t v)
    {
        if (r != isa::zeroReg)
            intRegs[r] = v;
    }
};

/**
 * Executes a program. step() returns the completed DynInst for each
 * retired instruction; done() becomes true after HALT or when the
 * instruction limit is hit.
 */
class Emulator
{
  public:
    /**
     * @param program the program to run (copied; the emulator owns its
     *        instance so callers may pass temporaries)
     * @param max_insts safety limit on dynamic instructions
     */
    explicit Emulator(assembler::Program program,
                      uint64_t max_insts = uint64_t(1) << 32);

    /** Shared-program form: no copy, ownership shared with the caller
     *  (the sweep engine hands every job the same cached program). */
    explicit Emulator(std::shared_ptr<const assembler::Program> program,
                      uint64_t max_insts = uint64_t(1) << 32);

    /**
     * Rebind to @p program and return to the program entry state.
     * Reuses the existing memory image's storage (pages are zeroed in
     * place, not reallocated), so a long-lived emulator stops paying
     * allocation churn after its first few programs.
     */
    void reset(std::shared_ptr<const assembler::Program> program,
               uint64_t max_insts = uint64_t(1) << 32);

    /** Rewind to the entry state of the current program. */
    void reset() { reset(program_, maxInsts_); }

    /** Execute and retire one instruction. done() must be false. */
    DynInst step();

    /**
     * Toggle the pre-decode fast path (default on). On, step() walks
     * the process-wide PredecodeCache table for the bound program; off,
     * it re-decodes from the raw Program — the reference path the
     * bit-exactness tests compare against. Sticky across reset().
     */
    void setPredecode(bool enable);

    /** True when step() is using a pre-decoded table. */
    bool predecodeActive() const { return pre_ != nullptr; }

    /** True once HALT has executed or the instruction limit was hit. */
    bool done() const { return done_; }

    /** True if the program ended via HALT (not the instruction limit). */
    bool halted() const { return halted_; }

    /** Dynamic instructions executed so far. */
    uint64_t instCount() const { return instCount_; }

    /** Run to completion; returns the dynamic instruction count. */
    uint64_t run();

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const Memory &memory() const { return memory_; }
    Memory &memory() { return memory_; }
    const assembler::Program &program() const { return *program_; }

  private:
    uint64_t readOperandB(const isa::Instruction &inst) const;
    uint64_t executeAlu(const isa::Instruction &inst, uint64_t a,
                        uint64_t b) const;
    bool branchTaken(const isa::Instruction &inst, uint64_t a) const;
    DynInst stepPredecoded();

    std::shared_ptr<const assembler::Program> program_;
    /** Pre-decoded table for program_ (null when setPredecode(false)). */
    std::shared_ptr<const PreDecodedProgram> pre_;
    ArchState state_;
    Memory memory_;
    uint64_t instCount_ = 0;
    uint64_t maxInsts_;
    bool done_ = false;
    bool halted_ = false;
    bool usePredecode_ = true;
};

} // namespace conopt::arch

#endif // CONOPT_ARCH_EMULATOR_HH
