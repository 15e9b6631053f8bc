#include "src/arch/emulator.hh"

#include <bit>
#include <utility>
#include <cmath>

#include "src/asm/assembler.hh"
#include "src/isa/exec.hh"
#include "src/util/bitops.hh"
#include "src/util/logging.hh"

namespace conopt::arch {

using isa::Instruction;
using isa::Opcode;

Emulator::Emulator(assembler::Program program, uint64_t max_insts)
    : Emulator(std::make_shared<const assembler::Program>(
                   std::move(program)),
               max_insts)
{}

Emulator::Emulator(std::shared_ptr<const assembler::Program> program,
                   uint64_t max_insts)
{
    reset(std::move(program), max_insts);
}

void
Emulator::setPredecode(bool enable)
{
    usePredecode_ = enable;
    if (!enable)
        pre_.reset();
    else if (program_ && !pre_)
        pre_ = PredecodeCache::instance().get(*program_);
}

void
Emulator::reset(std::shared_ptr<const assembler::Program> program,
                uint64_t max_insts)
{
    conopt_assert(program != nullptr);
    // Warm same-program resets (the batched sweep path) skip the cache
    // probe entirely: Programs are immutable behind shared_ptr, so
    // pointer identity proves the pre-decoded table is still current.
    const bool sameProgram = program.get() == program_.get();
    program_ = std::move(program);
    if (!usePredecode_)
        pre_.reset();
    else if (!pre_ || !sameProgram)
        pre_ = PredecodeCache::instance().get(*program_);
    maxInsts_ = max_insts;
    instCount_ = 0;
    done_ = false;
    halted_ = false;
    state_.pc = program_->entryPc;
    state_.intRegs.fill(0);
    state_.fpRegs.fill(0);
    state_.writeInt(assembler::SP, assembler::stackTop);
    memory_.reset();
    for (const auto &seg : program_->data)
        memory_.writeBytes(seg.addr, seg.bytes.data(), seg.bytes.size());
}

uint64_t
Emulator::readOperandB(const Instruction &inst) const
{
    if (inst.useImm)
        return static_cast<uint64_t>(inst.imm);
    const auto &info = isa::opInfo(inst.op);
    if (info.rbIsFp)
        return state_.fpRegs[inst.rb];
    return state_.readInt(inst.rb);
}

uint64_t
Emulator::executeAlu(const Instruction &inst, uint64_t a, uint64_t b) const
{
    return isa::aluCompute(inst.op, a, b);
}

bool
Emulator::branchTaken(const Instruction &inst, uint64_t a) const
{
    return isa::branchCondTaken(inst.op, a);
}

DynInst
Emulator::step()
{
    if (pre_ != nullptr)
        return stepPredecoded();

    // Reference path (setPredecode(false)): re-decode from the raw
    // Program. stepPredecoded() must stay bit-exact with this.
    conopt_assert(!done_);
    if (!program_->contains(state_.pc)) {
        conopt_panic("pc 0x%llx outside program",
                     static_cast<unsigned long long>(state_.pc));
    }

    const Instruction &inst = program_->at(state_.pc);
    const auto &info = isa::opInfo(inst.op);

    DynInst dyn;
    dyn.seq = instCount_;
    dyn.pc = state_.pc;
    dyn.inst = inst;
    dyn.nextPc = state_.pc + isa::instBytes;

    // Read sources.
    if (info.readsRa)
        dyn.srcA = info.raIsFp ? state_.fpRegs[inst.ra]
                               : state_.readInt(inst.ra);
    if (info.readsRb || inst.useImm)
        dyn.srcB = readOperandB(inst);
    if (info.readsRc)
        dyn.srcC = info.rcIsFp ? state_.fpRegs[inst.rc]
                               : state_.readInt(inst.rc);

    switch (info.cls) {
      case isa::OpClass::IntSimple:
      case isa::OpClass::IntComplex:
      case isa::OpClass::Fp:
        dyn.result = executeAlu(inst, dyn.srcA, dyn.srcB);
        break;

      case isa::OpClass::Mem:
        dyn.memAddr = wrappingAdd(state_.readInt(inst.ra),
                                  static_cast<uint64_t>(inst.imm));
        dyn.memSize = info.memSize;
        if (info.isLoad) {
            uint64_t raw = memory_.read(dyn.memAddr, info.memSize);
            if (inst.op == Opcode::LDL)
                raw = static_cast<uint64_t>(sext64(raw, 32));
            dyn.result = raw;
        } else {
            dyn.result = dyn.srcC;
            unsigned size = info.memSize;
            memory_.write(dyn.memAddr, dyn.srcC, size);
        }
        break;

      case isa::OpClass::Control:
        if (info.isCondBranch) {
            dyn.taken = branchTaken(inst, dyn.srcA);
            if (dyn.taken)
                dyn.nextPc = static_cast<uint64_t>(inst.imm);
        } else if (info.isIndirect) {
            dyn.taken = true;
            dyn.nextPc = dyn.srcA;
        } else {
            dyn.taken = true;
            dyn.nextPc = static_cast<uint64_t>(inst.imm);
        }
        if (info.isCall)
            dyn.result = state_.pc + isa::instBytes;
        break;

      case isa::OpClass::None:
        if (inst.op == Opcode::HALT) {
            done_ = true;
            halted_ = true;
        }
        break;
    }

    // Write back.
    if (info.writesRc) {
        if (info.rcIsFp)
            state_.fpRegs[inst.rc] = dyn.result;
        else
            state_.writeInt(inst.rc, dyn.result);
    }

    state_.pc = dyn.nextPc;
    ++instCount_;
    if (instCount_ >= maxInsts_)
        done_ = true;
    return dyn;
}

DynInst
Emulator::stepPredecoded()
{
    conopt_assert(!done_);
    const uint64_t pc = state_.pc;
    const uint64_t off = pc - assembler::codeBase;
    if (pc < assembler::codeBase
        || off >= pre_->size() * isa::instBytes
        || off % isa::instBytes != 0) {
        conopt_panic("pc 0x%llx outside program",
                     static_cast<unsigned long long>(pc));
    }

    const PreInst &p = pre_->at(off / isa::instBytes);
    const uint16_t flags = p.flags;

    DynInst dyn;
    dyn.seq = instCount_;
    dyn.pc = pc;
    dyn.inst = p.inst;
    dyn.nextPc = pc + isa::instBytes;

    // Read sources.
    if (flags & PreInst::kReadsRa)
        dyn.srcA = (flags & PreInst::kRaIsFp) ? state_.fpRegs[p.inst.ra]
                                              : state_.readInt(p.inst.ra);
    if (flags & PreInst::kReadsRbOrImm) {
        if (flags & PreInst::kUseImm)
            dyn.srcB = p.immU;
        else
            dyn.srcB = (flags & PreInst::kRbIsFp)
                           ? state_.fpRegs[p.inst.rb]
                           : state_.readInt(p.inst.rb);
    }
    if (flags & PreInst::kReadsRc)
        dyn.srcC = (flags & PreInst::kRcIsFp) ? state_.fpRegs[p.inst.rc]
                                              : state_.readInt(p.inst.rc);

    switch (p.cls) {
      case isa::OpClass::IntSimple:
      case isa::OpClass::IntComplex:
      case isa::OpClass::Fp:
        dyn.result = isa::aluCompute(p.inst.op, dyn.srcA, dyn.srcB);
        break;

      case isa::OpClass::Mem:
        dyn.memAddr = wrappingAdd(state_.readInt(p.inst.ra), p.immU);
        dyn.memSize = p.memSize;
        if (flags & PreInst::kIsLoad) {
            uint64_t raw = memory_.read(dyn.memAddr, p.memSize);
            if (flags & PreInst::kSextLoad)
                raw = static_cast<uint64_t>(sext64(raw, 32));
            dyn.result = raw;
        } else {
            dyn.result = dyn.srcC;
            memory_.write(dyn.memAddr, dyn.srcC, p.memSize);
        }
        break;

      case isa::OpClass::Control:
        if (flags & PreInst::kIsCondBranch) {
            dyn.taken = isa::branchCondTaken(p.inst.op, dyn.srcA);
            if (dyn.taken)
                dyn.nextPc = p.immU;
        } else if (flags & PreInst::kIsIndirect) {
            dyn.taken = true;
            dyn.nextPc = dyn.srcA;
        } else {
            dyn.taken = true;
            dyn.nextPc = p.immU;
        }
        if (flags & PreInst::kIsCall)
            dyn.result = pc + isa::instBytes;
        break;

      case isa::OpClass::None:
        if (flags & PreInst::kIsHalt) {
            done_ = true;
            halted_ = true;
        }
        break;
    }

    // Write back.
    if (flags & PreInst::kWritesRc) {
        if (flags & PreInst::kRcIsFp)
            state_.fpRegs[p.inst.rc] = dyn.result;
        else
            state_.writeInt(p.inst.rc, dyn.result);
    }

    state_.pc = dyn.nextPc;
    ++instCount_;
    if (instCount_ >= maxInsts_)
        done_ = true;
    return dyn;
}

uint64_t
Emulator::run()
{
    while (!done_)
        step();
    return instCount_;
}

} // namespace conopt::arch
