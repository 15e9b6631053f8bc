#include "replay.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace conopt;

RenameReplay::RenameReplay(const pipeline::MachineConfig &cfg,
                           const arch::ArchState &init)
    : intPrf_(cfg.intPhysRegs), fpPrf_(cfg.fpPhysRegs),
      rename_(cfg.opt, intPrf_, fpPrf_), window_(cfg.robEntries),
      width_(cfg.renameWidth),
      optExtra_(cfg.opt.enabled ? cfg.opt.extraStages : 0)
{
    std::array<uint64_t, isa::numIntRegs> intInit{};
    for (unsigned r = 0; r < isa::numIntRegs; ++r)
        intInit[r] = init.readInt(isa::RegIndex(r));
    rename_.reset(cfg.opt, intInit, init.fpRegs);
    // Entry-state registers are architectural, known from cycle 0.
    for (unsigned r = 0; r < isa::numIntRegs; ++r) {
        if (r == isa::zeroReg)
            continue;
        const core::PhysRegId p = rename_.rat().read(isa::RegIndex(r)).mapping;
        intPrf_.setReadyAt(p, 0);
        intPrf_.setVfbAt(p, 0);
    }
    for (unsigned r = 0; r < isa::numFpRegs; ++r) {
        const core::PhysRegId p = rename_.fpRat().read(isa::RegIndex(r));
        fpPrf_.setReadyAt(p, 0);
        fpPrf_.setVfbAt(p, 0);
    }
}

void
RenameReplay::retireOldest()
{
    Slot &s = window_[head_];
    const core::OptResult &o = s.opt;
    auto prf = [this](bool fp) -> pipeline::PhysRegFile & {
        return fp ? fpPrf_ : intPrf_;
    };
    if (s.storeSize != 0)
        rename_.onStoreExecuted(s.storeAddr, s.storeSize, s.storeSeq);
    if (o.destPreg != core::invalidPreg)
        prf(o.destIsFp).release(o.destPreg);
    for (unsigned i = 0; i < o.numDeps; ++i)
        prf(o.deps[i].isFp).release(o.deps[i].reg);
    if (o.storeDataDep.reg != core::invalidPreg)
        prf(o.storeDataDep.isFp).release(o.storeDataDep.reg);
    head_ = (head_ + 1) % window_.size();
    --count_;
}

void
RenameReplay::feed(const arch::DynInst *insts, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const arch::DynInst &d = insts[i];
        while (count_ == window_.size() || intPrf_.freeCount() < 2 ||
               fpPrf_.freeCount() < 2) {
            if (count_ == 0) {
                std::fprintf(stderr, "perfbench: rename replay ran out of "
                                     "registers with an empty window\n");
                std::exit(1);
            }
            retireOldest();
        }
        if (inBundle_ == width_) {
            inBundle_ = 0;
            ++bundle_;
        }
        if (inBundle_ == 0)
            rename_.beginBundle();
        Slot &s = window_[(head_ + count_) % window_.size()];
        s.opt = rename_.renameInst(d, bundle_ + optExtra_);
        s.storeSize =
            d.inst.isStore() && !s.opt.addrKnown ? d.memSize : 0;
        s.storeAddr = d.memAddr;
        s.storeSeq = d.seq;
        ++count_;
        ++inBundle_;
        ++renamed_;
    }
}

void
RenameReplay::drain()
{
    while (count_ != 0)
        retireOldest();
}

CacheReplay::CacheReplay(const pipeline::MachineConfig &cfg)
    : hier_(cfg.hier),
      lineShift_(unsigned(std::countr_zero(cfg.hier.l1i.lineBytes)))
{}

void
CacheReplay::feed(const arch::DynInst *insts, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const arch::DynInst &d = insts[i];
        const uint64_t line = d.pc >> lineShift_;
        if (line != lastLine_) {
            hier_.accessInst(d.pc);
            lastLine_ = line;
            ++instAccesses_;
        }
        if (d.inst.isMem()) {
            hier_.accessData(d.memAddr);
            ++dataAccesses_;
        }
        // A taken branch ends the fetch packet, as in the core.
        if (d.taken)
            lastLine_ = ~uint64_t(0);
    }
}

BranchReplay::BranchReplay(const pipeline::MachineConfig &cfg) : bp_(cfg.bp)
{}

void
BranchReplay::feed(const arch::DynInst *insts, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const arch::DynInst &d = insts[i];
        const isa::OpInfo &info = isa::opInfo(d.inst.op);
        if (!info.isBranch)
            continue;
        const branch::Prediction p =
            bp_.predict(d.pc, d.inst, d.pc + isa::instBytes);
        const bool dirWrong = info.isCondBranch && p.taken != d.taken;
        if (dirWrong)
            bp_.recover(p, d.taken);
        bp_.update(d.pc, d.inst, p, d.taken, d.nextPc);
        ++lookups_;
    }
}

} // namespace perfbench
