#include "src/pipeline/ooo_core.hh"

#include <algorithm>

#include "src/util/bitops.hh"
#include "src/util/logging.hh"

namespace conopt::pipeline {

using core::invalidPreg;
using isa::OpClass;
using isa::Opcode;

OooCore::OooCore(const MachineConfig &config, arch::Emulator &emu)
    : cfg_(config),
      emu_(emu),
      intPrf_(config.intPhysRegs),
      fpPrf_(config.fpPhysRegs),
      rename_(config.opt, intPrf_, fpPrf_),
      bp_(config.bp),
      hier_(config.hier)
{
    reset(config);
}

void
OooCore::reset(const MachineConfig &config)
{
    cfg_ = config;
    optExtra_ = config.opt.enabled ? config.opt.extraStages : 0;
    renameDepth_ = config.renameDepth();
    ilineShift_ = log2Exact(config.hier.l1i.lineBytes);

    // Components, wholesale. The register files must reset before the
    // rename unit: its RAT/MBC references from the previous run point
    // into the old file contents and are forgotten, not released.
    intPrf_.reset(config.intPhysRegs);
    fpPrf_.reset(config.fpPhysRegs);
    bp_.reset(config.bp);
    hier_.reset(config.hier);

    // Pipeline state.
    cycle_ = 0;
    halted_ = false;
    stats_ = SimStats{};
    retiredCount_ = 0;
    mispredictPending_ = false;
    pendingMispredictSeq_ = 0;
    fetchResumeCycle_ = 0;
    icacheReadyCycle_ = 0;
    lastFetchLine_ = neverCycle;
    portsUsedThisCycle_ = 0;
    agenUsedThisCycle_ = 0;
    lastRetireCycle_ = 0;
    // Allocation-retaining reset: the zero-allocation warm-path
    // contract (tests/test_session.cc) covers sampling-off runs, and
    // keeping it for sampling-on runs costs nothing — a capacity
    // change goes through setIpcSampling(), which reconstructs.
    ipcSamples_.reset(ipcSampleSeed_);
    ipcMarkRetired_ = 0;
    ipcMarkCycle_ = 0;

    // Hot containers: capacity reservations sized from the config so
    // the tick loop never allocates. Each queue's occupancy bound is
    // enforced by the corresponding stage's resource check.
    frontPipe_.clear();
    frontPipe_.setDepth(config.frontEndDepth);
    frontCap_ = size_t(config.frontEndDepth + 2) * config.fetchWidth;
    frontPipe_.reserve(frontCap_);
    dispatchPipe_.clear();
    dispatchPipe_.setDepth(renameDepth_);
    dispatchCap_ = size_t(config.dispatchQueueEntries) +
                   size_t(renameDepth_) * config.renameWidth;
    dispatchPipe_.reserve(dispatchCap_);
    rob_.reset(config.robEntries);
    storeQueue_.reset(config.robEntries); // in-flight stores <= ROB
    completions_.clear();
    completions_.reserve(config.robEntries + 1); // <=1 event per entry

    // Hot SoA arrays: one slot per ROB ring slot, indexed seq & mask.
    // In-flight seqs span at most robEntries <= capacity, so live
    // entries never collide; each slot is re-initialized at rename.
    soaMask_ = rob_.capacity() - 1;
    const size_t soa_n = soaMask_ + 1;
    hotDone_.assign(soa_n, 0);
    hotIssued_.assign(soa_n, 0);
    hotDoneCycle_.assign(soa_n, neverCycle);
    hotAddrReadyCycle_.assign(soa_n, neverCycle);
    hotPendingDeps_.assign(soa_n, 0);
    hotDepBound_.assign(soa_n, 0);
    hotSched_.assign(soa_n, 0);
    hotStoreLo_.assign(soa_n, 0);
    hotStoreHi_.assign(soa_n, 0);
    hotStoreDataReg_.assign(soa_n, invalidPreg);
    hotStoreDataFp_.assign(soa_n, 0);

    // Event-driven scheduler state.
    schedCount_.fill(0);
    for (auto &q : ready_) {
        q.clear();
        q.reserve(config.schedEntries);
    }
    readyEvents_.clear();
    readyEvents_.reserve(config.schedTotalEntries());
    intWake_.reset(config.intPhysRegs, config.wakeListCapacity());
    fpWake_.reset(config.fpPhysRegs, config.wakeListCapacity());

    // Install the initial architectural register state.
    std::array<uint64_t, isa::numIntRegs> int_init{};
    std::array<uint64_t, isa::numFpRegs> fp_init{};
    for (unsigned r = 0; r < isa::numIntRegs; ++r)
        int_init[r] = emu_.state().readInt(isa::RegIndex(r));
    for (unsigned r = 0; r < isa::numFpRegs; ++r)
        fp_init[r] = emu_.state().fpRegs[r];
    rename_.reset(config.opt, int_init, fp_init);

    // Initial register values are known from cycle 0 (they are
    // architectural state, not in-flight results).
    // reset() already recorded them as constants; mark the physical
    // registers ready for issue as well. (Plain setReadyAt, not the
    // waking variant: the wake lists are empty by construction.)
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

OooCore::RobEntry &
OooCore::entryOf(uint64_t seq)
{
    conopt_assert(!rob_.empty());
    const uint64_t head = rob_.front().dyn.seq;
    conopt_assert(seq >= head && seq - head < rob_.size());
    return rob_[seq - head];
}

unsigned
OooCore::schedIndex(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntSimple:
        return 0;
      case OpClass::IntComplex:
        return 1;
      case OpClass::Fp:
        return 2;
      case OpClass::Mem:
        return 3;
      default:
        conopt_panic("no scheduler for this op class");
    }
}

bool
OooCore::depsReady(const RobEntry &e) const
{
    for (unsigned i = 0; i < e.opt.numDeps; ++i) {
        const core::SrcDep &d = e.opt.deps[i];
        const PhysRegFile &prf = d.isFp ? fpPrf_ : intPrf_;
        if (!prf.readyBy(d.reg, cycle_))
            return false;
    }
    return true;
}

void
OooCore::completeAt(uint64_t cycle, uint64_t seq)
{
    // Keep the flat list sorted descending; the soonest event stays at
    // back(). Insertion cost is a short memmove over in-flight events,
    // which profiles cheaper than the heap's alloc-and-sift for the
    // small windows a real config produces.
    const std::pair<uint64_t, uint64_t> ev(cycle, seq);
    const auto it = std::upper_bound(completions_.begin(),
                                     completions_.end(), ev,
                                     std::greater<>());
    // conopt-lint: allow(hotpath-alloc) sorted insert into a vector
    completions_.insert(it, ev);  // reserved to window size in reset()
}

void
OooCore::resolveMispredict(const RobEntry &e, uint64_t resolve_cycle)
{
    conopt_assert(mispredictPending_);
    conopt_assert(pendingMispredictSeq_ == e.dyn.seq);
    mispredictPending_ = false;
    fetchResumeCycle_ = std::max(fetchResumeCycle_,
                                 resolve_cycle + cfg_.redirectPenalty);
    // Refetch from the corrected target: force an I-cache re-access.
    lastFetchLine_ = neverCycle;
}

// ---------------------------------------------------------------------------
// Event-driven wakeup
// ---------------------------------------------------------------------------

void
OooCore::insertReady(unsigned sched, uint64_t seq)
{
    // Sorted by seq: issue scans each ready queue oldest-first, which
    // reproduces the age order of the polling scheduler scan exactly.
    auto &q = ready_[sched];
    // conopt-lint: allow(hotpath-alloc) reserved to scheduler size in reset()
    q.insert(std::upper_bound(q.begin(), q.end(), seq), seq);
}

void
OooCore::scheduleReady(uint64_t seq, uint64_t ready)
{
    if (ready <= cycle_) {
        // Woken by a producer issuing earlier in this very issue scan
        // (a consumer is always younger, so it lands ahead of the
        // cursor): it may still issue this cycle, exactly like the
        // polling loop, which would reach it later in its scan.
        insertReady(hotSched_[soaIndex(seq)], seq);
    } else {
        const std::pair<uint64_t, uint64_t> ev(ready, seq);
        const auto it = std::upper_bound(readyEvents_.begin(),
                                         readyEvents_.end(), ev,
                                         std::greater<>());
        // conopt-lint: allow(hotpath-alloc) reserved to total scheduler
        readyEvents_.insert(it, ev);  // entries in reset()
    }
}

void
OooCore::setRegReady(bool fp, core::PhysRegId reg, uint64_t cycle)
{
    prfFor(fp).setReadyAt(reg, cycle);
    WakeList &wl = fp ? fpWake_ : intWake_;
    if (wl.empty(reg))
        return;
    wl.drain(reg, [this, cycle](uint64_t seq) {
        const size_t ix = soaIndex(seq);
        if (cycle > hotDepBound_[ix])
            hotDepBound_[ix] = cycle;
        conopt_assert(hotPendingDeps_[ix] > 0);
        if (--hotPendingDeps_[ix] == 0)
            scheduleReady(seq, hotDepBound_[ix]);
    });
}

void
OooCore::registerWakeups(uint64_t seq, const RobEntry &e, unsigned sched)
{
    const size_t ix = soaIndex(seq);
    hotSched_[ix] = uint8_t(sched);
    // schedMinDelay gates the first issue opportunity even when every
    // operand is already ready (the polling loop's dispatchCycle check).
    uint64_t bound = cycle_ + cfg_.schedMinDelay;
    unsigned pending = 0;
    for (unsigned i = 0; i < e.opt.numDeps; ++i) {
        const core::SrcDep &d = e.opt.deps[i];
        const uint64_t r = prfFor(d.isFp).readyAt(d.reg);
        if (r == PhysRegFile::never) {
            // Producer not issued yet: readiness is monotone (one
            // setReadyAt per register lifetime), so wait for it. A
            // repeated operand registers — and later decrements —
            // once per occurrence.
            (d.isFp ? fpWake_ : intWake_).add(uint32_t(d.reg), seq);
            ++pending;
        } else if (r > bound) {
            bound = r;
        }
    }
    hotPendingDeps_[ix] = uint8_t(pending);
    hotDepBound_[ix] = bound;
    if (pending == 0)
        scheduleReady(seq, bound);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

const SimStats &
OooCore::run()
{
    while (!halted_) {
        tick();
        if (cycle_ >= cfg_.maxCycles)
            conopt_fatal("simulation exceeded maxCycles");
    }
    finalizeStats();
    return stats_;
}

void
OooCore::tick()
{
    ++cycle_;
    portsUsedThisCycle_ = 0;
    agenUsedThisCycle_ = 0;

    retireStage();
    writebackStage();
    issueStage();
    dispatchStage();
    renameStage();
    fetchStage();

    // A program that ends by exhausting the emulator's instruction limit
    // (no HALT) finishes when the pipeline drains.
    if (!halted_ && emu_.done() && frontPipe_.empty() &&
        dispatchPipe_.empty() && rob_.empty()) {
        halted_ = true;
    }

    if (cycle_ - lastRetireCycle_ > 500000 && !rob_.empty()) {
        const RobEntry &h = rob_.front();
        const size_t hx = soaIndex(h.dyn.seq);
        conopt_panic("pipeline deadlock at cycle %llu: head seq %llu "
                     "pc 0x%llx op %s done=%d issued=%d",
                     static_cast<unsigned long long>(cycle_),
                     static_cast<unsigned long long>(h.dyn.seq),
                     static_cast<unsigned long long>(h.dyn.pc),
                     isa::opInfo(h.dyn.inst.op).mnemonic,
                     int(hotDone_[hx]), int(hotIssued_[hx]));
    }
}

// ---------------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------------

void
OooCore::retireStage()
{
    for (unsigned n = 0; n < cfg_.retireWidth && !rob_.empty(); ++n) {
        RobEntry &e = rob_.front();
        const size_t ix = soaIndex(e.dyn.seq);

        if (e.isStore) {
            // A store commits when its address is generated and its data
            // is ready, and a cache port is free this cycle.
            const bool addr_ok = hotAddrReadyCycle_[ix] <= cycle_;
            const core::SrcDep &d = e.opt.storeDataDep;
            const bool data_ok =
                d.reg == invalidPreg || prfFor(d.isFp).readyBy(d.reg, cycle_);
            if (!addr_ok || !data_ok)
                break;
            if (portsUsedThisCycle_ >= cfg_.numDCachePorts)
                break;
            ++portsUsedThisCycle_;
            const unsigned lat = hier_.accessData(e.dyn.memAddr);
            if (lat <= cfg_.hier.l1d.latency)
                ++stats_.dl1Hits;
            else
                ++stats_.dl1Misses;
        } else if (!hotDone_[ix] || hotDoneCycle_[ix] > cycle_) {
            break;
        }

        // Train the branch predictor in retirement order.
        if (e.isBranch) {
            bp_.update(e.dyn.pc, e.dyn.inst, e.pred, e.dyn.taken,
                       e.dyn.nextPc);
            ++stats_.branches;
            if (e.dyn.inst.isCondBranch())
                ++stats_.condBranches;
            if (e.mispredicted)
                ++stats_.mispredicted;
            if (e.earlyRecovered)
                ++stats_.earlyRecoveredMispredicts;
            if (e.opt.branchResolved)
                ++stats_.earlyResolvedBranches;
        }
        if (e.isLoad) {
            ++stats_.loads;
            if (e.forwardedFromStore)
                ++stats_.loadsForwardedFromStoreQ;
        }
        if (e.isStore) {
            ++stats_.stores;
            conopt_assert(!storeQueue_.empty() &&
                          storeQueue_.front() == e.dyn.seq);
            storeQueue_.pop_front();
        }

        // Release the references this instruction held.
        if (e.opt.destPreg != invalidPreg)
            prfFor(e.opt.destIsFp).release(e.opt.destPreg);
        for (unsigned i = 0; i < e.opt.numDeps; ++i)
            prfFor(e.opt.deps[i].isFp).release(e.opt.deps[i].reg);
        if (e.opt.storeDataDep.reg != invalidPreg)
            prfFor(e.opt.storeDataDep.isFp).release(e.opt.storeDataDep.reg);

        if (e.dyn.inst.op == Opcode::HALT)
            halted_ = true;

        ++stats_.retired;
        ++retiredCount_;
        // Per-interval IPC sampling (host-side observability; one
        // predictable branch when disabled). The cycle_ > mark guard
        // defers a sample whose whole interval retired within one
        // cycle — it folds into the next interval instead.
        if (ipcSampleInterval_ != 0 &&
            stats_.retired - ipcMarkRetired_ >= ipcSampleInterval_ &&
            cycle_ > ipcMarkCycle_) {
            ipcSamples_.add(double(stats_.retired - ipcMarkRetired_) /
                            double(cycle_ - ipcMarkCycle_));
            ipcMarkRetired_ = stats_.retired;
            ipcMarkCycle_ = cycle_;
        }
        lastRetireCycle_ = cycle_;
        rob_.pop_front();
        if (halted_)
            break;
    }
}

// ---------------------------------------------------------------------------
// Writeback (execution completions)
// ---------------------------------------------------------------------------

void
OooCore::writebackStage()
{
    while (!completions_.empty() && completions_.back().first <= cycle_) {
        const uint64_t seq = completions_.back().second;
        completions_.pop_back();
        RobEntry &e = entryOf(seq);
        const size_t ix = soaIndex(seq);
        hotDone_[ix] = 1;
        hotDoneCycle_[ix] = cycle_;

        if (e.isStore) {
            hotAddrReadyCycle_[ix] = cycle_;
            if (e.storeAddrWasUnknown) {
                // Speculative-MBC consistency (paper section 3.2).
                rename_.onStoreExecuted(e.dyn.memAddr, e.dyn.memSize,
                                        e.dyn.seq);
            }
        }

        if (e.isBranch && e.mispredicted && !e.earlyRecovered)
            resolveMispredict(e, cycle_);
    }
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

bool
OooCore::tryIssueAlu(RobEntry &e, unsigned &budget)
{
    if (budget == 0)
        return false;
    const size_t ix = soaIndex(e.dyn.seq);
    // Ready-queue membership guarantees the polling preconditions.
    conopt_assert(cycle_ >= hotDepBound_[ix]);
    conopt_assert(depsReady(e));

    --budget;
    hotIssued_[ix] = 1;
    e.issueCycle = cycle_;
    const unsigned lat = e.opt.execLatency;
    if (e.opt.destPreg != invalidPreg && !e.opt.destAliased) {
        setRegReady(e.opt.destIsFp, e.opt.destPreg, cycle_ + lat);
        prfFor(e.opt.destIsFp).setVfbAt(
            e.opt.destPreg, cycle_ + cfg_.regReadDepth + lat + cfg_.vfbDelay);
    }
    completeAt(cycle_ + cfg_.regReadDepth + lat, e.dyn.seq);
    return true;
}

OooCore::StoreScan
OooCore::scanOlderStores(const RobEntry &e)
{
    const uint64_t lo = e.dyn.memAddr;
    const uint64_t hi = lo + e.dyn.memSize;

    // Find the youngest older in-flight store overlapping [lo, hi): the
    // one store whose state decides this load. The queue is in seq
    // order, so walk it youngest to oldest.
    uint64_t young_seq = 0;
    bool have = false;
    for (size_t i = storeQueue_.size(); i-- > 0;) {
        const uint64_t s_seq = storeQueue_[i];
        if (s_seq >= e.dyn.seq)
            continue;
        const size_t sx = soaIndex(s_seq);
        if (hotStoreHi_[sx] <= lo || hi <= hotStoreLo_[sx])
            continue; // disjoint
        young_seq = s_seq;
        have = true;
        break;
    }

    if (!have)
        return StoreScan::Clear;
    const size_t sx = soaIndex(young_seq);
    if (hotStoreLo_[sx] <= lo && hi <= hotStoreHi_[sx]) {
        // Fully covering store: forward when its address is known and
        // its data is ready.
        const core::PhysRegId dreg = hotStoreDataReg_[sx];
        const bool data_ok =
            dreg == invalidPreg ||
            prfFor(hotStoreDataFp_[sx] != 0).readyBy(dreg, cycle_);
        if (hotAddrReadyCycle_[sx] <= cycle_ && data_ok)
            return StoreScan::Forward;
        return StoreScan::Block; // must wait for the store
    }
    return StoreScan::Block; // partial overlap: wait until it retires
}

bool
OooCore::tryIssueMem(RobEntry &e)
{
    const size_t ix = soaIndex(e.dyn.seq);
    conopt_assert(cycle_ >= hotDepBound_[ix]);
    conopt_assert(depsReady(e));

    if (e.isStore) {
        // Stores in the mem scheduler only need address generation.
        if (agenUsedThisCycle_ >= cfg_.numAgen)
            return false;
        ++agenUsedThisCycle_;
        hotIssued_[ix] = 1;
        e.issueCycle = cycle_;
        completeAt(cycle_ + cfg_.regReadDepth + 1, e.dyn.seq);
        return true;
    }

    // Loads: agen (if the optimizer did not pre-generate the address),
    // a cache port, and memory ordering against older stores.
    const unsigned agen_lat = e.opt.needsAgen ? 1 : 0;
    if (e.opt.needsAgen && agenUsedThisCycle_ >= cfg_.numAgen)
        return false;
    if (portsUsedThisCycle_ >= cfg_.numDCachePorts)
        return false;

    // Perfect (oracle) memory disambiguation: only truly overlapping
    // older stores constrain this load.
    const StoreScan scan = scanOlderStores(e);
    if (scan == StoreScan::Block)
        return false;

    unsigned mem_lat;
    if (scan == StoreScan::Forward) {
        mem_lat = cfg_.hier.l1d.latency;
        e.forwardedFromStore = true;
    } else {
        mem_lat = hier_.accessData(e.dyn.memAddr);
        if (mem_lat <= cfg_.hier.l1d.latency)
            ++stats_.dl1Hits;
        else
            ++stats_.dl1Misses;
    }

    ++portsUsedThisCycle_;
    if (e.opt.needsAgen)
        ++agenUsedThisCycle_;
    hotIssued_[ix] = 1;
    e.issueCycle = cycle_;
    if (e.opt.destPreg != invalidPreg && !e.opt.destAliased) {
        setRegReady(e.opt.destIsFp, e.opt.destPreg,
                    cycle_ + agen_lat + mem_lat);
        prfFor(e.opt.destIsFp).setVfbAt(
            e.opt.destPreg, cycle_ + cfg_.regReadDepth + agen_lat + mem_lat +
                                cfg_.vfbDelay);
    }
    completeAt(cycle_ + cfg_.regReadDepth + agen_lat + mem_lat, e.dyn.seq);
    return true;
}

void
OooCore::issueStage()
{
    // Move entries whose operand-ready cycle has arrived into their
    // scheduler's ready queue.
    while (!readyEvents_.empty() && readyEvents_.back().first <= cycle_) {
        const uint64_t seq = readyEvents_.back().second;
        readyEvents_.pop_back();
        insertReady(hotSched_[soaIndex(seq)], seq);
    }

    // ALU-style schedulers: int-simple, int-complex, fp. Every queued
    // entry is issueable, so the scan is bounded by the FU budget. A
    // zero-latency producer can insert a (younger) consumer into the
    // queue mid-scan, ahead of the cursor — exactly the entries the
    // polling scan would have reached later the same cycle.
    unsigned budgets[3] = {cfg_.numSimpleAlu, cfg_.numComplexAlu,
                           cfg_.numFpAlu};
    for (unsigned k = 0; k < 3; ++k) {
        auto &q = ready_[k];
        size_t i = 0;
        while (i < q.size() && budgets[k] > 0) {
            RobEntry &e = entryOf(q[i]);
            if (tryIssueAlu(e, budgets[k])) {
                q.erase(q.begin() + ptrdiff_t(i));
                --schedCount_[k];
            } else {
                ++i;
            }
        }
    }

    // Memory scheduler: entries can still fail on ports, agen, or
    // memory ordering; those stay queued and are re-examined every
    // cycle, like the polling loop did.
    auto &mq = ready_[3];
    size_t i = 0;
    while (i < mq.size()) {
        if (agenUsedThisCycle_ >= cfg_.numAgen &&
            portsUsedThisCycle_ >= cfg_.numDCachePorts) {
            break;
        }
        RobEntry &e = entryOf(mq[i]);
        if (tryIssueMem(e)) {
            mq.erase(mq.begin() + ptrdiff_t(i));
            --schedCount_[3];
        } else {
            ++i;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch (exit of the extended rename stage into the schedulers)
// ---------------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    unsigned dispatched = 0;
    while (dispatched < cfg_.renameWidth && dispatchPipe_.ready(cycle_)) {
        const uint64_t seq = dispatchPipe_.front();
        RobEntry &e = entryOf(seq);
        const unsigned k = schedIndex(e.opt.schedClass);
        if (schedCount_[k] >= cfg_.schedEntries) {
            ++stats_.dispatchStallSched;
            break;
        }
        ++schedCount_[k];
        registerWakeups(seq, e, k);
        dispatchPipe_.pop();
        ++dispatched;
    }
}

// ---------------------------------------------------------------------------
// Rename + continuous optimization
// ---------------------------------------------------------------------------

void
OooCore::renameStage()
{
    unsigned renamed = 0;
    while (renamed < cfg_.renameWidth && frontPipe_.ready(cycle_)) {
        if (rob_.size() >= cfg_.robEntries) {
            ++stats_.renameStallRob;
            break;
        }
        if (intPrf_.freeCount() < 2 || fpPrf_.freeCount() < 2) {
            ++stats_.renameStallPregs;
            break;
        }
        if (dispatchPipe_.size() >= dispatchCap_) {
            ++stats_.renameStallDispatchQ;
            break;
        }

        // The front-pipe slot stays valid until a later pushSlot()
        // overwrites it; nothing below pushes into frontPipe_, so a
        // reference avoids copying the fat record through the stack.
        const FetchedInst &fi = frontPipe_.front();
        if (renamed == 0)
            rename_.beginBundle();

        const uint64_t opt_cycle = cycle_ + optExtra_;
        const core::OptResult opt = rename_.renameInst(fi.dyn, opt_cycle);

        // Re-initialize this seq's slot in the hot arrays (it holds
        // stale state from the entry robCapacity seqs ago).
        const size_t ix = soaIndex(fi.dyn.seq);
        hotDone_[ix] = 0;
        hotIssued_[ix] = 0;
        hotDoneCycle_[ix] = neverCycle;
        hotAddrReadyCycle_[ix] = neverCycle;
        hotPendingDeps_[ix] = 0;
        hotDepBound_[ix] = 0;
        hotSched_[ix] = 0;

        // Fill the ROB slot in place (it holds a stale entry robCapacity
        // seqs ago: overwrite every field, including the ones only other
        // paths set). Skips the zero-init + move that a stack-built
        // entry pays per instruction.
        // conopt-lint: allow(hotpath-alloc) fixed-capacity RingBuffer
        RobEntry &e = rob_.pushSlot();  // panics on overflow
        e.dyn = fi.dyn;
        e.opt = opt;
        e.pred = fi.pred;
        e.isBranch = fi.isBranch;
        e.mispredicted = fi.mispredicted;
        e.misfetch = fi.misfetch;
        e.earlyRecovered = false;
        e.isLoad = fi.dyn.inst.isLoad() && !opt.loadRemoved &&
                   !opt.loadSynthesized;
        e.isStore = fi.dyn.inst.isStore();
        e.storeAddrWasUnknown = false;
        e.forwardedFromStore = false;
        e.fetchCycle = fi.fetchCycle;
        e.renameCycle = cycle_;
        e.issueCycle = neverCycle;
        frontPipe_.pop();

        // References for the in-flight window were taken by the rename
        // unit (see RenameUnit docs); this entry releases them at retire.

        if (opt.schedClass == OpClass::None) {
            // Executed in the optimizer (or nothing to execute): ready at
            // the end of the optimization stage, retires from the ROB.
            hotDone_[ix] = 1;
            hotDoneCycle_[ix] = opt_cycle;
            if (opt.destPreg != invalidPreg && !opt.destAliased) {
                setRegReady(opt.destIsFp, opt.destPreg, opt_cycle);
                prfFor(opt.destIsFp).setVfbAt(opt.destPreg, opt_cycle);
            }
        } else if (e.isStore && !opt.needsAgen) {
            // Store with a rename-generated address: nothing to execute;
            // it waits at the ROB head for its data, then commits.
            hotDone_[ix] = 1;
            hotDoneCycle_[ix] = opt_cycle;
            hotAddrReadyCycle_[ix] = opt_cycle;
        } else {
            dispatchPipe_.push(cycle_, e.dyn.seq);
        }

        if (e.isStore) {
            // conopt-lint: allow(hotpath-alloc) fixed-capacity RingBuffer
            storeQueue_.push_back(e.dyn.seq);  // panics on overflow
            if (opt.addrKnown && hotAddrReadyCycle_[ix] == neverCycle)
                hotAddrReadyCycle_[ix] = opt_cycle;
            e.storeAddrWasUnknown = !opt.addrKnown;
            // Hot store fields for the load-ordering scan (oracle
            // addresses: perfect disambiguation, as before).
            hotStoreLo_[ix] = e.dyn.memAddr;
            hotStoreHi_[ix] = e.dyn.memAddr + e.dyn.memSize;
            hotStoreDataReg_[ix] = opt.storeDataDep.reg;
            hotStoreDataFp_[ix] = opt.storeDataDep.isFp ? 1 : 0;
        }
        if (e.isLoad && opt.addrKnown)
            hotAddrReadyCycle_[ix] = opt_cycle;

        // Early branch recovery (paper section 2.5.1): a mispredicted
        // branch resolved by the optimizer redirects fetch right after
        // the extended rename stage.
        if (e.mispredicted && opt.branchResolved) {
            e.earlyRecovered = true;
            resolveMispredict(e, cycle_ + renameDepth_);
        }

        // Stale-MBC recovery: charge a front-end flush.
        if (opt.mbcMisspec) {
            ++stats_.mbcMisspecFlushes;
            fetchResumeCycle_ = std::max(
                fetchResumeCycle_, cycle_ + cfg_.mbcMisspecPenalty);
        }

        ++renamed;
    }
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

void
OooCore::fetchStage()
{
    if (emu_.done())
        return;
    if (mispredictPending_) {
        ++stats_.fetchStallMispredict;
        return;
    }
    if (cycle_ < fetchResumeCycle_) {
        ++stats_.fetchStallMispredict;
        return;
    }
    if (cycle_ < icacheReadyCycle_) {
        ++stats_.fetchStallIcache;
        return;
    }
    if (frontPipe_.size() + cfg_.fetchWidth > frontCap_) {
        ++stats_.fetchStallQueueFull;
        return;
    }

    for (unsigned n = 0; n < cfg_.fetchWidth && !emu_.done(); ++n) {
        const uint64_t pc = emu_.state().pc;
        const uint64_t line = pc >> ilineShift_;
        if (n == 0) {
            if (line != lastFetchLine_) {
                const unsigned lat = hier_.accessInst(pc);
                lastFetchLine_ = line;
                if (lat > cfg_.hier.l1i.latency) {
                    ++stats_.il1Misses;
                    icacheReadyCycle_ = cycle_ + lat;
                    return;
                }
            }
        } else if (line != lastFetchLine_) {
            break; // fetch packets do not cross I-cache lines
        }

        // Fill the pipe slot in place (it holds a stale instruction:
        // overwrite every field). Each path below keeps the entry, so
        // pushing up front is safe.
        FetchedInst &fi = frontPipe_.pushSlot(cycle_);
        fi.dyn = emu_.step();
        fi.pred = branch::Prediction{};
        fi.fetchCycle = cycle_;
        fi.mispredicted = false;
        fi.misfetch = false;
        const auto &info = isa::opInfo(fi.dyn.inst.op);
        fi.isBranch = info.isBranch;

        if (info.isBranch) {
            fi.pred = bp_.predict(fi.dyn.pc, fi.dyn.inst,
                                  fi.dyn.pc + isa::instBytes);
            const bool dir_wrong =
                info.isCondBranch && fi.pred.taken != fi.dyn.taken;
            bool target_wrong = false;
            bool resteer = false;
            if (!dir_wrong && fi.dyn.taken &&
                (!fi.pred.targetValid ||
                 fi.pred.target != fi.dyn.nextPc)) {
                if (info.isIndirect)
                    target_wrong = true;
                else
                    resteer = true; // decode computes direct targets
            }

            if (dir_wrong || target_wrong) {
                fi.mispredicted = true;
                if (info.isCondBranch)
                    bp_.recover(fi.pred, fi.dyn.taken);
                mispredictPending_ = true;
                pendingMispredictSeq_ = fi.dyn.seq;
                return;
            }
            if (resteer) {
                fi.misfetch = true;
                ++stats_.btbResteers;
                fetchResumeCycle_ = std::max(
                    fetchResumeCycle_, cycle_ + cfg_.resteerPenalty);
                lastFetchLine_ = neverCycle;
                return;
            }
            if (fi.dyn.taken) {
                // A correctly predicted taken branch ends the packet.
                lastFetchLine_ = neverCycle;
                return;
            }
            continue;
        }

        if (fi.dyn.inst.op == Opcode::HALT)
            return;
    }
}

void
OooCore::finalizeStats()
{
    stats_.cycles = cycle_;
    stats_.halted = emu_.halted();
    stats_.opt = rename_.stats();
    stats_.mbc = rename_.mbc().stats();
}

} // namespace conopt::pipeline
