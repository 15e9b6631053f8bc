/**
 * @file
 * Replay drivers: feed a recorded emulator stream through one layer's
 * public functions in isolation, so the traced run can time that layer
 * from outside the timing core.
 *
 *   - RenameReplay: a standalone core::RenameUnit over two
 *     pipeline::PhysRegFile with the machine's register counts. Bundles
 *     are renameWidth instructions; an instruction's references are
 *     released when it leaves a robEntries-deep window, the way the
 *     core releases them at retire.
 *   - CacheReplay: a cache::Hierarchy with the machine's geometry; one
 *     accessInst per fetch-line change, one accessData per load/store.
 *   - BranchReplay: a branch::BranchPredictor with the machine's
 *     geometry; predict, recover on a mispredict, update, per branch.
 *
 * The rename replay has no pipeline, so no value feedback ever arrives:
 * registers never become visible to the optimizer by a cycle. Its
 * OptStats therefore differ from the in-core ones; only its host time
 * per instruction is used. The optimizer-activity metrics come from the
 * in-core SimStats.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "src/arch/dyn_inst.hh"
#include "src/arch/emulator.hh"
#include "src/branch/branch_predictor.hh"
#include "src/cache/cache.hh"
#include "src/core/optimizer.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/phys_reg_file.hh"

namespace perfbench {

class RenameReplay
{
  public:
    /** @p init is the program-entry architectural state. */
    RenameReplay(const conopt::pipeline::MachineConfig &cfg,
                 const conopt::arch::ArchState &init);

    void feed(const conopt::arch::DynInst *insts, size_t n);
    /** Release everything still in the window. */
    void drain();

    uint64_t renamed() const { return renamed_; }

  private:
    struct Slot
    {
        conopt::core::OptResult opt;
        uint64_t storeAddr = 0; ///< stores whose address rename missed
        uint64_t storeSeq = 0;
        uint8_t storeSize = 0;
    };
    void retireOldest();

    conopt::pipeline::PhysRegFile intPrf_;
    conopt::pipeline::PhysRegFile fpPrf_;
    conopt::core::RenameUnit rename_;
    std::vector<Slot> window_;
    size_t head_ = 0;
    size_t count_ = 0;
    unsigned width_;
    unsigned optExtra_;
    unsigned inBundle_ = 0;
    uint64_t bundle_ = 0;
    uint64_t renamed_ = 0;
};

class CacheReplay
{
  public:
    explicit CacheReplay(const conopt::pipeline::MachineConfig &cfg);

    void feed(const conopt::arch::DynInst *insts, size_t n);

    uint64_t instAccesses() const { return instAccesses_; }
    uint64_t dataAccesses() const { return dataAccesses_; }

  private:
    conopt::cache::Hierarchy hier_;
    unsigned lineShift_;
    uint64_t lastLine_ = ~uint64_t(0);
    uint64_t instAccesses_ = 0;
    uint64_t dataAccesses_ = 0;
};

class BranchReplay
{
  public:
    explicit BranchReplay(const conopt::pipeline::MachineConfig &cfg);

    void feed(const conopt::arch::DynInst *insts, size_t n);

    uint64_t lookups() const { return lookups_; }

  private:
    conopt::branch::BranchPredictor bp_;
    uint64_t lookups_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
