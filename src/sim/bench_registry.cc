#include "src/sim/bench_registry.hh"

#include <utility>

#include "src/arch/emulator.hh"
#include "src/pipeline/machine_config.hh"
#include "src/sim/harness.hh"
#include "src/workloads/workload.hh"

namespace conopt::sim {

bool
buildTable1(const RunOptions &run, BenchArtifact *art, std::string *err)
{
    const unsigned scaleMul = envScale();
    art->scale = scaleMul;
    art->threads = run.effectiveThreads();

    ProgramCache cache;
    const auto &all = workloads::allWorkloads();
    for (size_t i = 0; i < all.size(); ++i) {
        // Emulator loop, not a SweepRunner: apply the same round-robin
        // shard partition by position in the full workload list.
        if (!run.shard.contains(i))
            continue;
        const auto &w = all[i];
        const unsigned scale = w.defaultScale * scaleMul;
        const auto program = cache.get(w.name, scale);
        arch::Emulator emu(*program);
        emu.run();
        if (!emu.halted()) {
            *err = w.name + " DID NOT HALT";
            return false;
        }
        ArtifactJob j;
        j.label = w.name + "/emu";
        j.workload = w.name;
        j.suite = w.suite;
        j.config = "emu";
        j.scale = scale;
        j.instructions = emu.instCount();
        j.halted = true;
        j.checksum = emu.memory().readQuad(workloads::checksumAddr);
        art->jobs.push_back(std::move(j));
    }
    return true;
}

BenchArtifact
buildTable2(const RunOptions &run)
{
    BenchArtifact art;
    art.scale = envScale();
    art.threads = run.effectiveThreads();
    size_t idx = 0;
    const auto preset = [&](const char *name,
                            const pipeline::MachineConfig &cfg) {
        // Positional shard partition over the preset list, matching
        // the sweep engine's round-robin convention.
        if (run.shard.contains(idx++))
            art.jobs.push_back(configJob(name, cfg));
    };
    preset("baseline", pipeline::MachineConfig::baseline());
    preset("optimized", pipeline::MachineConfig::optimized());
    preset("fetch_bound", pipeline::MachineConfig::fetchBound(false));
    preset("fetch_bound_opt", pipeline::MachineConfig::fetchBound(true));
    preset("exec_bound", pipeline::MachineConfig::execBound(false));
    preset("exec_bound_opt", pipeline::MachineConfig::execBound(true));
    return art;
}

BenchArtifact
buildFig6(const SweepOptions &so, SweepResult *res)
{
    SweepSpec spec;
    spec.allWorkloads()
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());
    *res = SweepRunner(so).run(spec);
    return artifactFromSweep(*res, so.run, "base", {"opt"});
}

} // namespace conopt::sim
