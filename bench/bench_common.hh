/**
 * @file
 * Shared glue for the evaluation harness. Every table/figure binary
 * expresses its experiment as a SweepSpec, runs it through the parallel
 * SweepRunner, formats the SweepResult with a reporter, and then hands
 * the result to finish()/finishSweep(), which
 *
 *   1. writes the run as a `BENCH_<name>.json` artifact (the bench
 *      trajectory CI collects), and
 *   2. when a baseline is configured, compares against it and turns
 *      simulated-machine drift into a non-zero exit status.
 *
 * Harness environment/flags, honoured uniformly by all bench binaries:
 *
 *   CONOPT_SCALE          workload iteration scale (default 1)
 *   CONOPT_THREADS        sweep worker threads (default: hardware)
 *   CONOPT_SHARD          "i/n": run only shard i of n (0-based); the
 *                         artifact becomes BENCH_<name>.shard<i>of<n>
 *                         .json with figure geomeans deferred to the
 *                         post-merge step (conopt_bench_check)
 *   CONOPT_RESULT_CACHE   directory of persisted simulation results;
 *                         unchanged (program, config, scale, seed)
 *                         cells skip simulation on repeated sweeps
 *   CONOPT_PERF           non-empty/non-"0": record per-job host
 *                         wall-seconds and kips (simulated kilo-insts
 *                         per host second) in the artifact; excluded
 *                         from baseline comparison by design
 *   CONOPT_IPC_SAMPLE     N > 0: sample per-interval IPC every N
 *                         retired instructions into a bounded per-job
 *                         reservoir; per-job p50/p95/p99 + samples and
 *                         the sweep-level distribution block land in
 *                         the artifact. Off by default (gated runs
 *                         stay byte-identical) and excluded from
 *                         baseline comparison like the perf fields
 *   CONOPT_PROGRESS       non-empty/non-"0": per-job progress + ETA
 *   CONOPT_ARTIFACT_DIR   where BENCH_<name>.json is written
 *                         (default: current directory)
 *   CONOPT_BASELINE_DIR   directory of baseline artifacts to gate
 *                         against (e.g. bench/baselines)
 *   --shard i/n           flag form of CONOPT_SHARD
 *   --result-cache <dir>  flag form of CONOPT_RESULT_CACHE
 *   --perf                flag form of CONOPT_PERF
 *   --ipc-sample-interval N  flag form of CONOPT_IPC_SAMPLE
 *   --progress            flag form of CONOPT_PROGRESS
 *   --wire                stdout becomes a frame stream (the
 *                         protocol of src/sim/wire.hh) and fd 1
 *                         points at stderr: one progress envelope per
 *                         finished job, then the artifact in one
 *                         result envelope (or an error envelope) and
 *                         no artifact file or gate. conopt_sweep runs
 *                         every shard this way, whether forked,
 *                         launched, or over ssh
 *   --artifact-dir <dir>  flag form of CONOPT_ARTIFACT_DIR
 *   --baseline <path>     flag form of CONOPT_BASELINE_DIR; a specific
 *                         artifact file is also accepted
 *   --tolerance <T>       relative drift tolerance (default 0: exact,
 *                         the simulator is deterministic)
 *   --no-artifact         skip artifact emission (and the gate)
 *
 * Sharded runs gate nothing themselves: a shard is a partial figure,
 * so the baseline comparison moves to the merged artifact
 * (`conopt_bench_check <baseline> <shard-dir>`). See README.md for
 * the split/run/merge/cache workflow.
 */

#ifndef CONOPT_BENCH_BENCH_COMMON_HH
#define CONOPT_BENCH_BENCH_COMMON_HH

#include <string>
#include <utility>
#include <vector>

#include "src/pipeline/machine_config.hh"
#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/baseline.hh"
#include "src/sim/driver.hh"
#include "src/sim/harness.hh"
#include "src/sim/report.hh"
#include "src/sim/result_cache.hh"
#include "src/sim/sweep.hh"
#include "src/workloads/workload.hh"

namespace conopt::bench {

// The implementation lives in the src/sim library (src/sim/harness.hh)
// so tools and tests link the exact same parser and artifact
// pipeline; this header keeps the historical bench:: spelling
// every table/figure binary uses.

/** Harness options shared by every bench binary (see file header). */
using HarnessOptions = sim::HarnessOptions;

/** Print a section header. */
inline void
header(const char *title)
{
    sim::printHeader(title);
}

/** The stderr progress line installed by --progress. */
inline void
printProgress(const sim::SweepProgress &p)
{
    sim::printSweepProgress(p);
}

/** Host-seconds percentiles across the jobs that actually simulated
 *  (print-only; see sim::printHostPercentiles). */
inline void
printHostPercentiles(const sim::SweepResult &res)
{
    sim::printHostPercentiles(res);
}

/** Parse the harness flags (exits 2 on a bad flag, so a typo fails
 *  before the sweep runs, not after minutes of simulation). Call first
 *  thing in main(); pass the result to finish()/finishSweep(). */
inline HarnessOptions
harnessInit(int argc, char **argv, bool lenientArgs = false)
{
    return sim::HarnessOptions::parse(argc, argv, lenientArgs);
}

/**
 * Persist @p art as `BENCH_<bench>.json` (or `BENCH_<bench>
 * .shard<i>of<n>.json` for a sharded run) and apply the baseline gate.
 * Returns the bench binary's exit status: 0 on success, 1 when the
 * artifact cannot be written or the baseline comparison finds drift.
 */
inline int
finish(const std::string &benchName, sim::BenchArtifact art,
       const HarnessOptions &o)
{
    return sim::harnessFinish(benchName, std::move(art), o);
}

/** An artifact job that pins a preset machine configuration without
 *  running it: label = config = @p name, plus the config fingerprint.
 *  Used by benches whose regression unit is the experimental setup
 *  itself (table2_config, micro_structures). */
inline sim::ArtifactJob
configJob(const char *name, const pipeline::MachineConfig &cfg)
{
    return sim::configJob(name, cfg);
}

/** finish() for the common case: a sweep plus the figure's headline
 *  geomean columns (@p configs over @p baseConfig). A sharded run
 *  skips the geomeans: whole-figure aggregates cannot be computed
 *  from one shard's subset, so the merge contract defers them to
 *  `conopt_bench_check --recompute-geomeans` after merging. */
inline int
finishSweep(const std::string &benchName, const sim::SweepResult &res,
            const std::string &baseConfig,
            const std::vector<std::string> &configs,
            const HarnessOptions &o)
{
    return sim::harnessFinishSweep(benchName, res, baseConfig, configs,
                                   o);
}

} // namespace conopt::bench

#endif // CONOPT_BENCH_BENCH_COMMON_HH
