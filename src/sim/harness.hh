/**
 * @file
 * The harness layer of the canonical run schema: parse the CONOPT_*
 * environment and the shared harness flags into a RunOptions
 * (src/sim/request.hh), and turn finished sweeps into persisted,
 * baseline-gated BENCH_*.json artifacts. Lives in the src/sim library
 * (rather than bench/bench_common.hh, which now merely aliases it) so
 * tools and the standing daemon link the exact same parser and
 * artifact pipeline as the bench binaries without including bench
 * headers.
 *
 * The environment variables and flags, their semantics, and the exit-2
 * error contract are documented in bench/bench_common.hh (the
 * user-facing header) and README.md.
 *
 * `--wire` turns a bench into a shard of conopt_sweep: its stdout
 * becomes a stream of the one frame protocol (src/sim/service.hh) —
 * progress envelopes, then the artifact in a result envelope — and
 * fd 1 points at stderr, so a bench's own printing never corrupts a
 * frame. The same stream reaches the driver from a forked shard, a
 * launcher or ssh wrapper, or (sent by the daemon) a --connect socket.
 */

#ifndef CONOPT_SIM_HARNESS_HH
#define CONOPT_SIM_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/machine_config.hh"
#include "src/sim/baseline.hh"
#include "src/sim/request.hh"
#include "src/sim/result_cache.hh"
#include "src/sim/sweep.hh"

namespace conopt::sim {

/** The stderr progress line installed by --progress. */
void printSweepProgress(const SweepProgress &p);

/**
 * Print the host-seconds distribution across the jobs that actually
 * simulated (cache hits measure the loader and are excluded), using
 * the nearest-rank percentiles of PercentileAccumulator. Print-only:
 * these numbers describe the machine the bench ran ON and never feed
 * the artifact or the baseline gate.
 */
void printHostPercentiles(const SweepResult &res);

/** Harness options shared by every bench binary: the serializable run
 *  description plus the process-local bits (progress sinks, the live
 *  result-cache handle) that never go on the wire. */
struct HarnessOptions
{
    RunOptions run;
    bool progress = false; ///< per-job progress/ETA on stderr
    /** `--wire`: the frame channel (the process's original stdout;
     *  fd 1 then points at stderr); -1 = none. Carries one progress
     *  envelope per finished job and then the result envelope in
     *  place of an artifact file. conopt_sweep reads it per shard. */
    int wireFd = -1;
    /** Created by parse() when a cache dir is configured; shared with
     *  the SweepRunner so finish() can report hit/miss counters. */
    std::shared_ptr<ResultCache> resultCache;

    /** @p lenientArgs ignores unknown flags instead of rejecting them;
     *  only for binaries sharing argv with another framework
     *  (micro_structures + google-benchmark). Everywhere else a typo'd
     *  gate flag must fail loudly, not silently skip the gate. A
     *  malformed --shard/CONOPT_SHARD is always fatal (exit 2): a
     *  shard spec that silently fell back to "the whole sweep" would
     *  duplicate work and clobber the unsharded artifact. */
    static HarnessOptions parse(int argc, char **argv,
                                bool lenientArgs = false);

    /** parse() over an already-tokenized argument list (no argv[0]).
     *  `conopt_sweep --connect` folds the bench's `-- args` through
     *  this so a daemon-backed run interprets harness flags exactly
     *  like an ephemeral shard would. Same exit-2 contract. */
    static HarnessOptions parseArgs(const std::vector<std::string> &args,
                                    bool lenientArgs = false);

    /** The composed progress sink: the human stderr printer (with
     *  --progress) and/or one progress envelope per finished job on
     *  the --wire channel. Empty when neither is armed. */
    ProgressFn progressFn() const;

    /** SweepRunner options carrying the run description, the
     *  persistent result cache, and the progress sinks. */
    SweepOptions sweepOptions() const;

    /** Shard membership for benches that enumerate their own item
     *  lists instead of running a SweepRunner (table1_workloads,
     *  table2_config, micro_structures): item @p idx of the full list
     *  belongs to this process iff inShard(idx). */
    bool inShard(size_t idx) const { return run.shard.contains(idx); }
};

/**
 * Persist @p art as `BENCH_<bench>.json` (or `BENCH_<bench>
 * .shard<i>of<n>.json` for a sharded run) and apply the baseline gate.
 * With --wire, send it as the result envelope instead: no file, no
 * gate (the reader gates the merge). Returns the bench binary's exit
 * status: 0 on success, 1 when the artifact cannot be written or sent
 * or the baseline comparison finds drift.
 */
int harnessFinish(const std::string &benchName, BenchArtifact art,
                  const HarnessOptions &o);

/** An artifact job that pins a preset machine configuration without
 *  running it: label = config = @p name, plus the config fingerprint.
 *  Used by benches whose regression unit is the experimental setup
 *  itself (table2_config, micro_structures). */
ArtifactJob configJob(const char *name,
                      const pipeline::MachineConfig &cfg);

/**
 * The artifact for a finished sweep under @p run: fromSweep() plus the
 * optional perf/ipc-sample blocks, with the figure-level geomeans
 * (@p configs over @p baseConfig) and the distribution block computed
 * only for unsharded runs — whole-figure aggregates cannot be computed
 * from one shard's subset, so the merge contract defers them to the
 * post-merge step. Scale/threads metadata come from @p run
 * (effectiveScale/effectiveThreads), so a daemon serving a wire
 * request reproduces the client's metadata, not its own environment.
 */
BenchArtifact artifactFromSweep(const SweepResult &res,
                                const RunOptions &run,
                                const std::string &baseConfig,
                                const std::vector<std::string> &configs);

/** harnessFinish() for the common case: artifactFromSweep() plus the
 *  --perf host-percentile report. */
int harnessFinishSweep(const std::string &benchName,
                       const SweepResult &res,
                       const std::string &baseConfig,
                       const std::vector<std::string> &configs,
                       const HarnessOptions &o);

} // namespace conopt::sim

#endif // CONOPT_SIM_HARNESS_HH
