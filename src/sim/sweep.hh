/**
 * @file
 * SweepRunner: the job-based sweep engine behind every table/figure in
 * the evaluation. The paper's results are all cross-products of
 * (workload x machine configuration); this subsystem turns each such
 * experiment into declarative data:
 *
 *   - SimJob:       one (workload, scale, MachineConfig) cell, with a
 *                   unique label and a deterministic per-job seed
 *   - SweepSpec:    builder that expands workloads x configs into jobs
 *   - ProgramCache: shared, mutex-guarded cache so each (workload,
 *                   scale) program is assembled exactly once per sweep,
 *                   not once per configuration
 *   - SweepRunner:  thread-pool executor (std::thread + atomic work
 *                   queue); results land in submission order, so a
 *                   parallel sweep is bit-identical to a serial one
 *   - ShardSpec:    deterministic round-robin partition of the job
 *                   list, so one sweep can split across processes or
 *                   machines; disjoint shard artifacts merge back via
 *                   BenchArtifact::merge() (src/sim/baseline.hh)
 *   - SweepResult:  label-keyed structured results with speedup helpers
 *
 * SweepOptions can also attach a persistent ResultCache
 * (src/sim/result_cache.hh), which skips simulation for any job whose
 * (program, config, scale, seed, maxInsts) key was already computed by
 * an earlier run or another shard, and a ProgressFn callback for
 * interactive done/total + ETA reporting on long sweeps.
 *
 * Reporters that format a SweepResult (paper-style tables, CSV, JSON)
 * live in src/sim/report.hh.
 *
 * Determinism: the timing model itself is deterministic, so parallel
 * and serial sweeps must agree job-for-job (tests/test_sweep_runner.cc
 * asserts this). Each job nevertheless carries a seed derived from its
 * label so that any future stochastic component (randomized workload
 * variants, sampled simulation) draws from a per-job stream instead of
 * a shared one, which would make results depend on thread scheduling.
 */

#ifndef CONOPT_SIM_SWEEP_HH
#define CONOPT_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/asm/program.hh"
#include "src/pipeline/machine_config.hh"
#include "src/sim/request.hh"
#include "src/sim/result_cache.hh"
#include "src/sim/session.hh"
#include "src/sim/simulator.hh"

namespace conopt::sim {

// kMaxEnvScale/kMaxEnvThreads, envScale(), envThreads(), ShardSpec,
// and parseShard() live in src/sim/request.hh with the canonical
// RunOptions schema they belong to.

// ProgramPtr (an immutable, shareable assembled program) lives in
// src/sim/session.hh with the session that consumes it.

/** One cell of a sweep: a workload under one machine configuration. */
struct SimJob
{
    /** Unique key of this job within its sweep. Empty: derived as
     *  "<workload>/<configName>". */
    std::string label;

    /** Table 1 registry name (e.g. "mcf"); resolved via
     *  workloads::findWorkload() unless @ref program is set. */
    std::string workload;

    /** Pre-built program; bypasses the registry and the cache. */
    ProgramPtr program;

    /** Iteration scale; 0 means defaultScale * envScale(). */
    unsigned scale = 0;

    pipeline::MachineConfig config;

    /** Configuration tag used for labels and reporter columns. */
    std::string configName;

    /** Deterministic per-job seed; 0 means derived from the label, so
     *  the same sweep always hands each job the same seed regardless of
     *  thread count or scheduling. */
    uint64_t seed = 0;

    /** Safety limit on dynamic instructions. */
    uint64_t maxInsts = uint64_t(1) << 32;
};

/** Builder for cross-product sweeps (workloads x named configs). */
class SweepSpec
{
  public:
    /** Add one workload by registry name. */
    SweepSpec &workload(const std::string &name);
    /** Add several workloads by registry name. */
    SweepSpec &workloads(const std::vector<std::string> &names);
    /** Add every workload of one Table 1 suite. */
    SweepSpec &suite(const std::string &suite);
    /** Add all 22 Table 1 workloads. */
    SweepSpec &allWorkloads();
    /** Add one named machine configuration (a reporter column). */
    SweepSpec &config(const std::string &name,
                      const pipeline::MachineConfig &cfg);
    /** Override the iteration scale (0 = defaultScale * envScale()). */
    SweepSpec &scale(unsigned s);
    /** Override the dynamic-instruction safety limit. */
    SweepSpec &maxInsts(uint64_t n);

    /** The cross product: one SimJob per (workload, config) pair, in
     *  workload-major order. */
    std::vector<SimJob> jobs() const;

    /** The label convention: "<workload>/<configName>". */
    static std::string labelFor(const std::string &workload,
                                const std::string &configName);

  private:
    std::vector<std::string> workloads_;
    std::vector<std::pair<std::string, pipeline::MachineConfig>> configs_;
    unsigned scale_ = 0;
    uint64_t maxInsts_ = uint64_t(1) << 32;
};

/**
 * Shared program-build cache. Each (workload, scale) pair is assembled
 * exactly once even under concurrent lookups: the first caller builds
 * (outside the lock, so distinct programs assemble in parallel) while
 * later callers block on the entry's future.
 */
class ProgramCache
{
  public:
    /** The program for @p workload at @p scale; builds it on first use.
     *  Fatal if the workload name is unknown. */
    ProgramPtr get(const std::string &workload, unsigned scale);

    /** Number of programs actually assembled. */
    uint64_t builds() const { return builds_.load(); }
    /** Number of lookups served from the cache. */
    uint64_t hits() const { return hits_.load(); }

  private:
    using Key = std::pair<std::string, unsigned>;

    mutable std::mutex mu_;
    std::map<Key, std::shared_future<ProgramPtr>> cache_;
    std::atomic<uint64_t> builds_{0};
    std::atomic<uint64_t> hits_{0};
};

/** Outcome of one job. */
struct JobResult
{
    SimJob job;          ///< the (normalized) job description
    std::string suite;   ///< Table 1 suite, when registry-resolved
    SimResult sim;       ///< timing-simulation outcome
    double hostSeconds = 0.0; ///< wall-clock cost of the whole job
    /** Wall-clock seconds of the simulation proper: excludes harness
     *  overhead (result-cache fingerprinting, lookup, and store).
     *  0 for cache hits, which simulate nothing. */
    double simSeconds = 0.0;
    /** Host throughput: simulated kilo-instructions retired per
     *  simSeconds. 0 when unmeasurable (cache hit, zero-length run) —
     *  a cache hit's wall time measures the artifact loader, not the
     *  simulator. */
    double kips = 0.0;
    bool fromCache = false;   ///< served by the persistent ResultCache
};

/** Snapshot handed to the progress callback after each job finishes. */
struct SweepProgress
{
    size_t done = 0;   ///< jobs finished so far (including this one)
    size_t total = 0;  ///< jobs in this runner's shard of the sweep
    std::string label; ///< the job that just finished
    double jobHostSeconds = 0.0;   ///< that job's host cost
    double totalHostSeconds = 0.0; ///< sum of hostSeconds so far
    double elapsedSeconds = 0.0;   ///< wall clock since run() started
    /** Estimated wall-clock seconds remaining, extrapolated from the
     *  elapsed time per finished job (so it already accounts for the
     *  worker-pool parallelism). */
    double etaSeconds = 0.0;
    /** Running geometric mean of per-job IPC over finished jobs with
     *  nonzero cycles (a cheap scheduling-independent health signal;
     *  figure-level speedup geomeans still come post-sweep). */
    double geomeanIpc = 0.0;
    /** Running aggregate host throughput: simulated kilo-instructions
     *  per simulation-second over jobs that actually simulated. 0
     *  until the first non-cache-hit job finishes. */
    double kips = 0.0;
    /** Nearest-rank percentiles of per-job host seconds over finished
     *  jobs (cache hits included). 0 until the first job finishes. */
    double hostP50 = 0.0;
    double hostP95 = 0.0;
    double hostP99 = 0.0;
};

/** Invoked after every finished job, serialized under an internal
 *  mutex (callbacks never run concurrently), from worker threads. */
using ProgressFn = std::function<void(const SweepProgress &)>;

/** Structured results of a sweep, keyed by job label. */
class SweepResult
{
  public:
    /** All results, in job submission order (scheduling-independent). */
    const std::vector<JobResult> &all() const { return results_; }
    bool empty() const { return results_.empty(); }
    size_t size() const { return results_.size(); }

    /** Result by label, or nullptr. */
    const JobResult *find(const std::string &label) const;
    /** Result by label; fatal if missing. */
    const JobResult &at(const std::string &label) const;

    uint64_t cycles(const std::string &label) const;
    double ipc(const std::string &label) const;

    /** baseline cycles / other cycles (>1 means @p label is faster).
     *  0.0 when either label is missing or @p label ran for zero
     *  cycles, so ratio consumers never divide by zero. */
    double speedup(const std::string &baseLabel,
                   const std::string &label) const;

    /** Speedup of @p configName over @p baseConfig on one workload,
     *  using the SweepSpec label convention. */
    double speedupOf(const std::string &workload,
                     const std::string &configName,
                     const std::string &baseConfig) const;

    /** Append one result (used by the runner). */
    void add(JobResult r);

  private:
    std::vector<JobResult> results_;
    std::map<std::string, size_t> byLabel_;
};

/** Execution knobs for a sweep. */
struct SweepOptions
{
    SweepOptions() = default;
    /** The common short form: thread count plus a shared program
     *  cache, everything else defaulted. */
    SweepOptions(unsigned threads_, ProgramCache *cache_) : cache(cache_)
    {
        run.threads = threads_;
    }

    /** The run description (src/sim/request.hh). The
     *  runner consumes run.threads (0 = CONOPT_THREADS, else hardware
     *  concurrency), run.shard (the slice of the job list this runner
     *  executes — the *full* job list is still normalized and
     *  label-checked so every shard agrees on the partition; only
     *  this shard's jobs run and only they appear in the SweepResult),
     *  and run.ipcSampleInterval (one IPC sample per this many retired
     *  instructions into a bounded per-job reservoir seeded with the
     *  job's deterministic seed; 0 = off, the default, so gated runs
     *  stay sample-free — sampling is host-side observability only and
     *  simulated results are bit-identical either way; cache hits
     *  carry no samples, exactly as they carry no host timings). */
    RunOptions run;

    /** Program cache to share across sweeps; nullptr = per-runner. */
    ProgramCache *cache = nullptr;

    /** Persistent cross-process result cache; nullptr = none. Jobs
     *  whose (program, config, scale, seed, maxInsts) key hits skip
     *  simulation entirely and are marked JobResult::fromCache. */
    std::shared_ptr<ResultCache> resultCache;

    /** Per-finished-job progress callback; empty = none. */
    ProgressFn onProgress;

    /** Reservoir capacity per job when sampling is on. */
    size_t ipcReservoirCapacity = 256;
};

/**
 * The executor. Construct once, then run() any number of job lists;
 * programs are cached across runs of the same runner.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Run this runner's shard of @p jobs, in parallel, and collect
     *  structured results (submission order within the shard). Fatal
     *  on unknown workload names, duplicate labels (checked up front
     *  across the FULL job list, on the calling thread), or an
     *  out-of-range shard. */
    SweepResult run(std::vector<SimJob> jobs);

    /** Convenience: expand and run a SweepSpec. */
    SweepResult run(const SweepSpec &spec) { return run(spec.jobs()); }

    /** The program cache in use. */
    ProgramCache &cache() { return *cache_; }

    /** The persistent result cache, or nullptr. */
    ResultCache *resultCache() { return opts_.resultCache.get(); }

  private:
    JobResult runOne(const SimJob &job);
    /** programFingerprint() memoized per live program object (reset at
     *  the start of each run(), so pointers never go stale). */
    std::string programFp(const ProgramPtr &program);

    SweepOptions opts_;
    std::unique_ptr<ProgramCache> owned_;
    ProgramCache *cache_;
    std::mutex fpMu_;
    std::map<const assembler::Program *, std::string> programFps_;
};

} // namespace conopt::sim

#endif // CONOPT_SIM_SWEEP_HH
