/**
 * @file
 * conopt_sweep: the distributed sweep driver. One command that turns
 * the sharded-sweep primitives (ShardSpec partitioning, the persistent
 * ResultCache, and the conopt_bench_check merge/gate) into a fleet-style
 * run:
 *
 *   conopt_sweep --shards 4 --baseline bench/baselines fig6_speedup
 *
 * Every shard attempt is a child process whose stdout carries the
 * frame protocol of src/sim/wire.hh: a forked bench (run with
 * `--wire`), or a `--launcher` or ssh wrapper around one. One poll
 * loop reads them all — progress envelopes feed one aggregate ETA
 * line, and the result envelope carries the shard's artifact bytes —
 * with one per-attempt timeout, one bounded retry, and one interrupt
 * policy.
 * The driver writes the received artifacts to `<name>.shards/`, merges
 * them, recomputes the deferred figure geomeans, and gates the merged
 * artifact against a baseline. Exit codes are conopt_bench_check-
 * compatible: 0 match, 1 drift, 2 error. A crashed, killed, hung, or
 * garbled shard, or one that ends without a result frame, is a hard
 * failure with its captured stderr surfaced — never a silently thinner
 * merged artifact.
 *
 * Pieces:
 *   - progress line protocol: formatProgressLine/parseProgressLine —
 *     the CONOPT-PROGRESS v1 payload of every progress envelope
 *   - LauncherVars/expandLauncher + shellQuote: the `--launcher`
 *     command-template mechanism ({i}, {n}, {cmd}, {host}) that wraps
 *     shard commands for srun/env-setup/ssh-style launchers; a
 *     launcher must keep its own stdout clean, since that is the
 *     shard's frame stream
 *   - DriverOptions/parseDriverArgs/buildShardArgv: CLI parsing and
 *     per-shard command composition (local exec, template, or --ssh
 *     round-robin over hosts)
 *   - runSweepDriver/ShardOutcome/DriverOutcome: the shard engine plus
 *     merge and gate, exposed as a library so tests/test_sweep_driver.cc
 *     covers it in-process
 *   - sweepDriverMain: the `conopt_sweep` CLI entry point
 */

#ifndef CONOPT_SIM_DRIVER_HH
#define CONOPT_SIM_DRIVER_HH

#include <string>
#include <vector>

#include "src/sim/sweep.hh"

namespace conopt::sim {

// --------------------------------------------------------------------------
// Progress line protocol (the payload of a progress envelope)
// --------------------------------------------------------------------------

/** Line prefix + version of the progress protocol. A bench with
 *  `--wire` sends one such line per finished job inside a progress
 *  envelope; the driver parses them per shard. Versioned so a driver
 *  can detect (and skip) lines from a newer harness instead of
 *  misreading them. */
constexpr const char *kProgressLineTag = "CONOPT-PROGRESS";
constexpr unsigned kProgressLineVersion = 1;

/** @p p as one protocol line (no trailing newline):
 *    CONOPT-PROGRESS v1 done=D total=T job_s=J host_s=H elapsed_s=E
 *      eta_s=X geomean_ipc=G kips=K host_p50=A host_p95=B host_p99=C
 *      label=LABEL
 *  Doubles use %.17g, so format -> parse round-trips exactly; the
 *  label is last and runs to end of line. The kips/host_p* fields are
 *  the fleet-observability extension (running host throughput and
 *  per-job host-latency percentiles); they ride within v1 because the
 *  parser has always skipped unknown keys, so older drivers keep
 *  reading new-harness lines and this parser reads old lines (the
 *  fields just stay 0). */
std::string formatProgressLine(const SweepProgress &p);

/** Parse one protocol line (trailing newline tolerated). False on
 *  anything else: wrong tag or version, missing/garbled numeric
 *  fields, or a missing label. Unknown numeric keys are ignored so
 *  minor protocol additions stay readable by older drivers. */
bool parseProgressLine(const std::string &line, SweepProgress *out);

// --------------------------------------------------------------------------
// Launcher templates
// --------------------------------------------------------------------------

/** @p s single-quoted for POSIX sh (embedded quotes escaped). */
std::string shellQuote(const std::string &s);

/** Substitution values for expandLauncher(). */
struct LauncherVars
{
    std::string shardIndex; ///< {i}
    std::string shardCount; ///< {n}
    std::string command;    ///< {cmd}: the shell-quoted bench command
    std::string host;       ///< {host}: the shard's ssh host ("" = none)
};

/** Expand a `--launcher` template: {i}, {n}, {cmd}, and {host} are
 *  replaced from @p vars; a template without {cmd} gets the command
 *  appended (so `--launcher 'srun {i} {n}'` still runs the bench).
 *  {host} comes from the --ssh host list (round-robin per shard).
 *  False (with @p err) on malformed input: an unknown placeholder, an
 *  unclosed brace, or {host} when no host is configured. */
bool expandLauncher(const std::string &tmpl, const LauncherVars &vars,
                    std::string *out, std::string *err);

// --------------------------------------------------------------------------
// Driver options and CLI parsing
// --------------------------------------------------------------------------

/** Everything `conopt_sweep` needs to run one distributed sweep. */
struct DriverOptions
{
    std::string benchPath; ///< bench binary (resolved via ./ then PATH)
    std::string benchName; ///< artifact name; "" = basename(benchPath)
    std::vector<std::string> benchArgs; ///< extra args after `--`

    unsigned shards = 2;         ///< shard process count (>= 1)
    /** The canonical run description (src/sim/request.hh). The driver
     *  consumes run.artifactDir (the merged artifact lands here; the
     *  artifacts received from the shards go to a driver-owned
     *  `<name>.shards/` subdirectory that is cleaned of stale ones
     *  first),
     *  run.resultCacheDir (forwarded to every shard when set),
     *  run.baselinePath (file or directory; "" = no gate), and
     *  run.tolerance (0 = exact). */
    RunOptions run;
    std::string geomeanBase;     ///< non-empty: recompute merged figure
                                 ///< geomeans over this base config
    double timeoutSeconds = 0.0; ///< per shard attempt; 0 = none
    unsigned retries = 1;        ///< extra attempts per failed shard
    /** Command template wrapping each shard ("" = direct exec). When
     *  set, it takes over the wrapping entirely — sshHosts then only
     *  supplies the round-robin {host} rotation. */
    std::string launcher;
    /** Round-robin host placement. Artifacts and progress come back
     *  over the wrapper's stdout; the bench binary and --result-cache
     *  paths still assume a shared filesystem. Without a launcher
     *  template, shards run through the built-in
     *  `ssh -oBatchMode=yes <host> 'cd <cwd> && <cmd>'` wrapper; note
     *  a --timeout kill then reaches only the local ssh client, not
     *  the remote process — bound remote runtimes remotely too, e.g.
     *  `--launcher 'ssh {host} timeout N {cmd}' --ssh h1,h2`. */
    std::vector<std::string> sshHosts;
    bool streamProgress = true;  ///< render the aggregate ETA line
};

/** Parse `conopt_sweep` CLI arguments into @p out. False (with a
 *  usage-ready message in @p err) on malformed input: an unknown flag,
 *  `--shards 0` or garbage counts, a bad timeout/tolerance/retries
 *  value, an invalid launcher template, an empty --ssh host, --ssh
 *  combined with a launcher template that never uses {host} (every
 *  shard would silently run locally), or a missing bench argument. */
bool parseDriverArgs(const std::vector<std::string> &args,
                     DriverOptions *out, std::string *err);

/** The exact argv the driver execs for shard @p index: the bench
 *  command plus `--shard i/n --wire` (and `--result-cache` when
 *  configured), wrapped by the launcher template or ssh when one is
 *  set. Empty (with @p err) when template expansion fails. */
std::vector<std::string> buildShardArgv(const DriverOptions &opts,
                                        unsigned index, std::string *err);

/** The file the driver writes shard @p index of @p count's received
 *  artifact to, matching the bench harness convention:
 *  `BENCH_<bench>.shard<i>of<n>.json`, or plain `BENCH_<bench>.json`
 *  when count <= 1 (an unsharded run). */
std::string shardArtifactName(const std::string &bench, unsigned index,
                              unsigned count);

// --------------------------------------------------------------------------
// Running
// --------------------------------------------------------------------------

/** Final state of one shard after all its attempts. */
struct ShardOutcome
{
    unsigned index = 0;
    unsigned attempts = 0; ///< launches performed (1 = no retry needed)
    bool ok = false;       ///< last attempt sent a result and exited 0
                           ///< in time
    bool timedOut = false; ///< last attempt was killed at the deadline
    /** Last attempt's status: the exit code when >= 0, or -SIGNAL when
     *  the process died to a signal (a killed shard is -9). */
    int exitStatus = 0;
    double seconds = 0.0;    ///< last attempt's wall-clock duration
    /** The last attempt's captured stderr (bounded tail), then the
     *  stream failure (malformed frame, error envelope) when there
     *  was one. */
    std::string outputTail;
    /** Well-formed CONOPT-PROGRESS lines received across all attempts
     *  (0 when the bench runs no SweepRunner sweep). */
    size_t progressLines = 0;
};

/** What runSweepDriver() did, beyond its exit code. */
struct DriverOutcome
{
    /** conopt_bench_check-compatible: 0 merged+gated ok, 1 baseline
     *  drift, 2 error (shard failure, bad config). */
    int exitCode = 2;
    std::string error;              ///< human-readable when exitCode == 2
    std::vector<ShardOutcome> shards;
    std::string mergedArtifactPath; ///< written on successful merge
    std::vector<std::string> gateDiffs; ///< populated on exitCode == 1
};

/** Launch, stream, wait, retry, merge, and gate one distributed sweep.
 *  Progress/status lines go to stderr; structured results come back in
 *  the DriverOutcome so callers (and tests) never scrape output. */
DriverOutcome runSweepDriver(const DriverOptions &opts);

/** The `conopt_sweep` CLI: parse args, run, print the outcome. Returns
 *  the process exit code (0 ok / 1 drift / 2 error). */
int sweepDriverMain(const std::vector<std::string> &args);

} // namespace conopt::sim

#endif // CONOPT_SIM_DRIVER_HH
