/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <opt_irregular|base_streaming|fig_sweep>
 *             --seed N --seconds S --trace <0|1> --root <checkout>
 *
 * Normally started through `python3 perfbench/run.py`, which builds
 * this binary first. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, measured with tracing off; with
 * --trace 1 they are the per-layer ones, measured from spans recorded
 * around every call the benchmark makes into a layer. See README.md
 * in this directory for the workloads, the layer map and the noise
 * measurements behind the chosen statistics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "src/arch/emulator.hh"
#include "src/arch/predecode.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/pipeline/sim_stats.hh"
#include "src/sim/baseline.hh"
#include "src/sim/driver.hh"
#include "src/sim/session.hh"
#include "src/workloads/workload.hh"

#include "calibrate.hh"
#include "replay.hh"
#include "trace.hh"

using namespace conopt;
using perfbench::Clock;
using perfbench::HostReference;
using perfbench::secondsSince;
using perfbench::Tracer;

namespace fs = std::filesystem;

namespace {

// --------------------------------------------------------------------------
// Fixed parameters
// --------------------------------------------------------------------------

/** Workload scale of the two single-thread simulation workloads. At
 *  scale 1 (the scale of the checked-in figure baselines) a job takes
 *  25-300 ms, so each job gets about a hundred rounds in a run and its
 *  fastest round is likely to be one the host did not slow. */
constexpr unsigned kSimScale = 1;
/** Set-up is repeated this many times per run; setup_s is the median. */
constexpr int kSetupReps = 31;
/** Every run measures at least this many rounds, however short --seconds. */
constexpr int kMinRounds = 3;
/** fig_sweep: the shape of the user command it times. */
constexpr unsigned kSweepShards = 2;
constexpr unsigned kSweepThreads = 2;
/** fig_sweep: the figure benches, and fig6's checked-in geomean. */
const char *const kSweepBenches[] = {"table1_workloads", "table2_config",
                                     "fig6_speedup"};
constexpr size_t kSweepJobs = 72;
constexpr double kFig6Geomean = 1.1428917064129744;
/** Instructions per recorded chunk in the traced replays. */
constexpr size_t kReplayChunk = size_t(1) << 16;

// --------------------------------------------------------------------------
// Expected outputs: SimStats digest and functional checksum of every job
// the two simulation workloads run, at kSimScale.
// --------------------------------------------------------------------------

struct Expected
{
    const char *workload;
    const char *config; ///< "base" | "opt"
    uint64_t instructions;
    uint64_t cycles;
    uint64_t digest; ///< statsDigest() of the job's SimStats
    uint64_t checksum; ///< word at workloads::checksumAddr after HALT
};

const std::vector<Expected> kExpected = {
    {"mcf", "opt", 216355ull, 162400ull, 0x24e01ccb7be1687full, 58691533ull},
    {"mcf", "base", 216355ull, 198352ull, 0x17cd621e8e7dca2full, 58691533ull},
    {"gcc", "opt", 152264ull, 383169ull, 0x1db56c4a8be1a194ull, 122178ull},
    {"gcc", "base", 152264ull, 372117ull, 0x0154725214591456ull, 122178ull},
    {"prl", "opt", 499754ull, 1047661ull, 0xecf6b986cd23a514ull,
     8280951810477150978ull},
    {"prl", "base", 499754ull, 1017466ull, 0x0a9d3bc61f54be73ull,
     8280951810477150978ull},
    {"vpr", "opt", 1597520ull, 2208851ull, 0x0a5e67e514792916ull,
     226962805ull},
    {"vpr", "base", 1597520ull, 2338316ull, 0x04394f65bc88d4a0ull,
     226962805ull},
    {"twf", "opt", 221894ull, 251182ull, 0x3ffd18c988e7db8eull,
     18446744073624264450ull},
    {"twf", "base", 221894ull, 296007ull, 0xdf6093cbfb44b0f1ull,
     18446744073624264450ull},
    {"art", "base", 458375ull, 241447ull, 0x6705485463eb2ebaull, 770ull},
    {"art", "opt", 458375ull, 228982ull, 0x747df60e6aaa49fcull, 770ull},
    {"eqk", "base", 486527ull, 159681ull, 0x06cb51afea59e8e2ull,
     4610714998021073945ull},
    {"eqk", "opt", 486527ull, 153943ull, 0x6548950391cc10b3ull,
     4610714998021073945ull},
    {"mpg2e", "base", 735103ull, 296297ull, 0x9a15f82fd1740842ull, 76551ull},
    {"mpg2e", "opt", 735103ull, 240549ull, 0xfe50a1f8bd72f071ull, 76551ull},
    {"cra", "base", 274593ull, 236509ull, 0x655ddcc0052daee7ull, 33917ull},
    {"cra", "opt", 274593ull, 221529ull, 0xa877d74d83d5d962ull, 33917ull},
    {"tst", "base", 211336ull, 95174ull, 0x461649da020173e2ull,
     417326401079ull},
    {"tst", "opt", 211336ull, 69518ull, 0x77cda976503b39e8ull,
     417326401079ull},
};

const Expected *
findExpected(const std::string &workload, const std::string &config)
{
    for (const Expected &e : kExpected)
        if (workload == e.workload && config == e.config)
            return &e;
    return nullptr;
}

/** FNV-1a over every SimStats counter. */
uint64_t
statsDigest(const pipeline::SimStats &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (uint64_t v :
         {s.cycles, s.retired, uint64_t(s.halted), s.branches,
          s.condBranches, s.mispredicted, s.earlyResolvedBranches,
          s.earlyRecoveredMispredicts, s.btbResteers, s.loads, s.stores,
          s.loadsForwardedFromStoreQ, s.mbcMisspecFlushes, s.dl1Hits,
          s.dl1Misses, s.il1Misses, s.fetchStallMispredict,
          s.fetchStallIcache, s.fetchStallQueueFull, s.renameStallRob,
          s.renameStallDispatchQ, s.renameStallPregs, s.dispatchStallSched,
          s.opt.instsRenamed, s.opt.earlyExecuted, s.opt.movesEliminated,
          s.opt.branchesResolved, s.opt.memOps, s.opt.loads,
          s.opt.addrKnown, s.opt.loadsRemoved, s.opt.loadsSynthesized,
          s.opt.mbcMisspecs, s.opt.symRewrites, s.opt.depthBlocked,
          s.opt.strengthReductions, s.opt.branchInferences,
          s.mbc.lookups, s.mbc.hits, s.mbc.inserts, s.mbc.evictions,
          s.mbc.invalidations, s.mbc.flushes})
        mix(v);
    return h;
}

// --------------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------------

double
median(const std::vector<double> &in)
{
    std::vector<double> v = in;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0-100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Host memory high-water mark of @p who, in MiB. */
double
peakRssMib(int who)
{
    struct rusage ru{};
    getrusage(who, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** Pass/fail bookkeeping: every check is one attempted operation. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    bool
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
        }
        return ok;
    }
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Checks &c, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += c.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(c.attempted);
    out += ", \"failed\": " + std::to_string(c.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// --------------------------------------------------------------------------
// Jobs
// --------------------------------------------------------------------------

struct Job
{
    const workloads::Workload *w = nullptr;
    std::string config; ///< "base" | "opt"
    pipeline::MachineConfig cfg;
    unsigned scale = 1;
    sim::ProgramPtr prog;

    std::string label() const { return w->name + "/" + config; }

    // Filled by the runs.
    std::vector<double> runS;         ///< untraced SimSession::run seconds
    std::vector<double> tracedRunS;   ///< the same call, traced rounds
    bool ran = false;
    pipeline::SimStats stats;         ///< first run's stats
    uint64_t digest = 0;
    uint64_t skipped = 0;             ///< cycles fast-forward skipped
    uint64_t prfAllocs = 0;
};

pipeline::MachineConfig
configNamed(const std::string &c)
{
    return c == "opt" ? pipeline::MachineConfig::optimized()
                      : pipeline::MachineConfig::baseline();
}

std::vector<Job>
makeJobs(const std::vector<std::string> &names,
         const std::vector<std::string> &configs, unsigned scale)
{
    std::vector<Job> jobs;
    for (const std::string &n : names) {
        for (const std::string &c : configs) {
            Job j;
            j.w = &workloads::workloadByName(n);
            j.config = c;
            j.cfg = configNamed(c);
            j.scale = scale;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/**
 * One set-up: build every program, construct the session, and arm it
 * once per job (which builds the pre-decode tables). The pre-decode
 * cache is emptied first so every repetition pays first touch, as a
 * fresh process does. *buildS gets the time spent in Workload::build.
 */
void
setupOnce(std::vector<Job> &jobs, std::unique_ptr<sim::SimSession> &session,
          Tracer &tr, double *buildS)
{
    arch::PredecodeCache::instance().clear();
    Tracer::Scope whole(tr, "setup");
    double build = 0.0;
    for (Job &j : jobs) {
        const auto b0 = Clock::now();
        Tracer::Scope s(tr, "workloads.build");
        j.prog = std::make_shared<const assembler::Program>(
            j.w->build(j.scale * j.w->defaultScale));
        build += secondsSince(b0);
    }
    {
        Tracer::Scope s(tr, "pipeline.session.construct");
        session = std::make_unique<sim::SimSession>();
    }
    for (Job &j : jobs) {
        Tracer::Scope s(tr, "pipeline.session.reset");
        session->reset(j.prog, j.cfg);
    }
    *buildS = build;
}

/** Repeat setupOnce() kSetupReps times; medians of total and build. */
void
setupRepeated(std::vector<Job> &jobs,
              std::unique_ptr<sim::SimSession> &session, Tracer &tr,
              double *setupS, double *buildS,
              const std::function<void()> &extra = {})
{
    std::vector<double> total, build;
    for (int i = 0; i < kSetupReps; ++i) {
        double b = 0.0;
        const auto t0 = Clock::now();
        setupOnce(jobs, session, tr, &b);
        if (extra)
            extra();
        total.push_back(secondsSince(t0));
        build.push_back(b);
    }
    *setupS = median(total);
    *buildS = median(build);
}

/** Run job @p j once on @p session; *runS times SimSession::run. The
 *  first run records the job's stats, later runs must reproduce them. */
sim::SimResult
runJob(Job &j, sim::SimSession &session, Tracer &tr, int32_t jobId,
       double *runS, Checks &checks)
{
    {
        Tracer::Scope s(tr, "pipeline.session.reset", jobId);
        session.reset(j.prog, j.cfg);
    }
    const auto t0 = Clock::now();
    sim::SimResult r;
    {
        Tracer::Scope s(tr, "pipeline.session.run", jobId);
        r = session.run();
    }
    *runS = secondsSince(t0);

    const uint64_t d = statsDigest(r.stats);
    if (!j.ran) {
        j.ran = true;
        j.stats = r.stats;
        j.digest = d;
        const pipeline::OooCore &core = session.core();
        j.skipped = core.cycle() - core.ticksExecuted();
        j.prfAllocs = core.intPrf().totalAllocs() + core.fpPrf().totalAllocs();
    } else {
        checks.expect(d == j.digest,
                      j.label() + ": SimStats changed between rounds "
                                  "(non-deterministic simulation)");
    }
    return r;
}

/** Functional pass: Emulator::run over the job's program. */
uint64_t
emulate(Job &j, arch::Emulator &emu, Tracer &tr, int32_t jobId,
        uint64_t *insts)
{
    emu.reset(j.prog);
    {
        Tracer::Scope s(tr, "arch.emulator.run", jobId);
        emu.run();
    }
    *insts = emu.instCount();
    return emu.memory().read(workloads::checksumAddr, 8);
}

/** Counts the traced replays produce, summed over jobs. */
struct LayerTally
{
    uint64_t insts = 0;       ///< retired, over traced jobs
    uint64_t renamed = 0;
    uint64_t cacheAccesses = 0;
    uint64_t lookups = 0;
};

/**
 * The replay half of a traced job: record the emulator stream chunk by
 * chunk and feed each chunk to the rename, cache and branch replays,
 * then check every replay's count against the in-core run.
 */
void
replayJob(const Job &j, const pipeline::SimStats &st, arch::Emulator &rec,
          std::vector<arch::DynInst> &buf, Tracer &tr, int32_t jobId,
          LayerTally &tally, Checks &checks)
{
    rec.reset(j.prog);
    perfbench::RenameReplay rename(j.cfg, rec.state());
    perfbench::CacheReplay cache(j.cfg);
    perfbench::BranchReplay branch(j.cfg);
    while (!rec.done()) {
        size_t n = 0;
        {
            Tracer::Scope s(tr, "arch.emulator.step", jobId);
            while (n < buf.size() && !rec.done())
                buf[n++] = rec.step();
        }
        {
            Tracer::Scope s(tr, "core.rename.replay", jobId);
            rename.feed(buf.data(), n);
        }
        {
            Tracer::Scope s(tr, "cache.replay", jobId);
            cache.feed(buf.data(), n);
        }
        {
            Tracer::Scope s(tr, "branch.replay", jobId);
            branch.feed(buf.data(), n);
        }
    }
    rename.drain();

    const std::string l = j.label();
    checks.expect(rename.renamed() == st.retired,
                  l + ": rename replay count != in-core retired");
    checks.expect(branch.lookups() == st.branches,
                  l + ": branch replay lookups != in-core branches");
    // Every load and store of the stream either reached the D-cache in
    // the core, was forwarded from the store queue, or was removed at
    // rename; the replay sends all of them to the cache.
    checks.expect(cache.dataAccesses() ==
                      st.dl1Hits + st.dl1Misses +
                          st.loadsForwardedFromStoreQ + st.opt.loadsRemoved,
                  l + ": cache replay data accesses != in-core accesses");
    tally.renamed += rename.renamed();
    tally.cacheAccesses += cache.instAccesses() + cache.dataAccesses();
    tally.lookups += branch.lookups();
}

/** Check a job's first-run stats and checksum against kExpected. */
void
checkExpected(const Job &j, uint64_t checksum, uint64_t emuInsts,
              Checks &checks)
{
    const Expected *e = findExpected(j.w->name, j.config);
    const std::string l = j.label();
    const bool ok = e && j.ran && j.stats.retired == e->instructions &&
                    j.stats.cycles == e->cycles && j.digest == e->digest &&
                    checksum == e->checksum && emuInsts == e->instructions;
    checks.expect(ok, l + ": output differs from the expected values");
    if (!ok)
        std::fprintf(stderr,
                     "    {\"%s\", \"%s\", %" PRIu64 "ull, %" PRIu64
                     "ull, 0x%016" PRIx64 "ull, %" PRIu64 "ull},\n",
                     j.w->name.c_str(), j.config.c_str(), j.stats.retired,
                     j.stats.cycles, j.digest, checksum);
}

/** Geomean over workloads of base cycles / opt cycles. */
double
speedupGeomean(const std::vector<const Job *> &base,
               const std::vector<const Job *> &opt)
{
    double logSum = 0.0;
    for (size_t i = 0; i < base.size(); ++i)
        logSum += std::log(double(base[i]->stats.cycles) /
                           double(opt[i]->stats.cycles));
    return std::exp(logSum / double(base.size()));
}

// --------------------------------------------------------------------------
// fig_sweep: the sharded figure sweep through sim::runSweepDriver
// --------------------------------------------------------------------------

struct SweepEnv
{
    std::string binDir;      ///< where the bench binaries were built
    std::string workDir;     ///< artifact directory for this run
    std::string baselineDir; ///< <checkout>/bench/baselines
    std::map<std::string, sim::BenchArtifact> baselines;
};

/** What one sweep round measured. */
struct SweepRound
{
    double wallS = 0.0;        ///< sum of the three driver calls
    std::map<std::string, double> benchS; ///< each driver call's wall
    uint64_t insts = 0;        ///< simulated instructions, all jobs
    uint64_t retired = 0;      ///< retired over timing jobs
    uint64_t cycles = 0;
    double geomean = 0.0;      ///< fig6 "opt" geomean
    /** Per job ("<bench>:<label>"): instructions and host seconds. */
    std::map<std::string, std::pair<uint64_t, double>> jobs;
    // Traced rounds only.
    double shardThreadS = 0.0; ///< sum over shards of threads x seconds
    double shardMaxS = 0.0;    ///< sum over calls of the slowest shard
    double shardMinS = 0.0;    ///< sum over calls of the fastest shard
    double overheadS = 0.0;    ///< sum over calls of wall - slowest
    unsigned retries = 0;
};

void
loadBaselines(SweepEnv &env, Checks &checks)
{
    for (const char *b : kSweepBenches) {
        std::string err;
        sim::BenchArtifact a;
        checks.expect(sim::loadArtifact(env.baselineDir + "/BENCH_" + b +
                                            ".json",
                                        &a, &err),
                      std::string("load baseline ") + b + ": " + err);
        env.baselines[b] = std::move(a);
    }
}

/**
 * One round: the three benches in a seed-permuted order, each sharded
 * kSweepShards ways and gated at tolerance 0 by the sweep driver.
 * Traced rounds also read the shard outcomes and redo the sweep driver's
 * load/merge/compare on the shard artifacts from outside, timing each.
 */
SweepRound
sweepRound(const SweepEnv &env, std::mt19937_64 &rng, Tracer &tr,
           Checks &checks, int32_t &nextJob)
{
    std::vector<std::string> order(std::begin(kSweepBenches),
                                   std::end(kSweepBenches));
    std::shuffle(order.begin(), order.end(), rng);
    SweepRound out;
    size_t jobs = 0;
    for (const std::string &b : order) {
        const int32_t jobId = nextJob++;
        sim::DriverOptions o;
        o.benchPath = env.binDir + "/" + b;
        o.shards = kSweepShards;
        o.run.artifactDir = env.workDir;
        o.run.baselinePath = env.baselineDir;
        o.run.tolerance = 0.0;
        o.timeoutSeconds = 120.0;
        if (b == "fig6_speedup")
            o.geomeanBase = "base";
        // Per-job host seconds in the artifact: the source of the
        // sweep's kips. The gate ignores them by design.
        o.benchArgs.push_back("--perf");

        const auto t0 = Clock::now();
        sim::DriverOutcome res;
        {
            Tracer::Scope s(tr, "sim.runSweepDriver", jobId);
            res = sim::runSweepDriver(o);
        }
        const double wall = secondsSince(t0);
        out.wallS += wall;
        out.benchS[b] = wall;

        checks.expect(res.exitCode == 0,
                      b + ": runSweepDriver exit " +
                          std::to_string(res.exitCode) + " " + res.error);
        sim::BenchArtifact merged;
        std::string err;
        if (!checks.expect(sim::loadArtifact(res.mergedArtifactPath,
                                             &merged, &err),
                           b + ": merged artifact: " + err))
            continue;
        jobs += merged.jobs.size();
        for (const sim::ArtifactJob &j : merged.jobs) {
            out.insts += j.instructions;
            if (j.cycles) {
                out.retired += j.instructions;
                out.cycles += j.cycles;
            }
            out.jobs[b + ":" + j.label] = {j.instructions, j.hostSeconds};
        }
        if (b == "fig6_speedup") {
            const auto g = merged.geomeans.find("opt");
            out.geomean = g == merged.geomeans.end() ? 0.0 : g->second;
            checks.expect(out.geomean == kFig6Geomean,
                          "fig6 geomean differs from the checked-in "
                          "baseline");
        }
        if (!tr.on())
            continue;

        double smax = 0.0, smin = 1e300;
        for (const sim::ShardOutcome &s : res.shards) {
            smax = std::max(smax, s.seconds);
            smin = std::min(smin, s.seconds);
            out.retries += s.attempts > 0 ? s.attempts - 1 : 0;
            out.shardThreadS += kSweepThreads * s.seconds;
        }
        out.shardMaxS += smax;
        out.shardMinS += res.shards.empty() ? 0.0 : smin;
        out.overheadS += wall - smax;

        // The sweep driver's post-run pipeline, redone from outside.
        std::vector<sim::BenchArtifact> shards(kSweepShards);
        sim::BenchArtifact baseline;
        {
            Tracer::Scope s(tr, "sim.baseline.load", jobId);
            for (unsigned i = 0; i < kSweepShards; ++i)
                checks.expect(
                    sim::loadArtifact(env.workDir + "/" + b + ".shards/" +
                                          sim::shardArtifactName(
                                              b, i, kSweepShards),
                                      &shards[i], &err),
                    b + ": shard artifact: " + err);
            checks.expect(sim::loadArtifact(env.baselineDir + "/BENCH_" +
                                                b + ".json",
                                            &baseline, &err),
                          b + ": baseline: " + err);
        }
        sim::BenchArtifact remerged = shards[0];
        {
            Tracer::Scope s(tr, "sim.baseline.merge", jobId);
            for (unsigned i = 1; i < kSweepShards; ++i)
                checks.expect(remerged.merge(shards[i], &err),
                              b + ": merge: " + err);
            if (!o.geomeanBase.empty()) {
                std::vector<std::string> cols;
                for (const auto &[k, v] : baseline.geomeans)
                    cols.push_back(k);
                remerged.addGeomeansFromJobs(o.geomeanBase, cols);
            }
        }
        sim::CompareResult cmp;
        {
            Tracer::Scope s(tr, "sim.baseline.compare", jobId);
            cmp = sim::compareArtifacts(baseline, remerged);
        }
        checks.expect(cmp.ok, b + ": re-merged artifact drifts from the "
                                  "baseline: " + cmp.message());
    }
    checks.expect(jobs == kSweepJobs,
                  "sweep produced " + std::to_string(jobs) + " jobs, want " +
                      std::to_string(kSweepJobs));
    return out;
}

/** Sum over benches of @p stat over each bench's driver calls. With
 *  minOf, the sweep's wall time with host interference filtered per
 *  call: the reported statistic. */
double
sweepS(const std::vector<SweepRound> &rounds,
       double (*stat)(const std::vector<double> &))
{
    double sum = 0.0;
    for (const char *b : kSweepBenches) {
        std::vector<double> s;
        for (const SweepRound &r : rounds)
            s.push_back(r.benchS.at(b));
        sum += stat(s);
    }
    return sum;
}

/** Simulated kilo-instructions per host second of the sweep's jobs,
 *  each job timed by its fastest round (the harness's --perf seconds). */
double
sweepKips(const std::vector<SweepRound> &rounds)
{
    double insts = 0.0, seconds = 0.0;
    for (const auto &[k, v] : rounds.front().jobs) {
        std::vector<double> s;
        for (const SweepRound &r : rounds) {
            const auto it = r.jobs.find(k);
            if (it != r.jobs.end())
                s.push_back(it->second.second);
        }
        insts += double(v.first);
        seconds += minOf(s);
    }
    return insts / seconds / 1e3;
}

/** Clear every CONOPT_* variable, then pin the sweep's scale/threads so
 *  the shard children run exactly the gated configuration. */
void
pinSweepEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "CONOPT_", 7) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("CONOPT_SCALE", "1", 1);
    setenv("CONOPT_THREADS", std::to_string(kSweepThreads).c_str(), 1);
}

// --------------------------------------------------------------------------
// Per-layer metrics
// --------------------------------------------------------------------------

/** The machine-layer metrics of a traced job pass. */
std::vector<Metric>
machineLayerMetrics(const std::vector<Job> &jobs, const LayerTally &t,
                    const std::map<std::string, perfbench::SpanTotals> &tot,
                    double predecodeHitFrac)
{
    const auto self = [&tot](const char *n) {
        const auto it = tot.find(n);
        return it == tot.end() ? 0.0 : it->second.selfS;
    };
    const auto mean = [&tot](const char *n) {
        const auto it = tot.find(n);
        return it == tot.end() || it->second.count == 0
                   ? 0.0
                   : it->second.totalS / double(it->second.count);
    };
    const double insts = double(t.insts);
    const double emuNs = ratio(self("arch.emulator.run"), insts) * 1e9;
    const double runNs = ratio(self("pipeline.session.run"), insts) * 1e9;
    const double renameNs =
        ratio(self("core.rename.replay"), double(t.renamed)) * 1e9;
    const double cacheNs =
        ratio(self("cache.replay"), double(t.cacheAccesses)) * 1e9;
    const double branchNs =
        ratio(self("branch.replay"), double(t.lookups)) * 1e9;
    // Estimate: what remains of run once the replayed layers' costs
    // (scaled to this stream's counts) are taken out.
    const double pipelineSelfNs =
        runNs - emuNs - renameNs -
        cacheNs * ratio(double(t.cacheAccesses), insts) -
        branchNs * ratio(double(t.lookups), insts);

    double retired = 0, early = 0, loads = 0, removed = 0, mbcLook = 0,
           mbcHit = 0, cycles = 0, skipped = 0, allocs = 0, dl1 = 0,
           dl1Miss = 0, branches = 0, mispred = 0;
    for (const Job &j : jobs) {
        const pipeline::SimStats &s = j.stats;
        retired += double(s.retired);
        early += double(s.opt.earlyExecuted);
        loads += double(s.opt.loads);
        removed += double(s.opt.loadsRemoved);
        mbcLook += double(s.mbc.lookups);
        mbcHit += double(s.mbc.hits);
        cycles += double(s.cycles);
        skipped += double(j.skipped);
        allocs += double(j.prfAllocs);
        dl1 += double(s.dl1Hits + s.dl1Misses);
        dl1Miss += double(s.dl1Misses);
        branches += double(s.branches);
        mispred += double(s.mispredicted);
    }
    return {
        {"arch.emu_ns_per_inst", emuNs, "ns/inst"},
        {"arch.predecode_hit_frac", predecodeHitFrac, "frac"},
        {"core.rename_ns_per_inst", renameNs, "ns/inst"},
        {"core.early_exec_frac", ratio(early, retired), "frac"},
        {"core.loads_removed_frac", ratio(removed, loads), "frac"},
        {"core.mbc_hit_frac", ratio(mbcHit, mbcLook), "frac"},
        {"pipeline.run_ns_per_inst", runNs, "ns/inst"},
        {"pipeline.self_ns_per_inst", pipelineSelfNs, "ns/inst"},
        {"pipeline.cycles_skipped_frac", ratio(skipped, cycles), "frac"},
        {"pipeline.prf_allocs_per_inst", ratio(allocs, retired), "1/inst"},
        {"pipeline.reset_us", mean("pipeline.session.reset") * 1e6, "us"},
        {"cache.ns_per_access", cacheNs, "ns"},
        {"cache.dl1_miss_frac", ratio(dl1Miss, dl1), "frac"},
        {"branch.ns_per_lookup", branchNs, "ns"},
        {"branch.mispredict_frac", ratio(mispred, branches), "frac"},
    };
}

/** The sweep-layer metrics of traced sweep rounds. */
std::vector<Metric>
sweepLayerMetrics(const std::vector<SweepRound> &rounds,
                  const std::map<std::string, perfbench::SpanTotals> &tot)
{
    std::vector<double> jobS, smax, over;
    double jobSum = 0.0, threadS = 0.0, smaxSum = 0.0, sminSum = 0.0;
    unsigned retries = 0;
    for (const SweepRound &r : rounds) {
        for (const auto &[k, v] : r.jobs) {
            jobS.push_back(v.second * 1e3);
            jobSum += v.second;
        }
        threadS += r.shardThreadS;
        smax.push_back(r.shardMaxS);
        over.push_back(r.overheadS);
        smaxSum += r.shardMaxS;
        sminSum += r.shardMinS;
        retries += r.retries;
    }
    const auto perRoundMs = [&tot, &rounds](const char *n) {
        const auto it = tot.find(n);
        return it == tot.end() ? 0.0
                               : it->second.totalS * 1e3 /
                                     double(rounds.size());
    };
    return {
        {"sim.sweep.job_ms_p50", percentile(jobS, 50), "ms"},
        {"sim.sweep.job_ms_p85", percentile(jobS, 85), "ms"},
        {"sim.sweep.utilization", ratio(jobSum, threadS), "frac"},
        {"sim.driver.shard_s_max", median(smax), "s"},
        {"sim.driver.shard_imbalance", ratio(smaxSum, sminSum), "ratio"},
        {"sim.driver.overhead_s", median(over), "s"},
        {"sim.driver.retries", double(retries), "count"},
        {"sim.baseline.load_ms", perRoundMs("sim.baseline.load"), "ms"},
        {"sim.baseline.merge_ms", perRoundMs("sim.baseline.merge"), "ms"},
        {"sim.baseline.compare_ms", perRoundMs("sim.baseline.compare"),
         "ms"},
    };
}

void
printSelfTimes(const std::map<std::string, perfbench::SpanTotals> &tot)
{
    std::fprintf(stderr, "perfbench: span self times\n");
    std::fprintf(stderr, "  %-30s %8s %12s %12s\n", "span", "count",
                 "total s", "self s");
    for (const auto &[name, t] : tot)
        std::fprintf(stderr, "  %-30s %8" PRIu64 " %12.6f %12.6f\n",
                     name.c_str(), t.count, t.totalS, t.selfS);
}

// --------------------------------------------------------------------------
// Arguments
// --------------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v, &end);
            if (*end || !(a->seconds > 0.0))
                return false;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            a->trace = v[0] == '1';
        } else if (k == "--root") {
            a->root = v;
        } else {
            return false;
        }
    }
    return a->workload == "opt_irregular" ||
           a->workload == "base_streaming" || a->workload == "fig_sweep";
}

/**
 * Moves this (single-threaded) process from CPU to CPU between rounds.
 * On a shared host one vCPU can run a process at half speed for a
 * minute or more while another runs at full speed, and the scheduler
 * leaves a lone busy thread where it is. Rotating the affinity gives
 * every job rounds on every allowed CPU, so its fastest round is taken
 * on whichever CPU ran fastest. The destructor restores the original
 * mask, which children spawned later inherit.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof all_, &all_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the allowed CPU @p round lands on, round-robin. */
    void
    pin(size_t round)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[round % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

std::string
selfDir()
{
    std::error_code ec;
    const fs::path p = fs::read_symlink("/proc/self/exe", ec);
    return ec ? "." : p.parent_path().string();
}

// --------------------------------------------------------------------------
// Workload drivers
// --------------------------------------------------------------------------

struct Run
{
    Args args;
    Checks checks;
    std::vector<Metric> metrics;
    std::unique_ptr<Tracer> tracer;
    std::mt19937_64 rng;
    SweepEnv sweep;
    int32_t nextJob = 0;
};

/**
 * The machine-layer half of a traced run: each job once with spans,
 * its functional pass, its SimSession run, and its replays.
 */
void
tracedJobPass(Run &run, std::vector<Job> &jobs, sim::SimSession &session,
              arch::Emulator &emu, std::vector<arch::DynInst> &buf,
              LayerTally &tally, const std::vector<size_t> &order)
{
    Tracer &tr = *run.tracer;
    for (size_t ix : order) {
        Job &j = jobs[ix];
        const int32_t id = run.nextJob++;
        Tracer::Scope job(tr, "job", id);
        uint64_t emuInsts = 0;
        emulate(j, emu, tr, id, &emuInsts);
        double s = 0.0;
        const sim::SimResult r = runJob(j, session, tr, id, &s, run.checks);
        j.tracedRunS.push_back(s);
        run.checks.expect(emuInsts == r.stats.retired,
                          j.label() + ": emulator count != in-core retired");
        tally.insts += r.stats.retired;
        replayJob(j, r.stats, emu, buf, tr, id, tally, run.checks);
    }
}

void
runSimWorkload(Run &run)
{
    const bool opt = run.args.workload == "opt_irregular";
    const std::vector<std::string> names =
        opt ? std::vector<std::string>{"mcf", "gcc", "prl", "vpr", "twf"}
            : std::vector<std::string>{"art", "eqk", "mpg2e", "cra", "tst"};
    std::vector<Job> jobs = makeJobs(names, {opt ? "opt" : "base"}, kSimScale);
    Tracer &tr = *run.tracer;
    Tracer off(false);
    HostReference host;

    std::unique_ptr<sim::SimSession> session;
    double setupS = 0.0, buildS = 0.0;
    setupRepeated(jobs, session, tr, &setupS, &buildS);
    const size_t loopMark = tr.mark();

    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), 0);
    arch::Emulator emu(jobs.front().prog);
    std::vector<arch::DynInst> buf(run.args.trace ? kReplayChunk : 0);
    LayerTally tally;
    const auto &pc = arch::PredecodeCache::instance();
    const uint64_t hits0 = pc.hits(), builds0 = pc.builds();

    // Rounds in a seed-permuted job order until the time is up, each on
    // the next CPU, with a host-reference sample after every plain job.
    // A traced run alternates plain rounds with traced ones, so the two
    // timings of SimSession::run interleave and their ratio is the
    // tracing overhead.
    {
        CpuRotation cpus;
        const auto t0 = Clock::now();
        for (int round = 0;
             round < kMinRounds || secondsSince(t0) < run.args.seconds;
             ++round) {
            std::shuffle(order.begin(), order.end(), run.rng);
            cpus.pin(size_t(run.args.trace ? round / 2 : round));
            if (run.args.trace && round % 2 == 1) {
                tracedJobPass(run, jobs, *session, emu, buf, tally, order);
                continue;
            }
            for (size_t ix : order) {
                double s = 0.0;
                runJob(jobs[ix], *session, off, -1, &s, run.checks);
                jobs[ix].runS.push_back(s);
                host.sample();
            }
        }
    }
    const double rssMib = peakRssMib(RUSAGE_SELF);
    const uint64_t hits = pc.hits() - hits0, builds = pc.builds() - builds0;

    // Outputs: every job's stats and checksum against the expected
    // values, plus the other machine's run of the same programs for the
    // speedup geomean.
    std::vector<Job> other =
        makeJobs(names, {opt ? "base" : "opt"}, kSimScale);
    std::vector<const Job *> base, optJobs;
    for (size_t i = 0; i < jobs.size(); ++i) {
        uint64_t emuInsts = 0;
        const uint64_t sum = emulate(jobs[i], emu, off, -1, &emuInsts);
        checkExpected(jobs[i], sum, emuInsts, run.checks);
        other[i].prog = jobs[i].prog;
        double s = 0.0;
        runJob(other[i], *session, off, -1, &s, run.checks);
        checkExpected(other[i], sum, emuInsts, run.checks);
        (opt ? optJobs : base).push_back(&jobs[i]);
        (opt ? base : optJobs).push_back(&other[i]);
    }

    double insts = 0.0, bestS = 0.0, medS = 0.0, cycles = 0.0;
    for (const Job &j : jobs) {
        insts += double(j.stats.retired);
        cycles += double(j.stats.cycles);
        bestS += minOf(j.runS);
        medS += median(j.runS);
        std::fprintf(stderr,
                     "perfbench: job %s %" PRIu64 " insts, best %.6f s, "
                     "median %.6f s\n",
                     j.label().c_str(), j.stats.retired, minOf(j.runS),
                     median(j.runS));
    }
    const double slow = host.slowdown();
    std::fprintf(stderr,
                 "perfbench: %s seed %" PRIu64 ": %zu rounds, kips best %.1f "
                 "median %.1f, host slowdown %.4f (%zu samples)\n",
                 run.args.workload.c_str(), run.args.seed,
                 jobs.front().runS.size(), insts / bestS / 1e3,
                 insts / medS / 1e3, slow, host.samples());

    if (!run.args.trace) {
        run.metrics = {
            {"kips", insts / bestS / 1e3 * slow, "kinst/s"},
            {"sweep_wall_s", bestS / slow, "s"},
            {"setup_s", setupS, "s"},
            {"peak_rss_mib", rssMib, "MiB"},
            {"sim_ipc", insts / cycles, "inst/cycle"},
            {"sim_speedup_geomean", speedupGeomean(base, optJobs), "x"},
        };
        return;
    }

    const auto tot = tr.totals(loopMark);
    double tracedBest = 0.0;
    for (const Job &j : jobs)
        tracedBest += minOf(j.tracedRunS);
    run.metrics = {{"workloads.build_ms", buildS * 1e3, "ms"}};
    for (Metric &m : machineLayerMetrics(jobs, tally, tot,
                                         ratio(double(hits),
                                               double(hits + builds))))
        run.metrics.push_back(m);

    // The sweep layers sit off this workload's path; one traced round of
    // the fig_sweep command measures them.
    pinSweepEnvironment();
    const size_t sweepMark = tr.mark();
    std::vector<SweepRound> rounds{
        sweepRound(run.sweep, run.rng, tr, run.checks, run.nextJob)};
    for (Metric &m : sweepLayerMetrics(rounds, tr.totals(sweepMark)))
        run.metrics.push_back(m);
    run.metrics.push_back(
        {"trace.overhead_frac", tracedBest / bestS - 1.0, "frac"});
    run.metrics.push_back({"host.slowdown", slow, "x"});
    printSelfTimes(tr.totals(loopMark));
}

void
runFigSweep(Run &run)
{
    Tracer &tr = *run.tracer;
    Tracer off(false);
    HostReference host;
    pinSweepEnvironment();

    // Set-up: the table-1 programs at scale 1 (the sweep's job set), one
    // session with their pre-decode tables, and the gate's baselines.
    std::vector<std::string> names;
    for (const workloads::Workload &w : workloads::allWorkloads())
        names.push_back(w.name);
    std::vector<Job> jobs = makeJobs(names, {"base", "opt"}, 1);
    std::unique_ptr<sim::SimSession> session;
    double setupS = 0.0, buildS = 0.0;
    setupRepeated(jobs, session, tr, &setupS, &buildS, [&run] {
        run.sweep.baselines.clear();
        loadBaselines(run.sweep, run.checks);
    });
    const size_t loopMark = tr.mark();

    std::vector<SweepRound> plain, traced;
    const auto t0 = Clock::now();
    for (int round = 0;
         round < kMinRounds || secondsSince(t0) < run.args.seconds; ++round) {
        const bool t = run.args.trace && round % 2 == 1;
        (t ? traced : plain)
            .push_back(sweepRound(run.sweep, run.rng, t ? tr : off,
                                  run.checks, run.nextJob));
        if (!t)
            host.sample();
    }
    // The largest shard child: this process's own peak is the
    // benchmark's set-up, not the user command's.
    const double rssMib = peakRssMib(RUSAGE_CHILDREN);

    const SweepRound &first = plain.front();
    for (const SweepRound &r : plain)
        run.checks.expect(r.insts == first.insts && r.cycles == first.cycles,
                          "sweep totals changed between rounds");
    const double slow = host.slowdown();
    std::fprintf(stderr,
                 "perfbench: fig_sweep seed %" PRIu64 ": %zu rounds, wall "
                 "best %.4f median %.4f kips %.1f, host slowdown %.4f\n",
                 run.args.seed, plain.size(), sweepS(plain, minOf),
                 sweepS(plain, median), sweepKips(plain), slow);

    if (!run.args.trace) {
        run.metrics = {
            {"kips", sweepKips(plain) * slow, "kinst/s"},
            {"sweep_wall_s", sweepS(plain, minOf) / slow, "s"},
            {"setup_s", setupS, "s"},
            {"peak_rss_mib", rssMib, "MiB"},
            {"sim_ipc", ratio(double(first.retired), double(first.cycles)),
             "inst/cycle"},
            {"sim_speedup_geomean", first.geomean, "x"},
        };
        return;
    }

    const auto sweepTot = tr.totals(loopMark);

    // The machine layers run inside the shard children, out of reach of
    // the benchmark's spans; one traced pass over fig6's 44 jobs in this
    // process measures them, checked against the gated baselines.
    const size_t passMark = tr.mark();
    arch::Emulator emu(jobs.front().prog);
    std::vector<arch::DynInst> buf(kReplayChunk);
    LayerTally tally;
    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), run.rng);
    const auto &pc = arch::PredecodeCache::instance();
    const uint64_t hits0 = pc.hits(), builds0 = pc.builds();
    tracedJobPass(run, jobs, *session, emu, buf, tally, order);
    const uint64_t hits = pc.hits() - hits0, builds = pc.builds() - builds0;
    const sim::BenchArtifact &fig6 = run.sweep.baselines["fig6_speedup"];
    for (const Job &j : jobs) {
        const sim::ArtifactJob *b = fig6.findJob(j.label());
        run.checks.expect(b && b->cycles == j.stats.cycles &&
                              b->instructions == j.stats.retired,
                          j.label() + ": traced pass differs from the fig6 "
                                      "baseline");
    }

    run.metrics = {{"workloads.build_ms", buildS * 1e3, "ms"}};
    for (Metric &m :
         machineLayerMetrics(jobs, tally, tr.totals(passMark),
                             ratio(double(hits), double(hits + builds))))
        run.metrics.push_back(m);
    for (Metric &m : sweepLayerMetrics(traced, sweepTot))
        run.metrics.push_back(m);
    run.metrics.push_back({"trace.overhead_frac",
                           sweepS(traced, minOf) / sweepS(plain, minOf) - 1.0,
                           "frac"});
    run.metrics.push_back({"host.slowdown", slow, "x"});
    printSelfTimes(tr.totals(loopMark));
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    if (!parseArgs(argc, argv, &run.args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "<opt_irregular|base_streaming|fig_sweep> --seed N "
                     "--seconds S --trace <0|1> [--root DIR]\n");
        return 2;
    }
    const fs::path root = fs::absolute(run.args.root);
    if (!fs::is_directory(root / "bench" / "baselines")) {
        std::fprintf(stderr, "perfbench: no bench/baselines under %s\n",
                     root.c_str());
        return 2;
    }
    run.tracer = std::make_unique<Tracer>(run.args.trace);
    run.rng.seed(run.args.seed);
    run.sweep.binDir = selfDir();
    run.sweep.baselineDir = (root / "bench" / "baselines").string();
    const fs::path out = root / ".bench_build" / "perfbench-out";
    run.sweep.workDir = (out / ("sweep-" + run.args.workload)).string();
    std::error_code ec;
    fs::remove_all(run.sweep.workDir, ec);
    fs::create_directories(run.sweep.workDir, ec);
    std::fprintf(stderr, "perfbench: workload %s seed %" PRIu64
                         " seconds %g trace %d\n",
                 run.args.workload.c_str(), run.args.seed, run.args.seconds,
                 int(run.args.trace));

    if (run.args.workload == "fig_sweep")
        runFigSweep(run);
    else
        runSimWorkload(run);

    if (run.args.trace) {
        const std::string path =
            (out / ("trace-" + run.args.workload + "-seed" +
                    std::to_string(run.args.seed) + ".json"))
                .string();
        const std::vector<std::string> header = {
            "\"workload\": \"" + run.args.workload + "\"",
            "\"seed\": " + std::to_string(run.args.seed),
        };
        if (!run.tracer->write(path, header))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        else
            std::fprintf(stderr, "perfbench: spans written to %s\n",
                         path.c_str());
    }
    printResult(run.checks, run.metrics);
    return run.checks.failed == 0 ? 0 : 1;
}
