#include "src/sim/harness.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/driver.hh"
#include "src/sim/fingerprint.hh"
#include "src/sim/wire.hh"

namespace conopt::sim {

void
printSweepProgress(const SweepProgress &p)
{
    std::fprintf(stderr,
                 "[sweep] %3zu/%zu  %-30s %7.2fs  elapsed %6.1fs  "
                 "eta %6.1fs  geomean ipc %.3f\n",
                 p.done, p.total, p.label.c_str(), p.jobHostSeconds,
                 p.elapsedSeconds, p.etaSeconds, p.geomeanIpc);
}

void
printHostPercentiles(const SweepResult &res)
{
    pipeline::PercentileAccumulator acc;
    for (const auto &r : res.all())
        if (r.simSeconds > 0.0)
            acc.add(r.simSeconds);
    if (acc.empty())
        return;
    std::fprintf(stderr,
                 "[perf] host seconds/job: p50 %.4f  p95 %.4f  "
                 "p99 %.4f  max %.4f  (n=%zu)\n",
                 acc.percentile(50), acc.percentile(95),
                 acc.percentile(99), acc.max(), acc.count());
}

HarnessOptions
HarnessOptions::parse(int argc, char **argv, bool lenientArgs)
{
    // argv[0] is the program name, never a flag.
    const std::vector<std::string> args(argc > 0 ? argv + 1 : argv,
                                        argv + argc);
    HarnessOptions o;
    if (const char *d = std::getenv("CONOPT_ARTIFACT_DIR"); d && *d)
        o.run.artifactDir = d;
    if (const char *b = std::getenv("CONOPT_BASELINE_DIR"); b && *b)
        o.run.baselinePath = b;
    if (const char *c = std::getenv("CONOPT_RESULT_CACHE"); c && *c)
        o.run.resultCacheDir = c;
    if (const char *p = std::getenv("CONOPT_PROGRESS");
        p && *p && std::string(p) != "0")
        o.progress = true;
    if (const char *p = std::getenv("CONOPT_PERF");
        p && *p && std::string(p) != "0")
        o.run.perf = true;
    const auto shardSpec = [&](const char *s, const char *what) {
        if (!parseShard(s, &o.run.shard)) {
            std::fprintf(stderr,
                         "invalid %s '%s' (want \"i/n\" with "
                         "0 <= i < n, e.g. \"0/2\")\n",
                         what, s);
            std::exit(2);
        }
    };
    if (const char *s = std::getenv("CONOPT_SHARD"); s && *s)
        shardSpec(s, "CONOPT_SHARD");
    const auto ipcSampleSpec = [&](const char *s, const char *what) {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(s, &end, 10);
        if (end == s || *end != '\0' || errno == ERANGE) {
            std::fprintf(stderr,
                         "invalid %s '%s' (want a sampling stride "
                         "in retired instructions; 0 = off)\n",
                         what, s);
            std::exit(2);
        }
        o.run.ipcSampleInterval = uint64_t(v);
    };
    if (const char *s = std::getenv("CONOPT_IPC_SAMPLE"); s && *s)
        ipcSampleSpec(s, "CONOPT_IPC_SAMPLE");
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "%s requires a value\n", a.c_str());
                std::exit(2);
            }
            return args[++i].c_str();
        };
        if (a == "--artifact-dir") {
            o.run.artifactDir = value();
        } else if (a == "--baseline") {
            o.run.baselinePath = value();
        } else if (a == "--shard") {
            shardSpec(value(), "--shard");
        } else if (a == "--result-cache") {
            o.run.resultCacheDir = value();
        } else if (a == "--progress") {
            o.progress = true;
        } else if (a == "--perf") {
            o.run.perf = true;
        } else if (a == "--ipc-sample-interval") {
            ipcSampleSpec(value(), "--ipc-sample-interval");
        } else if (a == "--wire") {
            // The frame channel is the original stdout; from here on
            // everything the bench prints goes to stderr, so human
            // output can never corrupt a frame.
            std::fflush(stdout);
            o.wireFd = ::fcntl(1, F_DUPFD_CLOEXEC, 3);
            if (o.wireFd < 0 || ::dup2(2, 1) < 0) {
                std::fprintf(stderr, "--wire: cannot redirect stdout: %s\n",
                             std::strerror(errno));
                std::exit(2);
            }
        } else if (a == "--tolerance") {
            const char *v = value();
            if (!parseTolerance(v, &o.run.tolerance)) {
                std::fprintf(stderr,
                             "invalid --tolerance '%s' (want a "
                             "finite non-negative number)\n",
                             v);
                std::exit(2);
            }
        } else if (a == "--no-artifact") {
            o.run.emitArtifact = false;
        } else if (!lenientArgs) {
            std::fprintf(stderr,
                         "unknown argument '%s' (flags: "
                         "--artifact-dir DIR, --baseline PATH, "
                         "--shard I/N, --result-cache DIR, "
                         "--perf, --ipc-sample-interval N, "
                         "--progress, --wire, "
                         "--tolerance T, --no-artifact)\n",
                         a.c_str());
            std::exit(2);
        }
    }
    if (!o.run.resultCacheDir.empty())
        o.resultCache =
            std::make_shared<ResultCache>(o.run.resultCacheDir);
    return o;
}

ProgressFn
HarnessOptions::progressFn() const
{
    if (wireFd >= 0) {
        const int fd = wireFd;
        const bool human = progress;
        return [fd, human](const SweepProgress &p) {
            if (human)
                printSweepProgress(p);
            // Progress is advisory: a failed write never fails the
            // sweep (the result frame's write is what counts).
            std::string err;
            writeFrame(fd, makeProgressFrame(formatProgressLine(p)), &err);
        };
    }
    if (progress)
        return printSweepProgress;
    return {};
}

SweepOptions
HarnessOptions::sweepOptions() const
{
    SweepOptions s;
    s.run = run;
    s.resultCache = resultCache;
    s.onProgress = progressFn();
    return s;
}

int
harnessFinish(const std::string &benchName, BenchArtifact art,
              const HarnessOptions &o)
{
    if (o.resultCache) {
        const auto cs = o.resultCache->stats();
        std::fprintf(stderr,
                     "[cache] %s: %llu hits, %llu misses, %llu stored",
                     o.resultCache->dir().c_str(),
                     (unsigned long long)cs.hits,
                     (unsigned long long)cs.misses,
                     (unsigned long long)cs.stores);
        if (cs.errors)
            std::fprintf(stderr, " (%llu corrupt)",
                         (unsigned long long)cs.errors);
        std::fprintf(stderr, "\n");
    }
    if (!o.run.emitArtifact) {
        std::string err;
        if (o.wireFd >= 0)
            writeFrame(o.wireFd,
                       makeErrorFrame(2, "--no-artifact: nothing to return"),
                       &err);
        return 0;
    }

    art.bench = benchName;
    if (o.wireFd >= 0) {
        // The artifact travels as the result envelope; the reader
        // writes, merges, and gates it.
        std::string err;
        if (writeFrame(o.wireFd, makeResultFrame(art.toJson()), &err))
            return 0;
        std::fprintf(stderr, "%s: cannot send artifact: %s\n",
                     benchName.c_str(), err.c_str());
        return 1;
    }
    const std::string outPath =
        (std::filesystem::path(o.run.artifactDir) /
         shardArtifactName(benchName, o.run.shard.index,
                           o.run.shard.count))
            .string();
    std::string err;
    if (!art.save(outPath, &err)) {
        std::fprintf(stderr, "%s: cannot write artifact: %s\n",
                     benchName.c_str(), err.c_str());
        return 1;
    }
    std::fprintf(stderr, "[artifact] wrote %s (%zu jobs, %zu geomeans)\n",
                 outPath.c_str(), art.jobs.size(), art.geomeans.size());

    if (o.run.baselinePath.empty())
        return 0;
    if (o.run.shard.active()) {
        // A shard is a partial figure: gating it against a full
        // baseline would flag every other shard's jobs as missing.
        // The gate belongs to the merged artifact.
        std::fprintf(stderr,
                     "[artifact] shard %u/%u: baseline gate deferred; "
                     "merge the shard artifacts and run "
                     "conopt_bench_check %s <shard-dir>\n",
                     o.run.shard.index, o.run.shard.count,
                     o.run.baselinePath.c_str());
        return 0;
    }

    std::string basePath = o.run.baselinePath;
    std::error_code ec;
    if (std::filesystem::is_directory(basePath, ec)) {
        basePath = (std::filesystem::path(basePath) /
                    ("BENCH_" + benchName + ".json"))
                       .string();
        // A baseline *directory* gates whichever benches have seeds in
        // it; a bench without one is "not yet baselined", not a
        // failure (CONOPT_BASELINE_DIR is typically set globally). An
        // explicit --baseline <file> that is missing still errors.
        if (!std::filesystem::exists(basePath, ec)) {
            std::fprintf(stderr,
                         "[artifact] no baseline for %s in %s; gate "
                         "skipped\n",
                         benchName.c_str(), o.run.baselinePath.c_str());
            return 0;
        }
    }
    BenchArtifact baseline;
    if (!loadArtifact(basePath, &baseline, &err)) {
        std::fprintf(stderr, "%s: cannot load baseline: %s\n",
                     benchName.c_str(), err.c_str());
        return 1;
    }
    const auto cmp = compareArtifacts(baseline, art, {o.run.tolerance});
    if (!cmp.ok) {
        std::fprintf(stderr,
                     "%s: BASELINE DRIFT vs %s (%zu difference%s):\n",
                     benchName.c_str(), basePath.c_str(),
                     cmp.diffs.size(), cmp.diffs.size() == 1 ? "" : "s");
        for (const auto &d : cmp.diffs)
            std::fprintf(stderr, "  %s\n", d.c_str());
        return 1;
    }
    std::fprintf(stderr, "[artifact] matches baseline %s\n",
                 basePath.c_str());
    return 0;
}

ArtifactJob
configJob(const char *name, const pipeline::MachineConfig &cfg)
{
    ArtifactJob j;
    j.label = name;
    j.config = name;
    j.configFingerprint = configFingerprint(cfg);
    return j;
}

BenchArtifact
artifactFromSweep(const SweepResult &res, const RunOptions &run,
                  const std::string &baseConfig,
                  const std::vector<std::string> &configs)
{
    auto art = BenchArtifact::fromSweep(res);
    if (run.perf)
        art.addPerf(res);
    // No-op unless --ipc-sample-interval armed sampling: gated runs
    // keep byte-identical artifacts.
    art.addIpcSamples(res);
    if (!run.shard.active()) {
        art.addGeomeans(res, baseConfig, configs);
        // The sweep-level distribution block. Sharded runs defer it
        // like the geomeans — a subset's percentiles are wrong for
        // the whole — and the shard merge recomputes it from the
        // per-job samples (loadArtifactOrShards).
        art.addDistributionFromJobs();
    }
    return art;
}

int
harnessFinishSweep(const std::string &benchName, const SweepResult &res,
                   const std::string &baseConfig,
                   const std::vector<std::string> &configs,
                   const HarnessOptions &o)
{
    auto art = artifactFromSweep(res, o.run, baseConfig, configs);
    if (o.run.perf)
        printHostPercentiles(res);
    return harnessFinish(benchName, std::move(art), o);
}

} // namespace conopt::sim
