/**
 * @file
 * conopt_sweep distributed-driver tests.
 *
 * The load-bearing properties:
 *   - the driver-merged artifact is byte-identical to the unsharded
 *     run (after the canonical sort + geomean recompute the driver
 *     performs), so one-command distribution never changes the
 *     science — also when the shards run in another directory, since
 *     artifacts come back in result frames, not through a shared
 *     filesystem;
 *   - a crashed, killed, hung, or garbled shard, or one that ends
 *     without a result frame or sends one and then fails, is a hard
 *     failure (exit 2) with its captured stderr surfaced — never a
 *     silently thinner merged artifact;
 *   - bounded retry recovers a transient shard failure;
 *   - CLI / launcher-template / progress-line parsing rejects
 *     malformed input up front.
 *
 * The test binary doubles as the bench binary the driver launches:
 * when CONOPT_DRIVER_TEST_CHILD is set, main() dispatches to a child
 * mode (a real 6-job sweep through the bench harness, a crash, a
 * SIGKILL, a hang, a fail-once-then-succeed bench, or a broken frame
 * stream) instead of running GoogleTest, so the whole
 * spawn/stream/retry/merge/gate path is exercised with no fixtures
 * outside the build tree.
 */

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "src/sim/baseline.hh"
#include "src/sim/driver.hh"
#include "src/sim/sweep.hh"

using namespace conopt;
namespace fs = std::filesystem;

namespace {

/** The sweep every "bench" child runs: 3 workloads x 2 machines. */
sim::SweepSpec
childSpec()
{
    sim::SweepSpec spec;
    spec.workloads({"untst", "mcf", "g721d"})
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());
    return spec;
}

/** The bench name the child reports; must match this binary's
 *  basename so the driver's derived name finds the artifacts. */
constexpr const char *kChildBench = "test_sweep_driver";

// Sanitizer instrumentation slows the simulated work inside each shard
// several-fold, so the lingering-child test scales the straggler's
// sleep and the finalize deadline together — the test must keep
// discriminating "finalized on the shard's own exit" from "waited the
// straggler out for pipe EOF" at either speed.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kLingerDeciseconds = 900;
// Must stay well under the straggler's 90 s sleep to keep its
// discriminating power, but high enough that sanitized shards on a
// contended CI box don't trip it on the pass path.
constexpr double kFinalizeBoundSeconds = 70.0;
#else
constexpr int kLingerDeciseconds = 300;
constexpr double kFinalizeBoundSeconds = 15.0;
#endif

std::string
shardArgOf(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--shard") == 0)
            return argv[i + 1];
    return "none";
}

/** Child-mode entry: this binary re-exec'd by the driver as a shard. */
int
childMain(const std::string &mode, int argc, char **argv)
{
    if (mode == "crash") {
        std::fprintf(stderr, "boom: injected shard crash\n");
        return 3;
    }
    if (mode == "kill") {
        std::fprintf(stderr, "about to die to SIGKILL\n");
        std::fflush(nullptr);
        ::raise(SIGKILL);
        return 9; // unreachable
    }
    if (mode == "garbage") {
        // Bytes on the wire stdout that are not a frame.
        std::fprintf(stderr, "garbage: writing non-frame bytes\n");
        std::fputs("this is not a frame\n", stdout);
        std::fflush(nullptr);
        return 0;
    }
    if (mode == "noresult") {
        std::fprintf(stderr, "noresult: exiting 0 without a result\n");
        return 0;
    }
    if (mode == "hang") {
        std::fprintf(stderr, "hanging until killed\n");
        std::fflush(nullptr);
        for (;;)
            ::pause();
    }
    if (mode == "flaky") {
        // Fail exactly once per shard (a marker file remembers the
        // first attempt), then behave like a normal bench.
        const char *dir = std::getenv("CONOPT_DRIVER_TEST_MARKER");
        if (!dir) {
            std::fprintf(stderr, "flaky mode without marker dir\n");
            return 4;
        }
        std::string shard = shardArgOf(argc, argv);
        for (auto &c : shard)
            if (c == '/')
                c = '_';
        const std::string marker =
            std::string(dir) + "/attempt." + shard;
        if (!fs::exists(marker)) {
            if (std::FILE *f = std::fopen(marker.c_str(), "w"))
                std::fclose(f);
            std::fprintf(stderr, "flaky: injected transient failure\n");
            return 1;
        }
    } else if (mode == "linger") {
        // Leak our stdout/stderr/progress write ends to a background
        // child that outlives us: the classic fd-inheriting daemonized
        // helper. The driver must finalize this shard on its own exit
        // shortly after, not wait the straggler out for pipe EOF.
        if (::fork() == 0) {
            for (int i = 0; i < kLingerDeciseconds; ++i)
                ::usleep(100000);
            ::_exit(0);
        }
    } else if (mode != "bench" && mode != "resultthenfail") {
        std::fprintf(stderr, "unknown child mode '%s'\n", mode.c_str());
        return 4;
    }
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    sim::SweepRunner runner(hopts.sweepOptions());
    const auto res = runner.run(childSpec());
    const int rc =
        bench::finishSweep(kChildBench, res, "base", {"opt"}, hopts);
    if (mode == "resultthenfail") {
        std::fprintf(stderr, "resultthenfail: result sent, exiting 3\n");
        return 3;
    }
    return rc;
}

/** Scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("conopt_test_sweep_driver_" +
                std::to_string(uint64_t(::getpid())) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }

    static unsigned &
    counter()
    {
        static unsigned c = 0;
        return c;
    }
};

/** setenv for the lifetime of a test (driver children inherit it). */
struct EnvGuard
{
    std::string name;

    EnvGuard(const char *n, const std::string &v) : name(n)
    {
        ::setenv(n, v.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name.c_str()); }
};

/** chdir for the lifetime of a test. */
struct CwdGuard
{
    fs::path old = fs::current_path();

    explicit CwdGuard(const fs::path &dir) { fs::current_path(dir); }
    ~CwdGuard() { fs::current_path(old); }
};

std::string
selfExePath()
{
    return fs::read_symlink("/proc/self/exe").string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Driver options pointing at this binary in child-bench mode. */
sim::DriverOptions
childDriverOptions(const TempDir &tmp, unsigned shards)
{
    sim::DriverOptions o;
    o.benchPath = selfExePath();
    o.benchName = kChildBench;
    o.shards = shards;
    o.run.artifactDir = tmp.path.string();
    return o;
}

/** The unsharded in-process reference artifact, canonicalized the way
 *  the driver canonicalizes its merge. */
sim::BenchArtifact
referenceArtifact()
{
    sim::SweepRunner full({2, nullptr});
    const auto res = full.run(childSpec());
    auto art = sim::BenchArtifact::fromSweep(res);
    art.bench = kChildBench;
    art.sortJobsByLabel();
    art.addGeomeansFromJobs("base", {"opt"});
    return art;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *mode = std::getenv("CONOPT_DRIVER_TEST_CHILD"))
        return childMain(mode, argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

// ---------------------------------------------------------------------------
// Progress line protocol.
// ---------------------------------------------------------------------------

TEST(ProgressLine, FormatParseRoundTripsExactly)
{
    sim::SweepProgress p;
    p.done = 3;
    p.total = 11;
    p.label = "mcf/base";
    p.jobHostSeconds = 0.1257;
    p.totalHostSeconds = 1.03125;
    p.elapsedSeconds = 2.5;
    p.etaSeconds = 7.333333333333333;
    p.geomeanIpc = 1.0213897;

    const std::string line = sim::formatProgressLine(p);
    EXPECT_EQ(line.rfind(sim::kProgressLineTag, 0), 0u) << line;

    sim::SweepProgress q;
    ASSERT_TRUE(sim::parseProgressLine(line, &q)) << line;
    EXPECT_EQ(q.done, p.done);
    EXPECT_EQ(q.total, p.total);
    EXPECT_EQ(q.label, p.label);
    // %.17g is lossless for doubles, so the round trip is exact.
    EXPECT_EQ(q.jobHostSeconds, p.jobHostSeconds);
    EXPECT_EQ(q.totalHostSeconds, p.totalHostSeconds);
    EXPECT_EQ(q.elapsedSeconds, p.elapsedSeconds);
    EXPECT_EQ(q.etaSeconds, p.etaSeconds);
    EXPECT_EQ(q.geomeanIpc, p.geomeanIpc);

    // A trailing newline (the wire form) is tolerated.
    EXPECT_TRUE(sim::parseProgressLine(line + "\n", &q));
}

TEST(ProgressLine, DaemonKeysRoundTripAndStayOffTheEphemeralWire)
{
    // Daemon-backed shards annotate the stream with their queue depth
    // and warm-session count; an ephemeral shard (both zero) must emit
    // byte-identical v1 lines to the pre-daemon protocol.
    sim::SweepProgress p;
    p.done = 2;
    p.total = 4;
    p.label = "gzp/opt";
    const std::string bare = sim::formatProgressLine(p);
    EXPECT_EQ(bare.find("queue_depth="), std::string::npos) << bare;
    EXPECT_EQ(bare.find("sessions="), std::string::npos) << bare;

    p.queueDepth = 3;
    p.sessions = 2;
    const std::string line = sim::formatProgressLine(p);
    sim::SweepProgress q;
    ASSERT_TRUE(sim::parseProgressLine(line, &q)) << line;
    EXPECT_EQ(q.queueDepth, 3u);
    EXPECT_EQ(q.sessions, 2u);
    EXPECT_EQ(q.label, "gzp/opt");

    // A v1 parser that predates the keys sees them as unknown
    // key=value tokens — and unknown keys are skipped, so the new
    // wire form stays parseable (regression: forward compatibility).
    ASSERT_TRUE(sim::parseProgressLine(
        "CONOPT-PROGRESS v1 done=2 total=4 queue_depth=3 sessions=2 "
        "brand_new_key=7 label=gzp/opt",
        &q));
    EXPECT_EQ(q.queueDepth, 3u);
    EXPECT_EQ(q.label, "gzp/opt");
}

TEST(ProgressLine, RejectsMalformedLines)
{
    sim::SweepProgress q;
    for (const char *bad : {
             "",
             "CONOPT-PROGRESS",
             "CONOPT-PROGRESS v1",
             "CONOPT-PROGRESS v2 done=1 total=2 label=x", // wrong version
             "CONOPT-PROGRESS v1 done=x total=2 label=x", // bad number
             "CONOPT-PROGRESS v1 done=1 total=2",         // no label
             "CONOPT-PROGRESS v1 done=1 label=x",         // no total
             "CONOPT-PROGRESS v1 total=2 label=x",        // no done
             "CONOPT-PROGRESS v1 done=1 total=2 eta_s=nope label=x",
             "[sweep]   9/44  gzp/base  12.31s", // the human line
         })
        EXPECT_FALSE(sim::parseProgressLine(bad, &q)) << bad;

    // Unknown keys are skipped (forward compatibility within v1).
    EXPECT_TRUE(sim::parseProgressLine(
        "CONOPT-PROGRESS v1 done=1 total=2 newfield=zzz label=x", &q));
    EXPECT_EQ(q.label, "x");
}

// ---------------------------------------------------------------------------
// Connect-mode scheduling: healthz parsing and the least-loaded pick.
// The probe is injected as a lambda, so these cover the policy without
// any sockets or daemons.
// ---------------------------------------------------------------------------

TEST(ConnectScheduling, ParsesQueueDepthFromHealthzJson)
{
    uint64_t d = 77;
    // A realistic conopt_served healthz body.
    EXPECT_TRUE(sim::parseHealthzQueueDepth(
        "{\"ok\":true,\"uptime_s\":12.5,\"requests\":4,"
        "\"queue_depth\":3,\"benches\":[\"table1\"]}",
        &d));
    EXPECT_EQ(d, 3u);
    // Whitespace after the colon and a large depth.
    EXPECT_TRUE(sim::parseHealthzQueueDepth(
        "{\"queue_depth\":   18446744073709551615}", &d));
    EXPECT_EQ(d, UINT64_MAX);
    // Missing key, or a key with garbage where digits belong: d is
    // left alone.
    d = 77;
    EXPECT_FALSE(sim::parseHealthzQueueDepth("{\"ok\":true}", &d));
    EXPECT_FALSE(
        sim::parseHealthzQueueDepth("{\"queue_depth\":\"busy\"}", &d));
    EXPECT_FALSE(sim::parseHealthzQueueDepth("", &d));
    EXPECT_EQ(d, 77u);
}

TEST(ConnectScheduling, PicksStrictlySmallestQueueDepth)
{
    const std::vector<std::string> eps{"a:1", "b:1", "c:1"};
    size_t probes = 0;
    const sim::HealthzProbeFn probe = [&](const std::string &ep,
                                          uint64_t *depth) {
        ++probes;
        *depth = ep == "a:1" ? 5 : ep == "b:1" ? 1 : 3;
        return true;
    };
    // Least-loaded wins from any rotation; every endpoint is probed
    // exactly once per pick.
    for (size_t rot = 0; rot < 6; ++rot) {
        probes = 0;
        EXPECT_EQ(sim::pickConnectEndpoint(eps, rot, probe), 1u)
            << "rotation " << rot;
        EXPECT_EQ(probes, eps.size());
    }
}

TEST(ConnectScheduling, RotationBreaksTiesLikeBlindRoundRobin)
{
    const std::vector<std::string> eps{"a:1", "b:1", "c:1"};
    const sim::HealthzProbeFn flat = [](const std::string &,
                                        uint64_t *depth) {
        *depth = 2;
        return true;
    };
    // An evenly loaded fleet reproduces the historical rotating
    // round-robin schedule exactly.
    for (size_t rot = 0; rot < 7; ++rot)
        EXPECT_EQ(sim::pickConnectEndpoint(eps, rot, flat), rot % 3)
            << "rotation " << rot;
}

TEST(ConnectScheduling, FailedProbesCountAsInfinitelyBusy)
{
    const std::vector<std::string> eps{"dead:1", "busy:1", "idle:1"};
    const sim::HealthzProbeFn probe = [](const std::string &ep,
                                         uint64_t *depth) {
        if (ep == "dead:1")
            return false;
        *depth = ep == "busy:1" ? 9 : 0;
        return true;
    };
    // The dead daemon never wins, even when rotation starts on it.
    EXPECT_EQ(sim::pickConnectEndpoint(eps, 0, probe), 2u);
    // And a reachable-but-busy daemon still beats an unreachable one.
    const std::vector<std::string> two{"dead:1", "busy:1"};
    EXPECT_EQ(sim::pickConnectEndpoint(two, 0, probe), 1u);
}

TEST(ConnectScheduling, AllProbesFailingFallsBackToRotationSlot)
{
    const std::vector<std::string> eps{"a:1", "b:1", "c:1"};
    const sim::HealthzProbeFn dead = [](const std::string &, uint64_t *) {
        return false;
    };
    // Nothing answered: behave exactly like the blind rotation so the
    // subsequent attempt surfaces the real connection error.
    for (size_t rot = 0; rot < 5; ++rot)
        EXPECT_EQ(sim::pickConnectEndpoint(eps, rot, dead), rot % 3)
            << "rotation " << rot;
}

// ---------------------------------------------------------------------------
// Launcher templates and shard command composition.
// ---------------------------------------------------------------------------

TEST(LauncherTemplate, SubstitutesPlaceholders)
{
    sim::LauncherVars vars{"1", "4", "'./bench' '--shard' '1/4'", "hostA"};
    std::string out, err;
    ASSERT_TRUE(
        sim::expandLauncher("srun -n1 {cmd}", vars, &out, &err))
        << err;
    EXPECT_EQ(out, "srun -n1 './bench' '--shard' '1/4'");

    ASSERT_TRUE(sim::expandLauncher("wrap {i}/{n} on {host}", vars, &out,
                                    &err))
        << err;
    // No {cmd} in the template: the bench command is appended.
    EXPECT_EQ(out, "wrap 1/4 on hostA './bench' '--shard' '1/4'");
}

TEST(LauncherTemplate, RejectsMalformedTemplates)
{
    sim::LauncherVars vars{"0", "2", "cmd", ""};
    std::string out, err;
    EXPECT_FALSE(sim::expandLauncher("echo {oops} {cmd}", vars, &out,
                                     &err));
    EXPECT_NE(err.find("unknown placeholder"), std::string::npos) << err;
    EXPECT_FALSE(sim::expandLauncher("echo {cmd", vars, &out, &err));
    EXPECT_NE(err.find("unclosed"), std::string::npos) << err;
    EXPECT_FALSE(sim::expandLauncher("{host} {cmd}", vars, &out, &err));
    EXPECT_NE(err.find("{host}"), std::string::npos) << err;
}

TEST(ShellQuote, QuotesHostileStrings)
{
    EXPECT_EQ(sim::shellQuote("plain"), "'plain'");
    EXPECT_EQ(sim::shellQuote("a b"), "'a b'");
    EXPECT_EQ(sim::shellQuote("it's"), "'it'\\''s'");
}

TEST(ShardArtifactName, MatchesHarnessConvention)
{
    EXPECT_EQ(sim::shardArtifactName("fig6_speedup", 1, 2),
              "BENCH_fig6_speedup.shard1of2.json");
    // An unsharded "fleet of one" writes the plain artifact name.
    EXPECT_EQ(sim::shardArtifactName("fig6_speedup", 0, 1),
              "BENCH_fig6_speedup.json");
}

TEST(BuildShardArgv, LocalDirectExec)
{
    sim::DriverOptions o;
    o.benchPath = "/bin/bench_bin";
    o.benchName = "bench_bin";
    o.shards = 2;
    o.run.artifactDir = "out";
    o.run.resultCacheDir = "rc";
    std::string err;
    const auto argv = sim::buildShardArgv(o, 1, &err);
    const std::vector<std::string> want = {
        "/bin/bench_bin", "--shard", "1/2", "--wire", "--result-cache",
        "rc"};
    EXPECT_EQ(argv, want);
}

TEST(BuildShardArgv, LauncherWrapsThroughShell)
{
    sim::DriverOptions o;
    o.benchPath = "./bench";
    o.benchName = "bench";
    o.shards = 2;
    o.launcher = "nice -n 19 {cmd}";
    std::string err;
    const auto argv = sim::buildShardArgv(o, 0, &err);
    ASSERT_EQ(argv.size(), 3u);
    EXPECT_EQ(argv[0], "/bin/sh");
    EXPECT_EQ(argv[1], "-c");
    EXPECT_EQ(argv[2].rfind("nice -n 19 './bench'", 0), 0u) << argv[2];
}

TEST(BuildShardArgv, SshRoundRobinsHostsOverTheWire)
{
    sim::DriverOptions o;
    o.benchPath = "./bench";
    o.benchName = "bench";
    o.shards = 4;
    o.sshHosts = {"h1", "h2"};
    std::string err;
    const auto a3 = sim::buildShardArgv(o, 3, &err);
    ASSERT_EQ(a3.size(), 4u);
    EXPECT_EQ(a3[0], "ssh");
    EXPECT_EQ(a3[2], "h2"); // shard 3 of hosts {h1, h2}
    EXPECT_EQ(a3[3].rfind("cd ", 0), 0u) << a3[3];
    EXPECT_NE(a3[3].find("--shard' '3/4'"), std::string::npos) << a3[3];
    // The remote shard's frames come back over ssh's stdout.
    EXPECT_NE(a3[3].find("'--wire'"), std::string::npos) << a3[3];
}

TEST(BuildShardArgv, LauncherWithSshHostsRotatesHostPlaceholder)
{
    // The documented remote-timeout recipe: the template takes over
    // the wrapping, --ssh supplies the {host} rotation.
    sim::DriverOptions o;
    o.benchPath = "./bench";
    o.benchName = "bench";
    o.shards = 4;
    o.launcher = "ssh {host} timeout 3600 {cmd}";
    o.sshHosts = {"h1", "h2"};
    std::string err;
    const auto a0 = sim::buildShardArgv(o, 0, &err);
    const auto a3 = sim::buildShardArgv(o, 3, &err);
    ASSERT_EQ(a0.size(), 3u) << err;
    EXPECT_EQ(a0[0], "/bin/sh");
    EXPECT_EQ(a0[2].rfind("ssh h1 timeout 3600 ", 0), 0u) << a0[2];
    EXPECT_EQ(a3[2].rfind("ssh h2 timeout 3600 ", 0), 0u) << a3[2];
    EXPECT_NE(a3[2].find("'--wire'"), std::string::npos) << a3[2];
}

// ---------------------------------------------------------------------------
// CLI parsing.
// ---------------------------------------------------------------------------

TEST(ParseDriverArgs, AcceptsAFullyLoadedCommandLine)
{
    sim::DriverOptions o;
    std::string err;
    ASSERT_TRUE(sim::parseDriverArgs(
        {"--shards", "4", "--baseline", "bench/baselines",
         "--result-cache", "rc", "--recompute-geomeans", "base",
         "--timeout", "2.5", "--retries", "0", "--artifact-dir", "out",
         "--tolerance", "0.01", "fig6_speedup", "--", "--progress"},
        &o, &err))
        << err;
    EXPECT_EQ(o.shards, 4u);
    EXPECT_EQ(o.benchPath, "fig6_speedup");
    EXPECT_EQ(o.benchName, "fig6_speedup");
    EXPECT_EQ(o.run.baselinePath, "bench/baselines");
    EXPECT_EQ(o.run.resultCacheDir, "rc");
    EXPECT_EQ(o.geomeanBase, "base");
    EXPECT_DOUBLE_EQ(o.timeoutSeconds, 2.5);
    EXPECT_EQ(o.retries, 0u);
    EXPECT_DOUBLE_EQ(o.run.tolerance, 0.01);
    EXPECT_EQ(o.run.artifactDir, "out");
    EXPECT_EQ(o.benchArgs, std::vector<std::string>{"--progress"});

    // A path-y bench derives its name from the basename.
    ASSERT_TRUE(sim::parseDriverArgs({"build/table1_workloads"}, &o,
                                     &err))
        << err;
    EXPECT_EQ(o.benchName, "table1_workloads");

    // The remote-timeout recipe: a launcher template composes with
    // --ssh, which supplies the {host} rotation.
    ASSERT_TRUE(sim::parseDriverArgs({"--launcher",
                                      "ssh {host} timeout 60 {cmd}",
                                      "--ssh", "h1,h2", "b"},
                                     &o, &err))
        << err;
    EXPECT_EQ(o.sshHosts.size(), 2u);

    // --connect: a comma-separated endpoint rotation; the bench is a
    // registered name, not a spawned path.
    ASSERT_TRUE(sim::parseDriverArgs(
        {"--connect", "hostA:7070,unix:/run/conopt.sock",
         "table1_workloads"},
        &o, &err))
        << err;
    ASSERT_EQ(o.connectHosts.size(), 2u);
    EXPECT_EQ(o.connectHosts[0], "hostA:7070");
    EXPECT_EQ(o.connectHosts[1], "unix:/run/conopt.sock");
    EXPECT_EQ(o.benchName, "table1_workloads");
}

TEST(ParseDriverArgs, RejectsMalformedInput)
{
    sim::DriverOptions o;
    std::string err;
    const std::vector<std::vector<std::string>> bad = {
        {},                                    // missing bench
        {"--shards", "0", "b"},                // zero shards
        {"--shards", "2x", "b"},               // trailing garbage
        {"--shards", "-1", "b"},               // negative
        {"--shards", "b"},                     // missing value... "b" eaten
        {"--retries", "-2", "b"},              // negative retries
        {"--retries", "abc", "b"},             // garbage retries
        {"--timeout", "abc", "b"},             // garbage timeout
        {"--timeout", "-1", "b"},              // negative timeout
        {"--tolerance", "x", "b"},             // garbage tolerance
        {"--recompute-geomeans", "", "b"},     // empty base config
        {"--bench-name", "a/b", "b"},          // separator in name
        {"--launcher", "", "b"},               // empty template
        {"--launcher", "echo {oops}", "b"},    // unknown placeholder
        {"--launcher", "echo {i", "b"},        // unclosed brace
        {"--launcher", "{host} {cmd}", "b"},   // {host} without --ssh
        {"--ssh", "a,,b", "b"},                // empty host
        {"--ssh", "", "b"},                    // empty host list
        // --ssh with a template that never uses {host}: every shard
        // would silently run locally.
        {"--ssh", "h1,h2", "--launcher", "nice {cmd}", "b"},
        {"--connect", "", "b"},                // empty endpoint list
        {"--connect", "a:1,,b:2", "b"},        // empty endpoint
        // --connect drives a standing fleet; spawning flags make no
        // sense alongside it.
        {"--connect", "a:1", "--launcher", "nice {cmd}", "b"},
        {"--connect", "a:1", "--ssh", "h1", "b"},
        {"--bogus", "b"},                      // unknown flag
        {"bench1", "bench2"},                  // two positionals
        {"b", "--", "--wire"},                 // the driver's channel
    };
    for (const auto &args : bad) {
        EXPECT_FALSE(sim::parseDriverArgs(args, &o, &err))
            << "accepted:" << ::testing::PrintToString(args);
        EXPECT_FALSE(err.empty());
    }
}

// ---------------------------------------------------------------------------
// End-to-end: spawn, stream, merge, gate.
// ---------------------------------------------------------------------------

TEST(SweepDriverRun, MergedArtifactByteIdenticalToUnshardedRun)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 2);
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_TRUE(s.ok) << "shard " << s.index;
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_FALSE(s.timedOut);
        // 3 jobs per shard, one CONOPT-PROGRESS line per job.
        EXPECT_EQ(s.progressLines, 3u) << "shard " << s.index;
    }
    ASSERT_FALSE(out.mergedArtifactPath.empty());

    const std::string mergedJson = readFile(out.mergedArtifactPath);
    ASSERT_FALSE(mergedJson.empty());
    EXPECT_EQ(mergedJson, referenceArtifact().toJson());
}

TEST(SweepDriverRun, SingleShardRunStillMergesAndWritesArtifact)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 1);
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, GatesMergedArtifactAgainstBaseline)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto baseline = referenceArtifact();
    std::string err;
    ASSERT_TRUE(baseline.save(tmp.file("baseline.json"), &err)) << err;

    auto o = childDriverOptions(tmp, 2);
    o.run.artifactDir = (tmp.path / "run_ok").string();
    o.geomeanBase = "base";
    o.run.baselinePath = tmp.file("baseline.json");
    EXPECT_EQ(sim::runSweepDriver(o).exitCode, 0);

    // Any cycle perturbation in the baseline must gate as drift (1),
    // with the offending label reported.
    baseline.jobs[0].cycles += 1;
    ASSERT_TRUE(baseline.save(tmp.file("drift.json"), &err)) << err;
    auto o2 = childDriverOptions(tmp, 2);
    o2.run.artifactDir = (tmp.path / "run_drift").string();
    o2.geomeanBase = "base";
    o2.run.baselinePath = tmp.file("drift.json");
    const auto drift = sim::runSweepDriver(o2);
    EXPECT_EQ(drift.exitCode, 1);
    EXPECT_FALSE(drift.gateDiffs.empty());
}

TEST(SweepDriverRun, CrashedShardFailsHardWithStderrSurfaced)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "crash");

    auto o = childDriverOptions(tmp, 2);
    o.retries = 1;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("failed"), std::string::npos) << out.error;
    EXPECT_TRUE(out.mergedArtifactPath.empty())
        << "a failed fleet must not merge";
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.exitStatus, 3);
        // The retry budget was spent before giving up.
        EXPECT_EQ(s.attempts, 2u);
        EXPECT_NE(s.outputTail.find("boom: injected shard crash"),
                  std::string::npos)
            << s.outputTail;
    }
}

TEST(SweepDriverRun, KilledShardMakesDriverExitNonzero)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "kill");

    auto o = childDriverOptions(tmp, 2);
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_EQ(s.exitStatus, -SIGKILL);
    }
}

TEST(SweepDriverRun, HungShardIsKilledAtTheTimeout)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "hang");

    auto o = childDriverOptions(tmp, 1);
    o.retries = 0;
    o.timeoutSeconds = 0.5;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_FALSE(out.shards[0].ok);
    EXPECT_TRUE(out.shards[0].timedOut);
    EXPECT_EQ(out.shards[0].exitStatus, -SIGKILL);
}

TEST(SweepDriverRun, LingeringChildHoldingPipesDoesNotHangTheFleet)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "linger");

    auto o = childDriverOptions(tmp, 1);
    o.geomeanBase = "base";
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = sim::runSweepDriver(o);
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    ASSERT_EQ(out.exitCode, 0) << out.error;
    // The straggler sleeps kLingerDeciseconds holding the pipe write
    // ends; the driver must finalize on the shard's own exit plus the
    // short drain grace instead.
    EXPECT_LT(took, kFinalizeBoundSeconds);
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, RetryRecoversATransientShardFailure)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "flaky");
    EnvGuard marker("CONOPT_DRIVER_TEST_MARKER", tmp.path.string());

    auto o = childDriverOptions(tmp, 2);
    o.retries = 1;
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    for (const auto &s : out.shards) {
        EXPECT_TRUE(s.ok) << "shard " << s.index;
        EXPECT_EQ(s.attempts, 2u) << "shard " << s.index;
    }
    // The recovered run's merge is still exactly the unsharded run.
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, TransientFailureWithoutRetryBudgetStaysFatal)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "flaky");
    EnvGuard marker("CONOPT_DRIVER_TEST_MARKER", tmp.path.string());

    auto o = childDriverOptions(tmp, 2);
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_NE(s.outputTail.find("transient failure"),
                  std::string::npos);
    }
}

namespace {

/** Run a 2-shard fleet of child @p mode with one retry and check it
 *  failed hard: every attempt spent, @p stderrLine surfaced, nothing
 *  merged, and no shard artifact written. */
void
expectBrokenStreamFails(const char *mode, const char *stderrLine)
{
    TempDir tmp;
    EnvGuard child("CONOPT_DRIVER_TEST_CHILD", mode);

    auto o = childDriverOptions(tmp, 2);
    o.retries = 1;
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("failed"), std::string::npos) << out.error;
    EXPECT_TRUE(out.mergedArtifactPath.empty());
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.attempts, 2u);
        EXPECT_NE(s.outputTail.find(stderrLine), std::string::npos)
            << s.outputTail;
    }
    EXPECT_FALSE(fs::exists(tmp.path / "BENCH_test_sweep_driver.json"));
    EXPECT_TRUE(fs::is_empty(tmp.path / "test_sweep_driver.shards"));
}

} // namespace

TEST(SweepDriverRun, NonFrameBytesOnTheWireAreAHardError)
{
    expectBrokenStreamFails("garbage", "garbage: writing non-frame bytes");
}

TEST(SweepDriverRun, ShardThatExitsZeroWithoutAResultIsAHardError)
{
    // A shard that exits 0 but returns no artifact: the classic
    // silently-thinner-merge hazard the driver must catch.
    expectBrokenStreamFails("noresult", "noresult: exiting 0");
}

TEST(SweepDriverRun, ShardThatFailsAfterItsResultIsAHardError)
{
    expectBrokenStreamFails("resultthenfail",
                            "resultthenfail: result sent, exiting 3");
}

TEST(SweepDriverRun, FigureGateWithoutAGeomeanBaseIsAUsageError)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    const auto baseline = referenceArtifact();
    ASSERT_FALSE(baseline.geomeans.empty());
    std::string err;
    ASSERT_TRUE(baseline.save(tmp.file("baseline.json"), &err)) << err;

    // Shards defer the geomeans; without --recompute-geomeans the gate
    // must not report them all as drift.
    auto o = childDriverOptions(tmp, 2);
    o.run.baselinePath = tmp.file("baseline.json");
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("--recompute-geomeans <base>"),
              std::string::npos)
        << out.error;
    EXPECT_TRUE(out.gateDiffs.empty());
}

TEST(SweepDriverRun, ShardsInAnotherDirectoryNeedNoSharedFilesystem)
{
    // The ssh path without ssh: every shard runs from a directory the
    // driver never reads, and the driver's --artifact-dir is relative.
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");
    const fs::path elsewhere = tmp.path / "elsewhere";
    fs::create_directories(elsewhere);
    CwdGuard cwd(tmp.path);

    auto o = childDriverOptions(tmp, 2);
    o.run.artifactDir = "out";
    o.launcher = "cd " + sim::shellQuote(elsewhere.string()) + " && {cmd}";
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    EXPECT_EQ(readFile((tmp.path / "out" / "BENCH_test_sweep_driver.json")
                           .string()),
              referenceArtifact().toJson());
    EXPECT_TRUE(fs::is_empty(elsewhere)) << "shards write no files";
}

TEST(SweepDriverRun, BenchFlagErrorSurfacesInCapturedOutput)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 2);
    o.benchArgs = {"--definitely-bogus-flag"};
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].exitStatus, 2);
    EXPECT_NE(out.shards[0].outputTail.find("unknown argument"),
              std::string::npos)
        << out.shards[0].outputTail;
}

TEST(SweepDriverRun, MissingBenchBinaryFailsBeforeSpawning)
{
    TempDir tmp;
    sim::DriverOptions o;
    o.benchPath = tmp.file("no_such_bench");
    o.benchName = "no_such_bench";
    o.shards = 2;
    o.run.artifactDir = tmp.path.string();
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("not found"), std::string::npos)
        << out.error;
    EXPECT_TRUE(out.shards.empty());
}

TEST(SweepDriverRun, LauncherTemplateDrivesShardsEndToEnd)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    // A real wrapper template (sh -c path): env-prefix the command.
    auto o = childDriverOptions(tmp, 2);
    o.launcher = "CONOPT_THREADS=1 {cmd}";
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    // Results are scheduling-independent, but the artifact records the
    // CONOPT_THREADS the shard saw — proof the template took effect.
    sim::BenchArtifact merged;
    std::string err;
    ASSERT_TRUE(sim::loadArtifact(out.mergedArtifactPath, &merged, &err))
        << err;
    EXPECT_EQ(merged.threads, 1u);
    EXPECT_EQ(merged.jobs.size(), 6u);
}
