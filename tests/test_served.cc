/**
 * @file
 * Standing-fleet tests: the framed line-JSON protocol, the in-process
 * SweepService, and the `conopt_sweep --connect` client path.
 *
 * The load-bearing properties:
 *   - the frame codec and every server envelope round-trip exactly,
 *     and malformed streams are rejected (never silently resynced);
 *   - a daemon-served run returns the exact BenchArtifact::toJson()
 *     bytes, so the --connect driver path produces a merged artifact
 *     byte-identical to the ephemeral-shard path at tolerance 0;
 *   - the warm path is warm: repeat requests construct no new
 *     SimSessions and reach a steady state where a run performs the
 *     same number of heap allocations as the previous identical run;
 *   - concurrent clients are all served; healthz counts them; a
 *     connection past the live-connection cap gets a code-2 error
 *     frame and is closed;
 *   - a real daemon process drains gracefully on SIGTERM: the
 *     in-flight request still gets its result frame and the process
 *     exits 0.
 *
 * The test binary doubles as the processes it needs: with
 * CONOPT_SERVED_TEST_CHILD=bench it acts as the bench binary the
 * ephemeral driver spawns (registry table1 through the harness), and
 * with CONOPT_SERVED_TEST_CHILD=daemon it becomes a real conopt_served
 * daemon via servedMain(), so SIGTERM drain is tested against an
 * actual process.
 */

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/baseline.hh"
#include "src/sim/bench_registry.hh"
#include "src/sim/driver.hh"
#include "src/sim/harness.hh"
#include "src/sim/request.hh"
#include "src/sim/service.hh"
#include "src/sim/session.hh"

using namespace conopt;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Counting global allocator (for the warm-path steady-state test).
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_newCalls{0};
} // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair; it cannot see that the replaced operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

// Sanitizer instrumentation slows the simulated work several-fold, so
// every socket wait scales with the build flavour.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kFrameTimeoutSeconds = 300.0;
constexpr int kDaemonWaitDeciseconds = 600;
#else
constexpr double kFrameTimeoutSeconds = 120.0;
constexpr int kDaemonWaitDeciseconds = 300;
#endif

/** Scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("conopt_test_served_" +
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

/** setenv for the lifetime of a test (spawned children inherit it). */
struct EnvGuard
{
    std::string name;

    EnvGuard(const char *n, const std::string &v) : name(n)
    {
        ::setenv(n, v.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name.c_str()); }
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

/** A small fiddly-valued request that exercises every schema field. */
sim::SweepRequest
fiddlyRequest()
{
    sim::SweepRequest req;
    req.bench = "fig6_speedup";
    req.priority = 7;
    req.run.shard = {2, 5};
    req.run.scale = 3;
    req.run.threads = 2;
    req.run.ipcSampleInterval = 12345;
    req.run.perf = true;
    req.run.emitArtifact = true;
    req.run.tolerance = 0.1; // not exactly representable: %.17g matters
    return req;
}

/** A table1 request the service can finish quickly. */
sim::SweepRequest
table1Request()
{
    sim::SweepRequest req;
    req.bench = "table1_workloads";
    req.run.scale = 1;
    return req;
}

/** Drives a started service's accept loop from a background thread —
 *  the role conopt_served's main loop plays for the real daemon. The
 *  tests call svc.shutdown() while the pump still runs, deliberately:
 *  that pins the cross-thread shutdown-vs-pollOnce contract. */
struct ServicePump
{
    sim::SweepService &svc;
    std::atomic<bool> stopFlag{false};
    std::thread thread;

    explicit ServicePump(sim::SweepService &s)
        : svc(s), thread([this] {
              while (!stopFlag.load(std::memory_order_relaxed))
                  svc.pollOnce(20);
          })
    {
    }
    ~ServicePump()
    {
        stopFlag.store(true, std::memory_order_relaxed);
        thread.join();
    }
};

/** What one served run produced, transport-level. */
struct WireRun
{
    bool ok = false;
    std::string artifact;
    int errCode = 0;
    std::string errMessage;
    std::vector<std::string> progress;
};

/** Connect to @p addr, send @p req, and collect frames until the
 *  terminal result/error envelope. */
WireRun
runOverSocket(const std::string &addr, const sim::SweepRequest &req)
{
    WireRun out;
    std::string err;
    const int fd = sim::connectToService(addr, &err);
    if (fd < 0) {
        out.errMessage = err;
        return out;
    }
    if (!sim::writeFrame(fd, sim::makeRunFrame(req), &err)) {
        out.errMessage = err;
        ::close(fd);
        return out;
    }
    sim::FrameReader rd;
    for (;;) {
        std::string payload;
        if (!sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds,
                            &err)) {
            out.errMessage = "transport: " + err;
            break;
        }
        sim::ServerFrame f;
        if (!sim::parseServerFrame(payload, &f, &err)) {
            out.errMessage = "bad server frame: " + err;
            break;
        }
        if (f.type == sim::ServerFrame::Type::Progress) {
            out.progress.push_back(f.line);
            continue;
        }
        if (f.type == sim::ServerFrame::Type::Result) {
            out.ok = true;
            out.artifact = f.artifact;
        } else {
            out.errCode = f.code;
            out.errMessage = f.message;
        }
        break;
    }
    ::close(fd);
    return out;
}

/** Child-mode entry: the bench binary the ephemeral driver spawns.
 *  Runs the registry's table1 build through the shared harness, so
 *  its shard artifacts are the ones conopt_served would serve. */
int
servedBenchChild(int argc, char **argv)
{
    const sim::HarnessOptions hopts = sim::HarnessOptions::parse(argc, argv);
    const sim::BenchDef *def = sim::findBench("table1_workloads");
    sim::BenchArtifact art;
    std::string err;
    if (!def->build(hopts.run, sim::BenchContext{}, &art, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    return sim::harnessFinish("table1_workloads", std::move(art), hopts);
}

/** Child-mode entry: a real conopt_served daemon. */
int
servedDaemonChild()
{
    const char *pf = std::getenv("CONOPT_SERVED_TEST_PORTFILE");
    return sim::servedMain({"--listen", "127.0.0.1:0", "--port-file",
                            pf ? pf : "served.port", "--workers", "1"});
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *mode = std::getenv("CONOPT_SERVED_TEST_CHILD")) {
        if (std::strcmp(mode, "daemon") == 0)
            return servedDaemonChild();
        return servedBenchChild(argc, argv);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsFramesFedByteByByte)
{
    const std::vector<std::string> payloads = {
        "{}", "", std::string("x\ny\0z", 5), "{\"type\":\"healthz\"}"};
    std::string wire;
    for (const auto &p : payloads)
        wire += sim::encodeFrame(p);

    sim::FrameReader rd;
    std::vector<std::string> got;
    std::string payload, err;
    for (char c : wire) {
        rd.feed(&c, 1);
        int r;
        while ((r = rd.next(&payload, &err)) == 1)
            got.push_back(payload);
        ASSERT_EQ(r, 0) << err;
    }
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(rd.pending(), 0u) << "no residue after the last frame";
}

TEST(FrameCodec, WaitsForMorePayloadBytes)
{
    sim::FrameReader rd;
    std::string payload, err;
    rd.feed("5 abc", 5);
    EXPECT_EQ(rd.next(&payload, &err), 0) << "frame is incomplete";
    rd.feed("de\n", 3);
    ASSERT_EQ(rd.next(&payload, &err), 1) << err;
    EXPECT_EQ(payload, "abcde");
}

TEST(FrameCodec, RejectsMalformedStreams)
{
    const struct
    {
        const char *name;
        std::string wire;
    } cases[] = {
        {"non-numeric length", "xyz {}\n"},
        {"negative length", "-3 {}\n"},
        {"oversized length", "999999999999 x\n"},
        {"over frame cap",
         std::to_string(sim::kMaxFrameBytes + 1) + " x\n"},
        {"missing terminator", "3 abcX"},
        {"no header space", "0123456789012345678901234"},
    };
    for (const auto &c : cases) {
        sim::FrameReader rd;
        rd.feed(c.wire.data(), c.wire.size());
        std::string payload, err;
        EXPECT_EQ(rd.next(&payload, &err), -1) << c.name;
        EXPECT_FALSE(err.empty()) << c.name;
    }
}

// ---------------------------------------------------------------------------
// Envelopes.
// ---------------------------------------------------------------------------

TEST(Envelopes, ServerFramesRoundTrip)
{
    sim::ServerFrame f;
    std::string err;

    ASSERT_TRUE(sim::parseServerFrame(
        sim::makeProgressFrame("CONOPT-PROGRESS v1 done=1"), &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Progress);
    EXPECT_EQ(f.line, "CONOPT-PROGRESS v1 done=1");

    ASSERT_TRUE(sim::parseServerFrame(
        sim::makeResultFrame("{\"jobs\":[]}\n"), &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Result);
    EXPECT_EQ(f.artifact, "{\"jobs\":[]}\n") << "artifact bytes verbatim";

    ASSERT_TRUE(sim::parseServerFrame(sim::makeErrorFrame(1, "bench died"),
                                      &f, &err))
        << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Error);
    EXPECT_EQ(f.code, 1) << "code 1 = bench ran and failed";
    EXPECT_EQ(f.message, "bench died");

    ASSERT_TRUE(sim::parseServerFrame(sim::makeErrorFrame(2, "queue full"),
                                      &f, &err))
        << err;
    EXPECT_EQ(f.code, 2) << "code 2 = request never ran";
}

TEST(Envelopes, RejectsMalformedServerFrames)
{
    const char *cases[] = {
        "not json at all",
        "[1,2,3]",
        "{\"type\":\"launch-missiles\"}",
        "{\"line\":\"orphan\"}",
        "{\"type\":\"progress\"}",         // no line
        "{\"type\":\"result\"}",           // no artifact
        "{\"type\":\"error\",\"code\":1}", // no message
    };
    for (const char *c : cases) {
        sim::ServerFrame f;
        std::string err;
        EXPECT_FALSE(sim::parseServerFrame(c, &f, &err)) << c;
        EXPECT_FALSE(err.empty()) << c;
    }
}

TEST(Envelopes, RunFrameCarriesTheRequestLosslessly)
{
    const sim::SweepRequest req = fiddlyRequest();
    const std::string wire = sim::encodeFrame(sim::makeRunFrame(req));

    sim::FrameReader rd;
    rd.feed(wire.data(), wire.size());
    std::string payload, err;
    ASSERT_EQ(rd.next(&payload, &err), 1) << err;

    sim::JsonValue doc;
    ASSERT_TRUE(sim::JsonValue::parse(payload, &doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.get("request"), nullptr);

    sim::SweepRequest back;
    ASSERT_TRUE(sim::SweepRequest::decodeValue(*doc.get("request"), &back,
                                               &err))
        << err;
    EXPECT_EQ(back.encodeJson(), req.encodeJson());
    EXPECT_EQ(back.fingerprint(), req.fingerprint());
    EXPECT_EQ(back.priority, 7u);
    EXPECT_EQ(back.run.shard.index, 2u);
    EXPECT_EQ(back.run.shard.count, 5u);
    EXPECT_DOUBLE_EQ(back.run.tolerance, 0.1);
}

// ---------------------------------------------------------------------------
// The service, in-process.
// ---------------------------------------------------------------------------

TEST(Service, ServesVerbatimArtifactBytesOverUnixSocket)
{
    TempDir tmp;
    sim::ServiceOptions sopts;
    sopts.listenAddr = "unix:" + tmp.file("served.sock");
    sim::SweepService svc(sopts);
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    EXPECT_EQ(svc.addr(), sopts.listenAddr);
    ServicePump pump(svc);

    const sim::SweepRequest req = table1Request();
    const WireRun run = runOverSocket(svc.addr(), req);
    ASSERT_TRUE(run.ok) << run.errMessage;

    // The served bytes are exactly what an in-process execution of the
    // same request serializes to: the byte-identity contract the
    // --connect merge path is built on.
    sim::BenchArtifact art;
    ASSERT_TRUE(
        sim::executeSweepRequest(req, sim::BenchContext{}, &art, &err))
        << err;
    EXPECT_EQ(run.artifact, art.toJson());
    EXPECT_FALSE(run.progress.empty())
        << "per-job progress frames stream during the run";

    const sim::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.requestsServed, 1u);
    EXPECT_EQ(stats.requestsFailed, 0u);
    EXPECT_EQ(stats.latencyCount, 1u);
    svc.shutdown();
}

TEST(Service, RejectsBadRequestsWithNeverRanCode)
{
    sim::SweepService svc;
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    ServicePump pump(svc);

    // Unknown bench: rejected before enqueue, exit-contract code 2.
    sim::SweepRequest unknown;
    unknown.bench = "table9_workloads";
    WireRun run = runOverSocket(svc.addr(), unknown);
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.errCode, 2);
    EXPECT_NE(run.errMessage.find("unknown bench"), std::string::npos)
        << run.errMessage;
    EXPECT_NE(run.errMessage.find("table1_workloads"), std::string::npos)
        << "the rejection lists the registered benches";

    // A syntactically-valid frame whose payload is not JSON.
    {
        const int fd = sim::connectToService(svc.addr(), &err);
        ASSERT_GE(fd, 0) << err;
        ASSERT_TRUE(sim::writeFrame(fd, "this is not json", &err)) << err;
        sim::FrameReader rd;
        std::string payload;
        ASSERT_TRUE(sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds,
                                   &err))
            << err;
        sim::ServerFrame f;
        ASSERT_TRUE(sim::parseServerFrame(payload, &f, &err)) << err;
        EXPECT_EQ(f.type, sim::ServerFrame::Type::Error);
        EXPECT_EQ(f.code, 2);
        ::close(fd);
    }

    // A malformed byte stream (no frame header at all): the reader
    // answers with an error frame and drops the connection.
    {
        const int fd = sim::connectToService(svc.addr(), &err);
        ASSERT_GE(fd, 0) << err;
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, MSG_NOSIGNAL), 0);
        sim::FrameReader rd;
        std::string payload;
        ASSERT_TRUE(sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds,
                                   &err))
            << err;
        sim::ServerFrame f;
        ASSERT_TRUE(sim::parseServerFrame(payload, &f, &err)) << err;
        EXPECT_EQ(f.type, sim::ServerFrame::Type::Error);
        EXPECT_EQ(f.code, 2);
        ::close(fd);
    }

    const sim::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.requestsServed, 0u);
    EXPECT_GE(stats.requestsRejected, 2u);
    svc.shutdown();
}

TEST(Service, HealthzReportsTheRequestStream)
{
    sim::SweepService svc;
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    ServicePump pump(svc);

    ASSERT_TRUE(runOverSocket(svc.addr(), table1Request()).ok);

    const int fd = sim::connectToService(svc.addr(), &err);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(sim::writeFrame(fd, sim::makeHealthzFrame(), &err)) << err;
    sim::FrameReader rd;
    std::string payload;
    ASSERT_TRUE(
        sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds, &err))
        << err;
    ::close(fd);

    sim::ServerFrame f;
    ASSERT_TRUE(sim::parseServerFrame(payload, &f, &err)) << err;
    ASSERT_EQ(f.type, sim::ServerFrame::Type::Healthz);

    sim::JsonValue doc;
    ASSERT_TRUE(sim::JsonValue::parse(f.body, &doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.get("type")->asString(), "healthz");
    for (const char *key :
         {"uptime_s", "draining", "workers", "queue_depth",
          "queue_capacity", "connections_accepted", "requests_served",
          "requests_failed", "requests_rejected", "sessions",
          "cache_hits", "cache_misses", "cache_stores", "programs_built",
          "latency_count", "latency_p50_s", "latency_p95_s",
          "latency_p99_s", "latency_max_s", "latency_sample_s"})
        EXPECT_NE(doc.get(key), nullptr) << "healthz field " << key;
    EXPECT_EQ(doc.get("requests_served")->asU64(), 1u);
    EXPECT_EQ(doc.get("latency_count")->asU64(), 1u);
    EXPECT_GT(doc.get("programs_built")->asU64(), 0u)
        << "the program cache stays warm across requests";
    EXPECT_EQ(doc.get("latency_sample_s")->size(), 1u)
        << "reservoir snapshot of the request stream";
    svc.shutdown();
}

namespace {

/** One healthz round-trip on @p fd, connected to @p addr: the reply
 *  frame, or an Error-typed one carrying the transport failure. */
sim::ServerFrame
healthzOnce(const std::string &addr, int fd)
{
    std::string err, payload;
    sim::ServerFrame f;
    sim::FrameReader rd;
    if (!sim::writeFrame(fd, sim::makeHealthzFrame(), &err) ||
        !sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds, &err) ||
        !sim::parseServerFrame(payload, &f, &err))
        f.message = addr + ": " + err;
    return f;
}

} // namespace

TEST(Service, ConnectionsPastTheCapGetAnErrorFrame)
{
    TempDir tmp;
    sim::ServiceOptions so;
    so.listenAddr = "unix:" + tmp.file("cap.sock");
    sim::SweepService svc(so);
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    ServicePump pump(svc);

    // Fill the cap with served connections (a healthz round-trip
    // proves each one was accepted and has its reader).
    std::vector<int> fds;
    for (size_t i = 0; i < sim::kMaxConnections; ++i) {
        const int fd = sim::connectToService(svc.addr(), &err);
        ASSERT_GE(fd, 0) << err;
        fds.push_back(fd);
        ASSERT_EQ(healthzOnce(svc.addr(), fd).type,
                  sim::ServerFrame::Type::Healthz)
            << "connection " << i;
    }

    // One more: told why, then dropped.
    const int over = sim::connectToService(svc.addr(), &err);
    ASSERT_GE(over, 0) << err;
    sim::FrameReader rd;
    std::string payload;
    ASSERT_TRUE(
        sim::readFrame(over, &rd, &payload, kFrameTimeoutSeconds, &err))
        << err;
    sim::ServerFrame f;
    ASSERT_TRUE(sim::parseServerFrame(payload, &f, &err)) << err;
    EXPECT_EQ(f.type, sim::ServerFrame::Type::Error);
    EXPECT_EQ(f.code, 2);
    EXPECT_NE(f.message.find("too many connections"), std::string::npos)
        << f.message;
    EXPECT_FALSE(
        sim::readFrame(over, &rd, &payload, kFrameTimeoutSeconds, &err));
    ::close(over);

    // Closed connections stop counting: healthz answers again once
    // their readers are reaped.
    for (int fd : fds)
        ::close(fd);
    bool answered = false;
    for (int i = 0; i < kDaemonWaitDeciseconds && !answered; ++i) {
        const int fd = sim::connectToService(svc.addr(), &err);
        ASSERT_GE(fd, 0) << err;
        answered = healthzOnce(svc.addr(), fd).type ==
                   sim::ServerFrame::Type::Healthz;
        ::close(fd);
        if (!answered)
            ::usleep(100000);
    }
    EXPECT_TRUE(answered);
    svc.shutdown();
}

TEST(Service, ConcurrentClientsAreAllServed)
{
    sim::SweepService svc(sim::ServiceOptions{"127.0.0.1:0", 2, 64, ""});
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    ServicePump pump(svc);

    constexpr unsigned kClients = 4;
    std::vector<WireRun> runs(kClients);
    std::vector<std::thread> clients;
    for (unsigned i = 0; i < kClients; ++i)
        clients.emplace_back([&svc, &runs, i] {
            sim::SweepRequest req = table1Request();
            req.run.shard = {i, kClients};
            req.priority = i; // exercise distinct priority levels
            runs[i] = runOverSocket(svc.addr(), req);
        });
    for (auto &t : clients)
        t.join();

    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_TRUE(runs[i].ok)
            << "client " << i << ": " << runs[i].errMessage;
        EXPECT_FALSE(runs[i].artifact.empty());
    }
    const sim::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.requestsServed, kClients);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.latencyCount, size_t(kClients));
    svc.shutdown();
}

TEST(Service, WarmPathReachesAllocationSteadyState)
{
    // The whole point of the daemon: repeat requests hit warm
    // sessions and a warm program cache. Pin it observably — after a
    // priming run, an identical run constructs zero new SimSessions
    // and settles to a steady allocation count (run 3 allocates
    // exactly what run 2 did; nothing accumulates or re-warms).
    sim::ProgramCache programs;
    sim::BenchContext ctx;
    ctx.programs = &programs;
    ctx.execThreads = 1; // the daemon-worker configuration

    sim::SweepRequest req;
    req.bench = "fig6_speedup";
    req.run.scale = 1;
    req.run.shard = {0, 11};

    sim::BenchArtifact art;
    std::string err;
    ASSERT_TRUE(sim::executeSweepRequest(req, ctx, &art, &err)) << err;
    const uint64_t sessionsAfterWarmup = sim::SimSession::constructed();
    const std::string firstJson = art.toJson();

    const uint64_t before2 = g_newCalls.load(std::memory_order_relaxed);
    ASSERT_TRUE(sim::executeSweepRequest(req, ctx, &art, &err)) << err;
    const uint64_t allocs2 =
        g_newCalls.load(std::memory_order_relaxed) - before2;

    const uint64_t before3 = g_newCalls.load(std::memory_order_relaxed);
    ASSERT_TRUE(sim::executeSweepRequest(req, ctx, &art, &err)) << err;
    const uint64_t allocs3 =
        g_newCalls.load(std::memory_order_relaxed) - before3;

    EXPECT_EQ(sim::SimSession::constructed(), sessionsAfterWarmup)
        << "warm runs must reuse the per-worker session";
    EXPECT_EQ(allocs3, allocs2)
        << "warm runs must hit allocation steady state";
    EXPECT_EQ(art.toJson(), firstJson) << "and stay deterministic";
}

// ---------------------------------------------------------------------------
// The --connect driver path.
// ---------------------------------------------------------------------------

TEST(ConnectDriver, MergedArtifactIsByteIdenticalToEphemeral)
{
    TempDir tmp;
    EnvGuard scale("CONOPT_SCALE", "1");

    // Ephemeral: the driver spawns this binary as the bench.
    sim::DriverOptions eph;
    eph.benchPath = selfExePath();
    eph.benchName = "table1_workloads";
    eph.shards = 2;
    eph.run.artifactDir = tmp.file("eph");
    eph.streamProgress = false;
    sim::DriverOutcome ephOut;
    {
        EnvGuard mode("CONOPT_SERVED_TEST_CHILD", "bench");
        ephOut = sim::runSweepDriver(eph);
    }
    ASSERT_EQ(ephOut.exitCode, 0) << ephOut.error;

    // Standing: the same bench name resolved by an in-process daemon.
    sim::SweepService svc;
    std::string err;
    ASSERT_TRUE(svc.start(&err)) << err;
    ServicePump pump(svc);
    sim::DriverOptions conn;
    conn.benchName = "table1_workloads";
    conn.shards = 2;
    conn.connectHosts = {svc.addr()};
    conn.run.artifactDir = tmp.file("conn");
    conn.streamProgress = false;
    const sim::DriverOutcome connOut = sim::runSweepDriver(conn);
    ASSERT_EQ(connOut.exitCode, 0) << connOut.error;
    svc.shutdown();

    ASSERT_FALSE(ephOut.mergedArtifactPath.empty());
    ASSERT_FALSE(connOut.mergedArtifactPath.empty());
    const std::string ephBytes = readFile(ephOut.mergedArtifactPath);
    const std::string connBytes = readFile(connOut.mergedArtifactPath);
    ASSERT_FALSE(ephBytes.empty());
    EXPECT_EQ(connBytes, ephBytes)
        << "a standing fleet must never change the science";
    EXPECT_GT(connOut.shards.size(), 0u);
    for (const auto &s : connOut.shards)
        EXPECT_TRUE(s.ok);
}

TEST(ConnectDriver, UnknownEndpointFailsWithExitContractError)
{
    TempDir tmp;
    sim::DriverOptions o;
    o.benchName = "table1_workloads";
    o.shards = 1;
    o.connectHosts = {"127.0.0.1:1"}; // nothing listens on port 1
    o.run.artifactDir = tmp.path.string();
    o.retries = 0;
    o.streamProgress = false;
    const sim::DriverOutcome out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_FALSE(out.error.empty());
}

// ---------------------------------------------------------------------------
// A real daemon process: SIGTERM drain.
// ---------------------------------------------------------------------------

TEST(Daemon, SigtermDrainsInFlightRequestThenExitsZero)
{
    TempDir tmp;
    const std::string portFile = tmp.file("served.port");
    const std::string logFile = tmp.file("served.log");
    const std::string exe = selfExePath();

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("CONOPT_SERVED_TEST_CHILD", "daemon", 1);
        ::setenv("CONOPT_SERVED_TEST_PORTFILE", portFile.c_str(), 1);
        if (std::FILE *log = std::fopen(logFile.c_str(), "w")) {
            ::dup2(::fileno(log), 1);
            ::dup2(::fileno(log), 2);
        }
        ::execl(exe.c_str(), exe.c_str(), (char *)nullptr);
        ::_exit(127);
    }

    // Wait for the daemon to publish its ephemeral address.
    std::string addr;
    for (int i = 0; i < kDaemonWaitDeciseconds && addr.empty(); ++i) {
        addr = readFile(portFile);
        while (!addr.empty() && addr.back() == '\n')
            addr.pop_back();
        if (addr.empty())
            ::usleep(100000);
    }
    ASSERT_FALSE(addr.empty())
        << "daemon never wrote its port file; log:\n" << readFile(logFile);

    // Start a run, then SIGTERM the daemon while it is (likely still)
    // in flight. Drain semantics: the result frame must still arrive.
    std::string err;
    const int fd = sim::connectToService(addr, &err);
    ASSERT_GE(fd, 0) << err;
    sim::SweepRequest req;
    req.bench = "fig6_speedup";
    req.run.scale = 1;
    req.run.shard = {0, 4};
    ASSERT_TRUE(sim::writeFrame(fd, sim::makeRunFrame(req), &err)) << err;
    ::usleep(100000);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    sim::FrameReader rd;
    bool gotResult = false;
    for (;;) {
        std::string payload;
        if (!sim::readFrame(fd, &rd, &payload, kFrameTimeoutSeconds, &err))
            break;
        sim::ServerFrame f;
        ASSERT_TRUE(sim::parseServerFrame(payload, &f, &err)) << err;
        if (f.type == sim::ServerFrame::Type::Progress)
            continue;
        ASSERT_EQ(f.type, sim::ServerFrame::Type::Result)
            << "drain must finish in-flight work, not error it: "
            << f.message;
        EXPECT_FALSE(f.artifact.empty());
        gotResult = true;
        break;
    }
    ::close(fd);
    EXPECT_TRUE(gotResult) << err << "; daemon log:\n" << readFile(logFile);

    int status = 0;
    pid_t waited = 0;
    for (int i = 0; i < kDaemonWaitDeciseconds; ++i) {
        waited = ::waitpid(pid, &status, WNOHANG);
        if (waited == pid)
            break;
        ::usleep(100000);
    }
    if (waited != pid) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        FAIL() << "daemon did not exit after SIGTERM; log:\n"
               << readFile(logFile);
    }
    ASSERT_TRUE(WIFEXITED(status)) << "daemon died to a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "clean drain exits 0; log:\n" << readFile(logFile);
}
