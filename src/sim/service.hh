/**
 * @file
 * The standing sweep service: everything behind `conopt_served` and
 * `conopt_sweep --connect`, plus the one frame protocol every
 * conopt_sweep shard speaks. A daemon keeps warm SimSessions, a hot
 * ProgramCache, and an always-on ResultCache across requests, so a
 * fleet of short gate runs stops paying process start + program build
 * + cold-cache cost on every invocation.
 *
 * Wire protocol, lowest layer first. It runs on a TCP `host:port` or
 * `unix:PATH` socket to a daemon, and on the stdout of a bench run
 * with `--wire` (src/sim/harness.hh), which sends the same server ->
 * client envelopes for its one run:
 *
 *   frame    := <decimal-length> ' ' <payload bytes> '\n'
 *               (length counts only the payload; max 64 MiB)
 *   payload  := one single-line JSON envelope
 *
 * Client -> server envelopes:
 *   {"type":"run","request":<SweepRequest JSON>}   run one bench
 *   {"type":"healthz"}                             liveness + stats
 *   {"type":"status"}                              alias of healthz
 *
 * Server -> client envelopes (for one run, in order):
 *   {"type":"progress","line":"CONOPT-PROGRESS v1 ..."}   0..n times
 *   {"type":"result","artifact":"<BENCH_*.json text>"}    terminal
 *   {"type":"error","code":<1|2>,"message":"..."}         terminal
 * and for healthz/status:
 *   {"type":"healthz", ...stat fields...}
 *
 * The progress lines are CONOPT-PROGRESS v1 lines (src/sim/driver.hh);
 * a daemon adds its queue_depth=/sessions= keys. The artifact is the
 * exact BenchArtifact::toJson() text, so the driver writes the bytes
 * verbatim and a merged artifact is byte-identical whichever transport
 * carried its shards. Error codes follow the repo-wide exit contract:
 * 1 = the bench ran and failed, 2 = the request never ran (malformed,
 * unknown bench, queue full, draining, too many connections).
 *
 * README.md ("Standing fleet") is the user-facing spec of this
 * protocol; src/sim/request.hh owns the SweepRequest schema.
 */

#ifndef CONOPT_SIM_SERVICE_HH
#define CONOPT_SIM_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/bench_registry.hh"
#include "src/sim/request.hh"

namespace conopt::sim {

// --------------------------------------------------------------------------
// Frame codec
// --------------------------------------------------------------------------

/** Upper bound on one frame's payload; a length prefix beyond this is
 *  a protocol error, not an allocation request. */
constexpr size_t kMaxFrameBytes = 64u << 20;

/** @p payload as one wire frame: `<decimal-len> <payload>\n`. */
std::string encodeFrame(const std::string &payload);

/** Incremental frame decoder over an arbitrary byte stream. */
class FrameReader
{
  public:
    /** Append @p n raw bytes from the stream. */
    void feed(const char *data, size_t n);

    /** Extract the next complete frame payload into @p payload.
     *  Returns 1 on a frame, 0 when more bytes are needed, -1 (with
     *  @p err) on a malformed stream — after -1 the stream is
     *  unrecoverable and the connection should be dropped. */
    int next(std::string *payload, std::string *err);

    /** Bytes buffered but not yet consumed. */
    size_t pending() const { return buf_.size(); }

  private:
    std::string buf_;
};

// --------------------------------------------------------------------------
// Client helpers
// --------------------------------------------------------------------------

/** Connect to @p addr — `host:port` (TCP) or `unix:PATH` — and return
 *  the connected socket, or -1 with @p err. */
int connectToService(const std::string &addr, std::string *err);

/** Send @p payload as one frame on a socket or a pipe (handles
 *  partial writes; a vanished reader is EPIPE, never SIGPIPE). False
 *  with @p err on a write error. */
bool writeFrame(int fd, const std::string &payload, std::string *err);

/** Read from @p fd into @p rd until one complete frame is available
 *  and return its payload. @p timeoutSeconds bounds the whole read
 *  (0 = wait forever). False with @p err on timeout, EOF, read error,
 *  or a malformed stream. */
bool readFrame(int fd, FrameReader *rd, std::string *payload,
               double timeoutSeconds, std::string *err);

/** One healthz round-trip to @p addr: connect, send a healthz frame,
 *  and return the reply JSON in @p body. @p timeoutSeconds bounds the
 *  read. False with @p err on any failure. */
bool fetchHealthz(const std::string &addr, double timeoutSeconds,
                  std::string *body, std::string *err);

// --------------------------------------------------------------------------
// Envelopes
// --------------------------------------------------------------------------

std::string makeRunFrame(const SweepRequest &req);
std::string makeHealthzFrame();
std::string makeProgressFrame(const std::string &progressLine);
std::string makeResultFrame(const std::string &artifactJson);
std::string makeErrorFrame(int code, const std::string &message);

/** One parsed server -> client envelope. */
struct ServerFrame
{
    enum class Type { Progress, Result, Error, Healthz };
    Type type = Type::Error;
    std::string line;     ///< Progress: the CONOPT-PROGRESS line
    std::string artifact; ///< Result: verbatim BENCH_*.json text
    int code = 2;         ///< Error: 1 bench failed, 2 never ran
    std::string message;  ///< Error: diagnostic
    std::string body;     ///< Healthz: the raw reply JSON
};

/** Parse a server -> client payload. False with @p err on anything
 *  that is not a well-formed envelope of a known type. */
bool parseServerFrame(const std::string &payload, ServerFrame *out,
                      std::string *err);

// --------------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------------

/**
 * Run one SweepRequest against the bench registry: resolve req.bench,
 * build the artifact under req.run with @p ctx's warm resources, and
 * stamp art->bench. False with @p err on an unknown bench or a
 * functional failure. This is the daemon's entire request handler
 * minus the transport, exported so tests pin its warm-path behaviour
 * (zero steady-state allocations) in-process.
 */
bool executeSweepRequest(const SweepRequest &req, const BenchContext &ctx,
                         BenchArtifact *art, std::string *err);

// --------------------------------------------------------------------------
// The service
// --------------------------------------------------------------------------

/** Live-connection cap of one SweepService. Each connection holds a
 *  reader thread, so an accept past the cap gets a code-2 error frame
 *  and is closed instead. */
constexpr size_t kMaxConnections = 128;

struct ServiceOptions
{
    /** `host:port` (port 0 = ephemeral, see SweepService::addr()) or
     *  `unix:PATH`. */
    std::string listenAddr = "127.0.0.1:0";
    unsigned workers = 1;      ///< executor threads (>= 1)
    size_t queueCapacity = 64; ///< queued-job bound; full = reject
    /** Daemon-side persistent result cache ("" = in-memory only). The
     *  client's run.resultCacheDir is intentionally ignored: the
     *  daemon never touches client paths. */
    std::string resultCacheDir;
};

/** One healthz snapshot (all counters are process-lifetime). */
struct ServiceStats
{
    double uptimeSeconds = 0.0;
    bool draining = false;
    unsigned workers = 0;
    size_t queueDepth = 0;
    size_t queueCapacity = 0;
    uint64_t connectionsAccepted = 0;
    uint64_t requestsServed = 0;   ///< result frames sent
    uint64_t requestsFailed = 0;   ///< error frames sent for runs
    uint64_t requestsRejected = 0; ///< never enqueued (full/draining/bad)
    uint64_t sessionsConstructed = 0; ///< SimSession::constructed()
    uint64_t cacheHits = 0;   ///< ResultCache hits ("" cache dir = 0)
    uint64_t cacheMisses = 0;
    uint64_t cacheStores = 0;
    uint64_t programsCached = 0; ///< warm ProgramCache entries
    /** Request service latency (seconds, enqueue -> result ready) over
     *  the whole request stream: streaming nearest-rank percentiles
     *  plus a bounded reservoir snapshot for offline analysis. */
    size_t latencyCount = 0;
    double latencyP50 = 0.0;
    double latencyP95 = 0.0;
    double latencyP99 = 0.0;
    double latencyMax = 0.0;
    std::vector<double> latencySample;
};

/**
 * The daemon engine: listen socket, per-connection reader threads (at
 * most kMaxConnections live), a bounded priority queue (higher
 * SweepRequest::priority first, FIFO within a level), and a worker
 * pool that executes requests against one shared ProgramCache /
 * ResultCache with per-worker warm SimSessions (workers run sweeps single-threaded, so SweepRunner's
 * thread-local session is constructed once per worker and reused).
 *
 * Threading: start() spawns the workers; the owner drives accepts by
 * calling pollOnce() in a loop (conopt_served does this from main, so
 * signal handling stays flag-only); shutdown() drains gracefully —
 * stops accepting, fails *new* runs with a code-2 error frame,
 * finishes everything already queued or running, then joins.
 */
class SweepService
{
  public:
    explicit SweepService(ServiceOptions opts = {});
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Bind, listen, and spawn workers. False with @p err on a bad
     *  address or socket failure. */
    bool start(std::string *err);

    /** The bound address in connectToService() form — for `host:0`
     *  the actual ephemeral port, e.g. "127.0.0.1:43712". */
    const std::string &addr() const { return addr_; }

    /** Accept pending connections and reap finished reader threads;
     *  blocks at most @p timeoutMillis. */
    void pollOnce(int timeoutMillis);

    /** Graceful drain (idempotent): see class comment. */
    void shutdown();

    ServiceStats stats();

    /** stats() as the canonical healthz reply JSON. */
    std::string healthzJson();

  private:
    struct Conn;
    struct Job;

    void readerLoop(std::shared_ptr<Conn> conn);
    void workerLoop();
    void handlePayload(const std::shared_ptr<Conn> &conn,
                       const std::string &payload);
    bool sendFrame(const std::shared_ptr<Conn> &conn,
                   const std::string &payload);

    ServiceOptions opts_;
    std::string addr_;
    /** Atomic so shutdown() may be called from a different thread than
     *  the pollOnce() loop (tests drive exactly that); -1 = closed. */
    std::atomic<int> listenFd_{-1};
    std::string unixPath_; ///< bound unix socket path ("" = TCP)
    bool started_ = false;
    std::chrono::steady_clock::time_point startTime_;

    ProgramCache programs_;
    std::shared_ptr<ResultCache> resultCache_;

    std::mutex queueMu_;
    std::condition_variable queueCv_;
    /** priority -> FIFO of jobs; popped from the highest key. */
    std::map<uint32_t, std::deque<Job>> queue_;
    size_t queueDepth_ = 0;
    bool draining_ = false;
    std::vector<std::thread> workers_;

    std::mutex connsMu_;
    std::vector<std::shared_ptr<Conn>> conns_;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> served_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> rejected_{0};

    std::mutex latencyMu_;
    pipeline::PercentileAccumulator latency_;
    pipeline::ReservoirAccumulator latencyReservoir_{256, 0};
};

/** The `conopt_served` CLI: parse args, run the daemon until SIGINT/
 *  SIGTERM, drain, exit. Also the healthz client (`--healthz ADDR`).
 *  Returns the process exit code. Exported (like sweepDriverMain) so
 *  tests re-exec themselves as a real daemon process. */
int servedMain(const std::vector<std::string> &args);

} // namespace conopt::sim

#endif // CONOPT_SIM_SERVICE_HH
