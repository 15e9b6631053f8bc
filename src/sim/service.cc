#include "src/sim/service.hh"

#include <netdb.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/sim/baseline.hh"
#include "src/sim/driver.hh"
#include "src/sim/session.hh"

namespace conopt::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

// --------------------------------------------------------------------------
// Frame codec
// --------------------------------------------------------------------------

std::string
encodeFrame(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += ' ';
    out += payload;
    out += '\n';
    return out;
}

void
FrameReader::feed(const char *data, size_t n)
{
    buf_.append(data, n);
}

int
FrameReader::next(std::string *payload, std::string *err)
{
    // `<decimal-len> <payload>\n`. The length header is tiny, so if no
    // space shows up within its maximum width the stream is garbage.
    const size_t sp = buf_.find(' ');
    if (sp == std::string::npos) {
        if (buf_.size() > 24) {
            *err = "malformed frame header (no length prefix)";
            return -1;
        }
        return 0;
    }
    if (sp == 0 || sp > 20) {
        *err = "malformed frame header (bad length prefix)";
        return -1;
    }
    uint64_t len = 0;
    if (!parseU64Token(buf_.substr(0, sp), &len) ||
        len > kMaxFrameBytes) {
        *err = "malformed frame header (bad length " + buf_.substr(0, sp) +
               ")";
        return -1;
    }
    // Header + payload + trailing newline.
    const size_t need = sp + 1 + size_t(len) + 1;
    if (buf_.size() < need)
        return 0;
    if (buf_[need - 1] != '\n') {
        *err = "malformed frame (missing terminator)";
        return -1;
    }
    *payload = buf_.substr(sp + 1, size_t(len));
    buf_.erase(0, need);
    return 1;
}

// --------------------------------------------------------------------------
// Client helpers
// --------------------------------------------------------------------------

int
connectToService(const std::string &addr, std::string *err)
{
    if (addr.rfind("unix:", 0) == 0) {
        const std::string path = addr.substr(5);
        sockaddr_un sa{};
        if (path.empty() || path.size() >= sizeof(sa.sun_path)) {
            *err = "invalid unix socket path '" + path + "'";
            return -1;
        }
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            *err = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&sa),
                      sizeof(sa)) != 0) {
            *err = "connect " + addr + ": " + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        return fd;
    }

    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= addr.size()) {
        *err = "invalid address '" + addr +
               "' (want host:port or unix:PATH)";
        return -1;
    }
    const std::string host = addr.substr(0, colon);
    const std::string port = addr.substr(colon + 1);

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (gai != 0) {
        *err = "resolve " + addr + ": " + ::gai_strerror(gai);
        return -1;
    }
    int fd = -1;
    std::string lastErr = "no addresses";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        lastErr = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        *err = addr + ": " + lastErr;
    return fd;
}

bool
writeFrame(int fd, const std::string &payload, std::string *err)
{
    const std::string frame = encodeFrame(payload);
    // write(), not send(MSG_NOSIGNAL): a --wire bench writes frames to
    // a pipe, where send() fails with ENOTSOCK. A vanished reader must
    // surface as EPIPE here, never as a process-wide SIGPIPE, so
    // SIGPIPE is blocked for this thread around the writes and a
    // resulting pending signal is drained. SIGPIPE is
    // thread-synchronous, which makes the per-thread mask exact.
    sigset_t pipeSet, oldSet;
    sigemptyset(&pipeSet);
    sigaddset(&pipeSet, SIGPIPE);
    const bool masked =
        ::pthread_sigmask(SIG_BLOCK, &pipeSet, &oldSet) == 0;
    int writeErrno = 0;
    size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            ::write(fd, frame.data() + off, frame.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            writeErrno = errno;
            break;
        }
        off += size_t(n);
    }
    if (masked) {
        if (writeErrno == EPIPE) {
            struct timespec none = {0, 0};
            ::sigtimedwait(&pipeSet, nullptr, &none);
        }
        ::pthread_sigmask(SIG_SETMASK, &oldSet, nullptr);
    }
    if (writeErrno != 0) {
        *err = std::string("write: ") + std::strerror(writeErrno);
        return false;
    }
    return true;
}

bool
readFrame(int fd, FrameReader *rd, std::string *payload,
          double timeoutSeconds, std::string *err)
{
    // A complete frame may already be buffered from a previous read.
    const int have = rd->next(payload, err);
    if (have != 0)
        return have > 0;

    const auto start = Clock::now();
    for (;;) {
        int waitMs = 250;
        if (timeoutSeconds > 0.0) {
            const double left = timeoutSeconds - secondsSince(start);
            if (left <= 0.0) {
                *err = "timed out waiting for a frame";
                return false;
            }
            waitMs = int(std::min(left * 1000.0 + 1.0, 250.0));
        }
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, waitMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            *err = std::string("poll: ") + std::strerror(errno);
            return false;
        }
        if (pr == 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            *err = std::string("read: ") + std::strerror(errno);
            return false;
        }
        if (n == 0) {
            *err = "connection closed mid-frame";
            return false;
        }
        rd->feed(buf, size_t(n));
        const int got = rd->next(payload, err);
        if (got != 0)
            return got > 0;
    }
}

bool
fetchHealthz(const std::string &addr, double timeoutSeconds,
             std::string *body, std::string *err)
{
    const int fd = connectToService(addr, err);
    if (fd < 0)
        return false;
    FrameReader rd;
    std::string payload;
    ServerFrame f;
    const bool ok = writeFrame(fd, makeHealthzFrame(), err) &&
                    readFrame(fd, &rd, &payload, timeoutSeconds, err) &&
                    parseServerFrame(payload, &f, err);
    ::close(fd);
    if (!ok)
        return false;
    if (f.type != ServerFrame::Type::Healthz) {
        *err = "unexpected healthz reply: " + payload;
        return false;
    }
    *body = std::move(f.body);
    return true;
}

// --------------------------------------------------------------------------
// Envelopes
// --------------------------------------------------------------------------

std::string
makeRunFrame(const SweepRequest &req)
{
    return std::string("{\"type\":\"run\",\"request\":") +
           req.encodeJson() + "}";
}

std::string
makeHealthzFrame()
{
    return "{\"type\":\"healthz\"}";
}

std::string
makeProgressFrame(const std::string &progressLine)
{
    return std::string("{\"type\":\"progress\",\"line\":") +
           jsonQuote(progressLine) + "}";
}

std::string
makeResultFrame(const std::string &artifactJson)
{
    return std::string("{\"type\":\"result\",\"artifact\":") +
           jsonQuote(artifactJson) + "}";
}

std::string
makeErrorFrame(int code, const std::string &message)
{
    return std::string("{\"type\":\"error\",\"code\":") +
           std::to_string(code) + ",\"message\":" + jsonQuote(message) +
           "}";
}

bool
parseServerFrame(const std::string &payload, ServerFrame *out,
                 std::string *err)
{
    JsonValue doc;
    if (!JsonValue::parse(payload, &doc, err))
        return false;
    if (!doc.isObject()) {
        *err = "envelope is not a JSON object";
        return false;
    }
    const JsonValue *type = doc.get("type");
    if (!type || type->kind() != JsonValue::Kind::String) {
        *err = "envelope has no \"type\"";
        return false;
    }
    ServerFrame f;
    const std::string &t = type->asString();
    if (t == "progress") {
        f.type = ServerFrame::Type::Progress;
        const JsonValue *line = doc.get("line");
        if (!line || line->kind() != JsonValue::Kind::String) {
            *err = "progress envelope has no \"line\"";
            return false;
        }
        f.line = line->asString();
    } else if (t == "result") {
        f.type = ServerFrame::Type::Result;
        const JsonValue *art = doc.get("artifact");
        if (!art || art->kind() != JsonValue::Kind::String) {
            *err = "result envelope has no \"artifact\"";
            return false;
        }
        f.artifact = art->asString();
    } else if (t == "error") {
        f.type = ServerFrame::Type::Error;
        uint64_t code = 0;
        if (!jsonFieldU64(doc, "code", &code, err))
            return false;
        f.code = code == 1 ? 1 : 2;
        const JsonValue *msg = doc.get("message");
        if (!msg || msg->kind() != JsonValue::Kind::String) {
            *err = "error envelope has no \"message\"";
            return false;
        }
        f.message = msg->asString();
    } else if (t == "healthz" || t == "status") {
        f.type = ServerFrame::Type::Healthz;
        f.body = payload;
    } else {
        *err = "unknown envelope type '" + t + "'";
        return false;
    }
    *out = std::move(f);
    return true;
}

// --------------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------------

namespace {

std::string
unknownBenchMessage(const std::string &bench)
{
    std::string msg = "unknown bench '" + bench + "' (registered: ";
    const auto &regs = benchRegistry();
    for (size_t i = 0; i < regs.size(); ++i) {
        if (i)
            msg += ", ";
        msg += regs[i].name;
    }
    msg += ")";
    return msg;
}

} // namespace

bool
executeSweepRequest(const SweepRequest &req, const BenchContext &ctx,
                    BenchArtifact *art, std::string *err)
{
    const BenchDef *def = findBench(req.bench);
    if (!def) {
        *err = unknownBenchMessage(req.bench);
        return false;
    }
    // The daemon serves artifact bytes; the client-side path fields
    // must never be dereferenced here. A well-behaved client already
    // cleared them (see connectRequest in driver.cc), but the server
    // enforces it.
    RunOptions run = req.run;
    run.artifactDir.clear();
    run.baselinePath.clear();
    run.resultCacheDir.clear();
    *art = BenchArtifact{};
    if (!def->build(run, ctx, art, err))
        return false;
    art->bench = req.bench;
    return true;
}

// --------------------------------------------------------------------------
// The service
// --------------------------------------------------------------------------

/** One client connection. Kept alive by shared_ptr from both the
 *  connection list and any queued jobs, so a worker can still answer
 *  on a connection whose reader already saw EOF. */
struct SweepService::Conn
{
    int fd = -1;
    std::mutex writeMu;       ///< one frame at a time per connection
    std::thread reader;
    std::atomic<bool> closed{false};  ///< peer gone or write failed
    std::atomic<bool> stop{false};    ///< service shutting down
    std::atomic<bool> done{false};    ///< reader loop returned
};

/** One queued run. */
struct SweepService::Job
{
    std::shared_ptr<Conn> conn;
    SweepRequest req;
    Clock::time_point enqueued;
};

SweepService::SweepService(ServiceOptions opts) : opts_(std::move(opts))
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.queueCapacity == 0)
        opts_.queueCapacity = 1;
}

SweepService::~SweepService()
{
    shutdown();
}

bool
SweepService::start(std::string *err)
{
    if (started_) {
        *err = "service already started";
        return false;
    }
    const std::string &la = opts_.listenAddr;
    if (la.rfind("unix:", 0) == 0) {
        const std::string path = la.substr(5);
        sockaddr_un sa{};
        if (path.empty() || path.size() >= sizeof(sa.sun_path)) {
            *err = "invalid unix socket path '" + path + "'";
            return false;
        }
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            *err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        ::unlink(path.c_str()); // stale socket from a previous run
        if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(listenFd_, 64) != 0) {
            *err = "bind " + la + ": " + std::strerror(errno);
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
        unixPath_ = path;
        addr_ = la;
    } else {
        const size_t colon = la.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= la.size()) {
            *err = "invalid listen address '" + la +
                   "' (want host:port or unix:PATH)";
            return false;
        }
        const std::string host = la.substr(0, colon);
        const std::string port = la.substr(colon + 1);
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_PASSIVE;
        addrinfo *res = nullptr;
        const int gai =
            ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
        if (gai != 0) {
            *err = "resolve " + la + ": " + ::gai_strerror(gai);
            return false;
        }
        std::string lastErr = "no addresses";
        for (addrinfo *ai = res; ai; ai = ai->ai_next) {
            listenFd_ =
                ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
            if (listenFd_ < 0) {
                lastErr = std::string("socket: ") + std::strerror(errno);
                continue;
            }
            const int one = 1;
            ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(listenFd_, ai->ai_addr, ai->ai_addrlen) == 0 &&
                ::listen(listenFd_, 64) == 0)
                break;
            lastErr = std::string("bind: ") + std::strerror(errno);
            ::close(listenFd_);
            listenFd_ = -1;
        }
        ::freeaddrinfo(res);
        if (listenFd_ < 0) {
            *err = la + ": " + lastErr;
            return false;
        }
        // Recover the actual port (the ephemeral-port contract that
        // lets tests and CI listen on 127.0.0.1:0).
        sockaddr_storage ss{};
        socklen_t slen = sizeof(ss);
        std::string boundPort = port;
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&ss), &slen) == 0) {
            char hostBuf[NI_MAXHOST], serv[NI_MAXSERV];
            if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), slen,
                              hostBuf, sizeof(hostBuf), serv,
                              sizeof(serv),
                              NI_NUMERICHOST | NI_NUMERICSERV) == 0)
                boundPort = serv;
        }
        addr_ = host + ":" + boundPort;
    }

    if (!opts_.resultCacheDir.empty())
        // conopt-lint: allow(hotpath-alloc) one-time start() setup, not request serving
        resultCache_ = std::make_shared<ResultCache>(opts_.resultCacheDir);

    startTime_ = Clock::now();
    draining_ = false;
    workers_.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i)
        // conopt-lint: allow(hotpath-alloc) one-time start() setup; capacity reserved above
        workers_.emplace_back([this] { workerLoop(); });
    started_ = true;
    return true;
}

void
SweepService::pollOnce(int timeoutMillis)
{
    const int lfd = listenFd_.load(std::memory_order_acquire);
    if (lfd < 0)
        return;
    pollfd pfd{lfd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeoutMillis);
    std::lock_guard<std::mutex> lk(connsMu_);
    // Reap finished readers first, so a long-lived daemon neither
    // accumulates joinable threads nor counts closed connections
    // against the cap.
    for (size_t i = 0; i < conns_.size();) {
        if (conns_[i]->done.load() && conns_[i]->reader.joinable()) {
            conns_[i]->reader.join();
            conns_[i] = conns_.back();
            conns_.pop_back();
        } else {
            ++i;
        }
    }
    if (pr <= 0 || !(pfd.revents & POLLIN))
        return;
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0)
        return;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (conns_.size() >= kMaxConnections) {
        // Every live connection holds a reader thread: past the cap the
        // peer is told why and dropped instead of costing another one.
        std::string err;
        writeFrame(cfd,
                   makeErrorFrame(2, "too many connections (" +
                                         std::to_string(kMaxConnections) +
                                         " open); retry later"),
                   &err);
        ::close(cfd);
        return;
    }
    // conopt-lint: allow(hotpath-alloc) per-connection setup; accepts are rare next to request serving
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    conn->reader = std::thread([this, conn] { readerLoop(conn); });
    // conopt-lint: allow(hotpath-alloc) per-connection bookkeeping, bounded by kMaxConnections
    conns_.push_back(std::move(conn));
}

bool
SweepService::sendFrame(const std::shared_ptr<Conn> &conn,
                        const std::string &payload)
{
    if (conn->closed.load())
        return false;
    std::lock_guard<std::mutex> lk(conn->writeMu);
    std::string err;
    if (!writeFrame(conn->fd, payload, &err)) {
        conn->closed.store(true);
        return false;
    }
    return true;
}

void
SweepService::handlePayload(const std::shared_ptr<Conn> &conn,
                            const std::string &payload)
{
    std::string err;
    JsonValue doc;
    if (!JsonValue::parse(payload, &doc, &err) || !doc.isObject()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn, makeErrorFrame(2, "malformed envelope: " + err));
        return;
    }
    const JsonValue *type = doc.get("type");
    if (!type || type->kind() != JsonValue::Kind::String) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn, makeErrorFrame(2, "envelope has no \"type\""));
        return;
    }
    const std::string &t = type->asString();
    if (t == "healthz" || t == "status") {
        sendFrame(conn, healthzJson());
        return;
    }
    if (t != "run") {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn,
                  makeErrorFrame(2, "unknown envelope type '" + t + "'"));
        return;
    }
    const JsonValue *reqDoc = doc.get("request");
    if (!reqDoc) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn, makeErrorFrame(2, "run envelope has no "
                                          "\"request\""));
        return;
    }
    Job job;
    if (!SweepRequest::decodeValue(*reqDoc, &job.req, &err)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn, makeErrorFrame(2, "bad request: " + err));
        return;
    }
    if (!findBench(job.req.bench)) {
        // Reject before enqueue: an unknown bench "never ran" (code 2),
        // unlike a registered bench that fails mid-run (code 1).
        rejected_.fetch_add(1, std::memory_order_relaxed);
        sendFrame(conn, makeErrorFrame(2, unknownBenchMessage(job.req.bench)));
        return;
    }
    job.conn = conn;
    job.enqueued = Clock::now();
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        if (draining_) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            sendFrame(conn, makeErrorFrame(2, "service is draining"));
            return;
        }
        if (queueDepth_ >= opts_.queueCapacity) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            sendFrame(conn,
                      makeErrorFrame(
                          2, "queue full (" +
                                 std::to_string(opts_.queueCapacity) +
                                 " queued); retry another endpoint"));
            return;
        }
        // conopt-lint: allow(hotpath-alloc) bounded by queueCapacity; the run itself allocates nothing
        queue_[job.req.priority].push_back(std::move(job));
        ++queueDepth_;
    }
    queueCv_.notify_one();
}

void
SweepService::readerLoop(std::shared_ptr<Conn> conn)
{
    FrameReader rd;
    char buf[4096];
    while (!conn->stop.load() && !conn->closed.load()) {
        pollfd pfd{conn->fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pr == 0)
            continue;
        const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        if (n == 0)
            break; // peer closed; queued jobs may still be running
        rd.feed(buf, size_t(n));
        for (;;) {
            std::string payload, err;
            const int got = rd.next(&payload, &err);
            if (got == 0)
                break;
            if (got < 0) {
                sendFrame(conn, makeErrorFrame(2, err));
                conn->closed.store(true);
                break;
            }
            handlePayload(conn, payload);
        }
    }
    conn->done.store(true);
}

void
SweepService::workerLoop()
{
    // One BenchContext per worker: shared caches, worker-local warm
    // session (execThreads = 1 keeps every sweep on this thread, so
    // SweepRunner's thread-local SimSession is constructed once and
    // then reused for every request this worker ever serves).
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(queueMu_);
            queueCv_.wait(lk, [this] {
                return queueDepth_ > 0 || draining_;
            });
            if (queueDepth_ == 0)
                return; // draining and empty
            // Highest priority first; FIFO within a level.
            auto it = queue_.rbegin();
            job = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty())
                queue_.erase(it->first);
            --queueDepth_;
        }

        BenchContext ctx;
        ctx.programs = &programs_;
        ctx.resultCache = resultCache_;
        ctx.execThreads = 1;
        const auto conn = job.conn;
        ctx.onProgress = [this, conn](const SweepProgress &p) {
            SweepProgress withService = p;
            {
                std::lock_guard<std::mutex> lk(queueMu_);
                withService.queueDepth = queueDepth_;
            }
            withService.sessions = SimSession::constructed();
            sendFrame(conn,
                      makeProgressFrame(formatProgressLine(withService)));
        };

        BenchArtifact art;
        std::string err;
        const bool ok = executeSweepRequest(job.req, ctx, &art, &err);
        // Count the request and record its latency (enqueue -> result
        // ready) before the terminal frame goes out: a client that has
        // its result must never read a healthz that predates it.
        const double seconds = secondsSince(job.enqueued);
        {
            std::lock_guard<std::mutex> lk(latencyMu_);
            latency_.add(seconds);
            latencyReservoir_.add(seconds);
        }
        if (!ok) {
            failed_.fetch_add(1, std::memory_order_relaxed);
            sendFrame(conn, makeErrorFrame(1, err));
        } else {
            served_.fetch_add(1, std::memory_order_relaxed);
            sendFrame(conn, makeResultFrame(art.toJson()));
        }
    }
}

void
SweepService::shutdown()
{
    if (!started_)
        return;
    started_ = false;

    // 1. Stop accepting. exchange() so a concurrent pollOnce() either
    //    sees the live fd or -1, never a torn/stale close.
    const int lfd = listenFd_.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0)
        ::close(lfd);
    // 2. New run requests now get a code-2 error frame; everything
    //    already queued or running finishes and is answered.
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        draining_ = true;
    }
    queueCv_.notify_all();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // 3. Stop readers and close connections.
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lk(connsMu_);
        conns.swap(conns_);
    }
    for (auto &c : conns) {
        c->stop.store(true);
        if (c->reader.joinable())
            c->reader.join();
        if (c->fd >= 0)
            ::close(c->fd);
        c->fd = -1;
    }
    if (!unixPath_.empty()) {
        ::unlink(unixPath_.c_str());
        unixPath_.clear();
    }
}

ServiceStats
SweepService::stats()
{
    ServiceStats s;
    s.uptimeSeconds = secondsSince(startTime_);
    s.workers = opts_.workers;
    s.queueCapacity = opts_.queueCapacity;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        s.queueDepth = queueDepth_;
        s.draining = draining_;
    }
    s.connectionsAccepted = accepted_.load(std::memory_order_relaxed);
    s.requestsServed = served_.load(std::memory_order_relaxed);
    s.requestsFailed = failed_.load(std::memory_order_relaxed);
    s.requestsRejected = rejected_.load(std::memory_order_relaxed);
    s.sessionsConstructed = SimSession::constructed();
    if (resultCache_) {
        const auto cs = resultCache_->stats();
        s.cacheHits = cs.hits;
        s.cacheMisses = cs.misses;
        s.cacheStores = cs.stores;
    }
    s.programsCached = programs_.builds();
    {
        std::lock_guard<std::mutex> lk(latencyMu_);
        s.latencyCount = latency_.count();
        s.latencyP50 = latency_.percentile(50);
        s.latencyP95 = latency_.percentile(95);
        s.latencyP99 = latency_.percentile(99);
        s.latencyMax = latency_.max();
        s.latencySample = latencyReservoir_.samples();
    }
    return s;
}

std::string
SweepService::healthzJson()
{
    const ServiceStats s = stats();
    std::string out = "{\"type\":\"healthz\"";
    const auto u64 = [&](const char *key, uint64_t v) {
        out += ",\"";
        out += key;
        out += "\":";
        out += std::to_string(v);
    };
    const auto dbl = [&](const char *key, double v) {
        out += ",\"";
        out += key;
        out += "\":";
        out += fmtG17(v);
    };
    dbl("uptime_s", s.uptimeSeconds);
    out += ",\"draining\":";
    out += s.draining ? "true" : "false";
    u64("workers", s.workers);
    u64("queue_depth", s.queueDepth);
    u64("queue_capacity", s.queueCapacity);
    u64("connections_accepted", s.connectionsAccepted);
    u64("requests_served", s.requestsServed);
    u64("requests_failed", s.requestsFailed);
    u64("requests_rejected", s.requestsRejected);
    u64("sessions", s.sessionsConstructed);
    u64("cache_hits", s.cacheHits);
    u64("cache_misses", s.cacheMisses);
    u64("cache_stores", s.cacheStores);
    u64("programs_built", s.programsCached);
    u64("latency_count", s.latencyCount);
    dbl("latency_p50_s", s.latencyP50);
    dbl("latency_p95_s", s.latencyP95);
    dbl("latency_p99_s", s.latencyP99);
    dbl("latency_max_s", s.latencyMax);
    out += ",\"latency_sample_s\":[";
    for (size_t i = 0; i < s.latencySample.size(); ++i) {
        if (i)
            out += ',';
        out += fmtG17(s.latencySample[i]);
    }
    out += "]}";
    return out;
}

// --------------------------------------------------------------------------
// conopt_served CLI
// --------------------------------------------------------------------------

namespace {

/** Flag-only interrupt state, same pattern as the sweep driver: the
 *  handler records the signal; the main loop does the work. */
volatile std::sig_atomic_t gServedStop = 0;

void
onServedSignal(int)
{
    gServedStop = 1;
}

constexpr const char *kServedUsage =
    "usage: conopt_served [options]\n"
    "       conopt_served --healthz ADDR\n"
    "\n"
    "Standing sweep daemon: keeps warm simulation sessions, a hot\n"
    "program cache, and an always-on result cache across requests.\n"
    "Speaks the framed line-JSON protocol documented in README.md\n"
    "(\"Standing fleet\"); `conopt_sweep --connect ADDR <bench>` is\n"
    "the matching client.\n"
    "\n"
    "options:\n"
    "  --listen ADDR      host:port or unix:PATH (default\n"
    "                     127.0.0.1:0 = ephemeral port)\n"
    "  --workers N        executor threads (default 1; each keeps its\n"
    "                     own warm session)\n"
    "  --queue N          queued-request bound (default 64); full =\n"
    "                     reject with a code-2 error\n"
    "  --result-cache DIR daemon-side persistent result cache\n"
    "  --port-file PATH   write the bound address to PATH once\n"
    "                     listening (for scripts using an ephemeral\n"
    "                     port)\n"
    "  --healthz ADDR     client mode: print the daemon's healthz\n"
    "                     JSON to stdout and exit (0 = healthy)\n"
    "\n"
    "SIGINT/SIGTERM drain gracefully: stop accepting, finish queued\n"
    "and running requests, answer them, then exit.\n";

} // namespace

int
servedMain(const std::vector<std::string> &args)
{
    ServiceOptions opts;
    std::string portFile;
    std::string healthzAddr;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const auto value = [&]() -> const std::string * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "conopt_served: %s requires a "
                                     "value\n%s",
                             a.c_str(), kServedUsage);
                return nullptr;
            }
            return &args[++i];
        };
        if (a == "--help" || a == "-h") {
            // conopt-lint: allow(stray-output) --help goes to stdout
            std::fputs(kServedUsage, stdout);
            return 0;
        }
        if (a == "--listen") {
            const std::string *v = value();
            if (!v)
                return 2;
            opts.listenAddr = *v;
        } else if (a == "--workers") {
            const std::string *v = value();
            uint64_t n = 0;
            if (!v || !parseU64Token(*v, &n) || n == 0 ||
                n > kMaxEnvThreads) {
                std::fprintf(stderr,
                             "conopt_served: invalid --workers (want "
                             "1..%u)\n",
                             kMaxEnvThreads);
                return 2;
            }
            opts.workers = unsigned(n);
        } else if (a == "--queue") {
            const std::string *v = value();
            uint64_t n = 0;
            if (!v || !parseU64Token(*v, &n) || n == 0) {
                std::fprintf(stderr, "conopt_served: invalid --queue "
                                     "(want a positive bound)\n");
                return 2;
            }
            opts.queueCapacity = size_t(n);
        } else if (a == "--result-cache") {
            const std::string *v = value();
            if (!v)
                return 2;
            opts.resultCacheDir = *v;
        } else if (a == "--port-file") {
            const std::string *v = value();
            if (!v)
                return 2;
            portFile = *v;
        } else if (a == "--healthz") {
            const std::string *v = value();
            if (!v)
                return 2;
            healthzAddr = *v;
        } else {
            std::fprintf(stderr, "conopt_served: unknown argument "
                                 "'%s'\n%s",
                         a.c_str(), kServedUsage);
            return 2;
        }
    }

    if (!healthzAddr.empty()) {
        std::string body, err;
        if (!fetchHealthz(healthzAddr, 10.0, &body, &err)) {
            std::fprintf(stderr, "conopt_served: %s\n", err.c_str());
            return 2;
        }
        // conopt-lint: allow(stray-output) healthz JSON is the output
        std::printf("%s\n", body.c_str());
        return 0;
    }

    SweepService svc(opts);
    std::string err;
    if (!svc.start(&err)) {
        std::fprintf(stderr, "conopt_served: %s\n", err.c_str());
        return 2;
    }
    if (!portFile.empty()) {
        std::FILE *pf = std::fopen(portFile.c_str(), "w");
        if (!pf) {
            std::fprintf(stderr,
                         "conopt_served: cannot write --port-file %s: "
                         "%s\n",
                         portFile.c_str(), std::strerror(errno));
            svc.shutdown();
            return 2;
        }
        std::fprintf(pf, "%s\n", svc.addr().c_str());
        std::fclose(pf);
    }
    std::fprintf(stderr,
                 "[conopt_served] listening on %s (%u worker%s, queue "
                 "%zu)\n",
                 svc.addr().c_str(), opts.workers,
                 opts.workers == 1 ? "" : "s", opts.queueCapacity);

    gServedStop = 0;
    struct sigaction sa{};
    sa.sa_handler = onServedSignal;
    sigemptyset(&sa.sa_mask);
    struct sigaction oldInt{}, oldTerm{};
    ::sigaction(SIGINT, &sa, &oldInt);
    ::sigaction(SIGTERM, &sa, &oldTerm);

    while (!gServedStop)
        svc.pollOnce(50);

    std::fprintf(stderr, "[conopt_served] draining\n");
    svc.shutdown();
    ::sigaction(SIGINT, &oldInt, nullptr);
    ::sigaction(SIGTERM, &oldTerm, nullptr);
    std::fprintf(stderr, "[conopt_served] stopped\n");
    return 0;
}

} // namespace conopt::sim
