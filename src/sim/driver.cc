#include "src/sim/driver.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/baseline.hh"
#include "src/sim/harness.hh"
#include "src/sim/wire.hh"

namespace conopt::sim {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

// --------------------------------------------------------------------------
// Progress line protocol
// --------------------------------------------------------------------------

std::string
formatProgressLine(const SweepProgress &p)
{
    char head[768];
    std::snprintf(head, sizeof(head),
                  "%s v%u done=%zu total=%zu job_s=%.17g host_s=%.17g "
                  "elapsed_s=%.17g eta_s=%.17g geomean_ipc=%.17g "
                  "kips=%.17g host_p50=%.17g host_p95=%.17g "
                  "host_p99=%.17g ",
                  kProgressLineTag, kProgressLineVersion, p.done, p.total,
                  p.jobHostSeconds, p.totalHostSeconds, p.elapsedSeconds,
                  p.etaSeconds, p.geomeanIpc, p.kips, p.hostP50, p.hostP95,
                  p.hostP99);
    return std::string(head) + "label=" + p.label;
}

bool
parseProgressLine(const std::string &lineIn, SweepProgress *out)
{
    std::string line = lineIn;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    const std::string head = std::string(kProgressLineTag) + " v" +
                             std::to_string(kProgressLineVersion) + " ";
    if (line.size() < head.size() || line.compare(0, head.size(), head) != 0)
        return false;

    SweepProgress p;
    uint64_t done = 0, total = 0;
    const std::pair<const char *, uint64_t *> counts[] = {{"done", &done},
                                                          {"total", &total}};
    const std::pair<const char *, double *> reals[] = {
        {"job_s", &p.jobHostSeconds},   {"host_s", &p.totalHostSeconds},
        {"elapsed_s", &p.elapsedSeconds}, {"eta_s", &p.etaSeconds},
        {"geomean_ipc", &p.geomeanIpc}, {"kips", &p.kips},
        {"host_p50", &p.hostP50},       {"host_p95", &p.hostP95},
        {"host_p99", &p.hostP99}};
    bool haveDone = false, haveTotal = false, haveLabel = false;
    size_t pos = head.size();
    while (pos < line.size()) {
        const size_t eq = line.find('=', pos);
        if (eq == std::string::npos || eq == pos)
            return false;
        const std::string key = line.substr(pos, eq - pos);
        if (key.find(' ') != std::string::npos)
            return false;
        if (key == "label") {
            // The label is last and runs to end of line (labels never
            // need escaping; "=" or spaces inside one stay intact).
            p.label = line.substr(eq + 1);
            haveLabel = true;
            break;
        }
        size_t end = line.find(' ', eq + 1);
        if (end == std::string::npos)
            end = line.size();
        const std::string val = line.substr(eq + 1, end - eq - 1);
        // Unknown keys are skipped: a same-major-version harness may
        // append fields without breaking older drivers.
        for (const auto &[name, field] : counts)
            if (key == name && !parseU64Token(val, field))
                return false;
        for (const auto &[name, field] : reals)
            if (key == name && !parseDoubleToken(val, field))
                return false;
        haveDone = haveDone || key == "done";
        haveTotal = haveTotal || key == "total";
        pos = end < line.size() ? end + 1 : end;
    }
    if (!haveDone || !haveTotal || !haveLabel)
        return false;
    p.done = size_t(done);
    p.total = size_t(total);
    *out = std::move(p);
    return true;
}

// --------------------------------------------------------------------------
// Launcher templates
// --------------------------------------------------------------------------

std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += '\'';
    return out;
}

bool
expandLauncher(const std::string &tmpl, const LauncherVars &vars,
               std::string *out, std::string *err)
{
    std::string res;
    bool sawCmd = false;
    for (size_t i = 0; i < tmpl.size(); ++i) {
        if (tmpl[i] != '{') {
            res += tmpl[i];
            continue;
        }
        const size_t close = tmpl.find('}', i);
        if (close == std::string::npos) {
            if (err)
                *err = "unclosed '{' in launcher template at position " +
                       std::to_string(i);
            return false;
        }
        const std::string name = tmpl.substr(i + 1, close - i - 1);
        if (name == "i") {
            res += vars.shardIndex;
        } else if (name == "n") {
            res += vars.shardCount;
        } else if (name == "cmd") {
            res += vars.command;
            sawCmd = true;
        } else if (name == "host") {
            if (vars.host.empty()) {
                if (err)
                    *err = "launcher template uses {host} but no --ssh "
                           "hosts are configured";
                return false;
            }
            res += vars.host;
        } else {
            if (err)
                *err = "unknown placeholder '{" + name +
                       "}' in launcher template (allowed: {i}, {n}, "
                       "{cmd}, {host})";
            return false;
        }
        i = close;
    }
    // A template without {cmd} is a pure wrapper ("srun", "nice -n
    // 19", ...): run the bench command after it.
    if (!sawCmd) {
        if (!res.empty())
            res += ' ';
        res += vars.command;
    }
    if (out)
        *out = std::move(res);
    return true;
}

// --------------------------------------------------------------------------
// Options, parsing, shard command composition
// --------------------------------------------------------------------------

namespace {

/** "./name" when a bare name exists in the working directory (bench
 *  binaries normally sit next to the driver in build/); otherwise the
 *  path as given (execvp falls back to PATH). */
std::string
resolveBenchPath(const std::string &path)
{
    if (path.find('/') != std::string::npos)
        return path;
    std::error_code ec;
    if (fs::exists("./" + path, ec))
        return "./" + path;
    return path;
}

std::string
shardDirOf(const DriverOptions &opts)
{
    return (fs::path(opts.run.artifactDir) / (opts.benchName + ".shards"))
        .string();
}

/** Split comma-separated @p v into @p out; false when any entry is
 *  empty. */
bool
splitList(const std::string &v, std::vector<std::string> *out)
{
    out->clear();
    for (size_t start = 0; start <= v.size();) {
        const size_t comma = std::min(v.find(',', start), v.size());
        if (comma == start)
            return false;
        out->push_back(v.substr(start, comma - start));
        start = comma + 1;
    }
    return true;
}

/** Validate a user-supplied bench/artifact name: it becomes a file
 *  name component, so path separators are rejected. */
bool
validBenchName(const std::string &name)
{
    return !name.empty() && name.find('/') == std::string::npos;
}

} // namespace

std::string
shardArtifactName(const std::string &bench, unsigned index, unsigned count)
{
    if (count <= 1)
        return "BENCH_" + bench + ".json";
    return "BENCH_" + bench + ".shard" + std::to_string(index) + "of" +
           std::to_string(count) + ".json";
}

bool
parseDriverArgs(const std::vector<std::string> &args, DriverOptions *out,
                std::string *err)
{
    DriverOptions o;
    std::vector<std::string> positional;
    size_t i = 0;
    const auto value = [&](const std::string &flag,
                           std::string *v) -> bool {
        if (i + 1 >= args.size()) {
            *err = flag + " requires a value";
            return false;
        }
        *v = args[++i];
        return true;
    };
    for (; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        if (a == "--") {
            o.benchArgs.assign(args.begin() + i + 1, args.end());
            if (std::find(o.benchArgs.begin(), o.benchArgs.end(),
                          "--wire") != o.benchArgs.end()) {
                *err = "--wire is the driver's own shard channel; do not "
                       "pass it to the bench";
                return false;
            }
            break;
        } else if (a == "--shards") {
            uint64_t n = 0;
            if (!value(a, &v))
                return false;
            if (!parseU64Token(v, &n) || n == 0 || n > kMaxEnvThreads) {
                *err = "invalid --shards '" + v +
                       "' (want an integer in [1, " +
                       std::to_string(kMaxEnvThreads) + "])";
                return false;
            }
            o.shards = unsigned(n);
        } else if (a == "--bench-name") {
            if (!value(a, &v))
                return false;
            if (!validBenchName(v)) {
                *err = "invalid --bench-name '" + v +
                       "' (want a non-empty name without '/')";
                return false;
            }
            o.benchName = v;
        } else if (a == "--artifact-dir") {
            if (!value(a, &o.run.artifactDir))
                return false;
        } else if (a == "--result-cache") {
            if (!value(a, &o.run.resultCacheDir))
                return false;
        } else if (a == "--baseline") {
            if (!value(a, &o.run.baselinePath))
                return false;
        } else if (a == "--tolerance") {
            if (!value(a, &v))
                return false;
            if (!parseTolerance(v.c_str(), &o.run.tolerance)) {
                *err = "invalid --tolerance '" + v +
                       "' (want a finite non-negative number)";
                return false;
            }
        } else if (a == "--recompute-geomeans") {
            if (!value(a, &v))
                return false;
            if (v.empty()) {
                *err = "--recompute-geomeans requires a non-empty base "
                       "config name";
                return false;
            }
            o.geomeanBase = v;
        } else if (a == "--timeout") {
            if (!value(a, &v))
                return false;
            double t = 0.0;
            if (!parseDoubleToken(v, &t) || t < 0.0) {
                *err = "invalid --timeout '" + v +
                       "' (want a finite non-negative number of seconds)";
                return false;
            }
            o.timeoutSeconds = t;
        } else if (a == "--retries") {
            uint64_t n = 0;
            if (!value(a, &v))
                return false;
            if (!parseU64Token(v, &n) || n > 1000) {
                *err = "invalid --retries '" + v +
                       "' (want an integer in [0, 1000])";
                return false;
            }
            o.retries = unsigned(n);
        } else if (a == "--launcher") {
            if (!value(a, &o.launcher))
                return false;
            if (o.launcher.empty()) {
                *err = "--launcher requires a non-empty template";
                return false;
            }
        } else if (a == "--ssh") {
            if (!value(a, &v))
                return false;
            if (!splitList(v, &o.sshHosts)) {
                *err = "invalid --ssh '" + v +
                       "' (want a comma-separated list of non-empty "
                       "hosts)";
                return false;
            }
        } else if (a == "--no-progress") {
            o.streamProgress = false;
        } else if (!a.empty() && a[0] == '-') {
            *err = "unknown flag '" + a + "'";
            return false;
        } else {
            positional.push_back(a);
        }
    }
    if (positional.empty()) {
        *err = "missing bench binary argument";
        return false;
    }
    if (positional.size() > 1) {
        *err = "expected exactly one bench binary, got '" + positional[0] +
               "' and '" + positional[1] +
               "' (pass bench arguments after --)";
        return false;
    }
    o.benchPath = positional[0];
    if (!o.launcher.empty()) {
        // Validate the template now: a malformed launcher must fail
        // before any shard is spawned, not after n-1 of them ran.
        LauncherVars probe{"0", std::to_string(o.shards), "cmd",
                           o.sshHosts.empty() ? "" : "host"};
        std::string expanded;
        if (!expandLauncher(o.launcher, probe, &expanded, err))
            return false;
        // With both flags, the hosts exist solely to rotate through
        // {host}; a template that never uses it would silently run
        // every shard on the local machine.
        if (!o.sshHosts.empty() &&
            o.launcher.find("{host}") == std::string::npos) {
            *err = "--ssh hosts are unused: the --launcher template "
                   "does not contain {host}, so every shard would run "
                   "locally";
            return false;
        }
    }
    if (o.benchName.empty()) {
        o.benchName = fs::path(o.benchPath).filename().string();
        if (!validBenchName(o.benchName)) {
            *err = "cannot derive a bench name from '" + o.benchPath +
                   "' (pass --bench-name)";
            return false;
        }
    }
    *out = std::move(o);
    return true;
}

std::vector<std::string>
buildShardArgv(const DriverOptions &opts, unsigned index, std::string *err)
{
    std::vector<std::string> bench;
    bench.push_back(resolveBenchPath(opts.benchPath));
    bench.push_back("--shard");
    bench.push_back(std::to_string(index) + "/" +
                    std::to_string(opts.shards));
    // The shard's stdout is its frame channel: progress envelopes, then
    // the artifact in the result envelope.
    bench.push_back("--wire");
    if (!opts.run.resultCacheDir.empty()) {
        bench.push_back("--result-cache");
        bench.push_back(opts.run.resultCacheDir);
    }
    bench.insert(bench.end(), opts.benchArgs.begin(), opts.benchArgs.end());

    if (opts.launcher.empty() && opts.sshHosts.empty())
        return bench;

    std::string cmd;
    for (const auto &a : bench) {
        if (!cmd.empty())
            cmd += ' ';
        cmd += shellQuote(a);
    }
    const std::string host =
        opts.sshHosts.empty()
            ? std::string()
            : opts.sshHosts[index % opts.sshHosts.size()];
    if (opts.launcher.empty()) {
        // Built-in ssh wrapper. Artifacts come back over the wire, but
        // the bench binary and --result-cache paths are the driver's:
        // cd to its working directory so relative ones resolve on
        // every host (a shared filesystem).
        std::error_code ec;
        const std::string cwd = fs::current_path(ec).string();
        return {"ssh", "-oBatchMode=yes", host,
                "cd " + shellQuote(cwd) + " && " + cmd};
    }
    // A launcher template takes over the wrapping entirely; --ssh then
    // only supplies the round-robin {host} rotation (e.g.
    // --launcher 'ssh {host} timeout 3600 {cmd}' --ssh h1,h2).
    LauncherVars vars{std::to_string(index), std::to_string(opts.shards),
                      cmd, host};
    std::string expanded;
    if (!expandLauncher(opts.launcher, vars, &expanded, err))
        return {};
    return {"/bin/sh", "-c", expanded};
}

// --------------------------------------------------------------------------
// The shard engine
// --------------------------------------------------------------------------

namespace {

constexpr size_t kOutputTailMax = 64 * 1024;
constexpr int kPollMillis = 50;
constexpr double kRenderIntervalSeconds = 0.5;
/** How long after a shard child's own exit the driver keeps waiting
 *  for its pipes to reach EOF before force-closing them: a descendant
 *  that inherited the write ends (a daemonized helper, a backgrounded
 *  launcher wrapper) must not be able to hang the whole fleet. */
constexpr double kExitDrainGraceSeconds = 2.0;

/** Set by the SIGINT/SIGTERM handler while a fleet is running, so an
 *  interrupted driver kills and reaps its shards instead of orphaning
 *  them (an orphan would keep simulating for nobody). */
volatile std::sig_atomic_t gDriverInterrupted = 0;

void
onDriverSignal(int)
{
    gDriverInterrupted = 1;
}

/** Installs the interrupt flag handler for the driver's lifetime and
 *  restores the previous handlers on scope exit (the driver is also a
 *  library entry point; tests call it in-process). */
struct SignalGuard
{
    struct sigaction oldInt{}, oldTerm{};

    SignalGuard()
    {
        gDriverInterrupted = 0;
        struct sigaction sa{};
        sa.sa_handler = onDriverSignal;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }
    ~SignalGuard()
    {
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }
};

void
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

/** Read non-blocking @p fd until it would block, handing each chunk to
 *  @p sink. False at EOF or on a read error: the stream is over. */
template <typename Sink>
bool
drainFd(int fd, Sink &&sink)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            sink(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
}

/** One shard across its (possibly retried) attempts. Every attempt is
 *  a child process (a local bench, or a --launcher or ssh wrapper)
 *  whose stdout pipe is a frame stream and whose stderr is captured. */
struct ShardSlot
{
    unsigned index = 0;
    unsigned attempts = 0;
    pid_t pid = -1;   ///< the attempt's child
    int frameFd = -1; ///< the child's stdout: its frame stream
    int errFd = -1;   ///< the child's stderr (read end)
    FrameReader frames;
    std::string outputTail; ///< the child's stderr (bounded tail)
    /** Why the attempt failed on the wire: a malformed stream or an
     *  error envelope ("" = no such failure). */
    std::string failure;
    bool haveResult = false;
    std::string artifact; ///< the result envelope's BENCH_*.json text
    bool haveProgress = false;
    size_t progressLines = 0;
    SweepProgress progress;
    Clock::time_point start;
    Clock::time_point exitTime; ///< when the child was reaped
    bool running = false;
    bool exited = false; ///< child reaped
    bool timedOut = false;
    bool aborted = false; ///< driver gave up on this shard (interrupt,
                          ///< poll failure): never counts as ok
    int status = 0; ///< raw waitpid status of the child
    double seconds = 0.0;

    bool
    okNow() const
    {
        return haveResult && failure.empty() && !timedOut && !aborted &&
               WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    /** Why the attempt failed, for log lines. */
    std::string
    describeStatus() const
    {
        if (aborted)
            return "aborted by driver";
        if (timedOut)
            return "timed out";
        if (!failure.empty())
            return failure;
        if (WIFSIGNALED(status))
            return "signal " + std::to_string(WTERMSIG(status));
        if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
            return "exit " + std::to_string(WEXITSTATUS(status));
        return "stream ended without a result frame";
    }
};

/** End @p s's attempt as failed: record why (the first reason wins),
 *  stop reading its frames, and kill its child, which can no longer
 *  deliver a usable result. */
void
failAttempt(ShardSlot &s, const std::string &why)
{
    if (s.failure.empty())
        s.failure = why;
    closeFd(s.frameFd);
    if (s.pid > 0 && !s.exited) {
        ::kill(-s.pid, SIGKILL);
        ::kill(s.pid, SIGKILL);
    }
}

/** Fork/exec shard @p s with its stdout on the frame pipe and its
 *  stderr on the capture pipe. */
bool
spawnChild(const DriverOptions &opts, ShardSlot &s, std::string *err)
{
    const auto argv = buildShardArgv(opts, s.index, err);
    if (argv.empty())
        return false;
    // O_CLOEXEC: dup2() below clears it on the child's fds 1 and 2,
    // and no other shard's pipe leaks into an exec'd child.
    int framePipe[2] = {-1, -1}, errPipe[2] = {-1, -1};
    if (::pipe2(framePipe, O_CLOEXEC) != 0 ||
        ::pipe2(errPipe, O_CLOEXEC) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        for (int fd : {framePipe[0], framePipe[1], errPipe[0], errPipe[1]})
            if (fd >= 0)
                ::close(fd);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        for (int fd : {framePipe[0], framePipe[1], errPipe[0], errPipe[1]})
            ::close(fd);
        return false;
    }
    if (pid == 0) {
        // Child. Own process group, so a kill reaches sh/ssh wrappers
        // and their children, not just the immediate process.
        ::setpgid(0, 0);
        ::dup2(framePipe[1], 1);
        ::dup2(errPipe[1], 2);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const auto &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        ::execvp(cargv[0], cargv.data());
        std::fprintf(stderr, "conopt_sweep: cannot exec %s: %s\n",
                     cargv[0], std::strerror(errno));
        ::_exit(127);
    }

    // Parent. Set the pgid from this side too, closing the race where
    // a kill lands before the child reaches its own setpgid().
    ::setpgid(pid, pid);
    ::close(framePipe[1]);
    ::close(errPipe[1]);
    setNonblocking(framePipe[0]);
    setNonblocking(errPipe[0]);
    s.pid = pid;
    s.frameFd = framePipe[0];
    s.errFd = errPipe[0];
    s.exited = false;
    return true;
}

/** Start the next attempt of shard @p s. False (with @p err) only when
 *  a child cannot be launched at all. */
bool
startAttempt(const DriverOptions &opts, ShardSlot &s, std::string *err)
{
    ++s.attempts;
    s.pid = -1;
    s.frames = FrameReader{};
    s.outputTail.clear();
    s.failure.clear();
    s.haveResult = false;
    s.artifact.clear();
    // A retry starts from zero: the failed attempt's last progress
    // snapshot must not inflate the aggregate line until the new
    // attempt reports (progressLines stays cumulative by design).
    s.haveProgress = false;
    s.progress = SweepProgress{};
    s.start = Clock::now();
    s.timedOut = false;
    s.status = 0;
    s.seconds = 0.0;
    s.running = spawnChild(opts, s, err);
    return s.running;
}

/** Read @p s's frame stream and act on every complete envelope. A
 *  malformed stream or an error envelope fails the attempt; EOF ends
 *  the stream. */
void
readFrames(ShardSlot &s, bool *progressed)
{
    const bool open = drainFd(s.frameFd, [&s](const char *d, size_t n) {
        s.frames.feed(d, n);
    });
    std::string payload, err;
    for (int got; (got = s.frames.next(&payload, &err)) != 0;) {
        ServerFrame f;
        if (got < 0 || !parseServerFrame(payload, &f, &err)) {
            failAttempt(s, "malformed frame stream: " + err);
            return;
        }
        if (f.type == ServerFrame::Type::Progress) {
            // A line this driver cannot read is skipped, not fatal:
            // progress is advisory.
            SweepProgress p;
            if (parseProgressLine(f.line, &p)) {
                s.progress = std::move(p);
                s.haveProgress = true;
                ++s.progressLines;
                *progressed = true;
            }
        } else if (f.type == ServerFrame::Type::Result) {
            s.artifact = std::move(f.artifact);
            s.haveResult = true;
        } else {
            failAttempt(s, "shard error (code " + std::to_string(f.code) +
                               "): " + f.message);
            return;
        }
    }
    if (!open && s.frames.pending() > 0)
        failAttempt(s, "frame stream ended mid-frame");
    else if (!open)
        closeFd(s.frameFd);
}

void
drainStderr(ShardSlot &s)
{
    const bool open = drainFd(s.errFd, [&s](const char *d, size_t n) {
        s.outputTail.append(d, n);
        if (s.outputTail.size() > kOutputTailMax)
            s.outputTail.erase(0, s.outputTail.size() - kOutputTailMax);
    });
    if (!open)
        closeFd(s.errFd);
}

void
renderProgress(const std::vector<ShardSlot> &shards)
{
    size_t done = 0, total = 0;
    bool any = false;
    std::string per;
    for (const auto &s : shards) {
        if (!s.haveProgress)
            continue;
        any = true;
        done += s.progress.done;
        total += s.progress.total;
        char buf[192];
        const int len =
            std::snprintf(buf, sizeof(buf), "  shard%u %zu/%zu eta %.0fs",
                          s.index, s.progress.done, s.progress.total,
                          s.progress.etaSeconds);
        // Live fleet observability (when the shard's harness measures
        // it): running host throughput plus per-job host-latency
        // percentiles.
        if (len > 0 && size_t(len) < sizeof(buf) &&
            (s.progress.kips > 0.0 || s.progress.hostP99 > 0.0))
            std::snprintf(buf + len, sizeof(buf) - size_t(len),
                          " %.0fkips p50/p95/p99 %.3f/%.3f/%.3fs",
                          s.progress.kips, s.progress.hostP50,
                          s.progress.hostP95, s.progress.hostP99);
        per += buf;
    }
    if (any)
        std::fprintf(stderr, "[conopt_sweep] %zu/%zu jobs%s\n", done,
                     total, per.c_str());
}

/** Kill and reap every running attempt: the bail-out path for a
 *  mid-launch spawn failure, an interrupt, or a broken poll loop. Each
 *  is marked aborted, so an abandoned shard can never be mistaken for
 *  a successful one. */
void
killRemaining(std::vector<ShardSlot> &shards)
{
    for (auto &s : shards) {
        if (!s.running)
            continue;
        if (!s.exited) {
            ::kill(-s.pid, SIGKILL);
            ::kill(s.pid, SIGKILL);
            int st = 0;
            if (::waitpid(s.pid, &st, 0) == s.pid)
                s.status = st;
            s.exited = true;
        }
        s.seconds = secondsSince(s.start);
        s.aborted = true;
        closeFd(s.frameFd);
        closeFd(s.errFd);
        s.running = false;
    }
}

/** Indent a captured-output tail for failure reports. */
void
printOutputTail(unsigned index, const std::string &tail)
{
    std::fprintf(stderr,
                 "--- shard %u captured output (last %zu bytes) ---\n",
                 index, tail.size());
    std::fwrite(tail.data(), 1, tail.size(), stderr);
    if (!tail.empty() && tail.back() != '\n')
        std::fputc('\n', stderr);
    std::fprintf(stderr, "--- end shard %u output ---\n", index);
}

void mergeAndGate(const DriverOptions &opts, const std::string &sdir,
                  DriverOutcome *outp);

} // namespace

DriverOutcome
runSweepDriver(const DriverOptions &optsIn)
{
    DriverOutcome out;
    DriverOptions opts = optsIn;
    if (opts.shards == 0 || opts.shards > kMaxEnvThreads) {
        out.error = "invalid shard count " + std::to_string(opts.shards);
        return out;
    }
    if (opts.benchName.empty())
        opts.benchName = fs::path(opts.benchPath).filename().string();
    if (!validBenchName(opts.benchName)) {
        out.error = "cannot derive a bench name from '" + opts.benchPath +
                    "' (set benchName)";
        return out;
    }

    // Local direct-exec mode fails fast on a missing binary; launcher
    // and ssh commands can only be validated by running them.
    if (opts.launcher.empty() && opts.sshHosts.empty()) {
        const std::string resolved = resolveBenchPath(opts.benchPath);
        std::error_code ec;
        if (resolved.find('/') != std::string::npos &&
            !fs::exists(resolved, ec)) {
            out.error = "bench binary '" + opts.benchPath + "' not found";
            return out;
        }
    }

    const std::string sdir = shardDirOf(opts);
    std::error_code ec;
    fs::create_directories(opts.run.artifactDir, ec);
    fs::create_directories(sdir, ec);
    if (ec) {
        out.error =
            "cannot create shard directory " + sdir + ": " + ec.message();
        return out;
    }
    // Stale artifacts from an earlier run (possibly with a different
    // shard count) would merge in or collide; the shard directory is
    // driver-owned, so clearing it is safe.
    try {
        for (const auto &e : fs::directory_iterator(sdir)) {
            if (e.is_regular_file() && e.path().extension() == ".json")
                fs::remove(e.path(), ec);
        }
    } catch (const fs::filesystem_error &fe) {
        out.error = std::string("cannot clean shard directory: ") +
                    fe.what();
        return out;
    }

    const unsigned maxAttempts = opts.retries + 1;
    // From here on the driver owns shard attempts: catch SIGINT /
    // SIGTERM so an interrupted run kills and reaps its fleet instead
    // of orphaning shards.
    SignalGuard signalGuard;
    std::vector<ShardSlot> shards(opts.shards);
    for (unsigned i = 0; i < opts.shards; ++i) {
        shards[i].index = i;
        std::string serr;
        if (!startAttempt(opts, shards[i], &serr)) {
            killRemaining(shards);
            out.error = "cannot launch shard " + std::to_string(i) + ": " +
                        serr;
            return out;
        }
    }
    std::fprintf(stderr,
                 "[conopt_sweep] launched %u shard%s of %s (artifacts in "
                 "%s)\n",
                 opts.shards, opts.shards == 1 ? "" : "s",
                 opts.benchName.c_str(), sdir.c_str());

    size_t live = shards.size();
    auto lastRender = Clock::now();
    bool progressDirty = false;
    std::string abortReason;
    while (live > 0) {
        if (gDriverInterrupted) {
            abortReason = "interrupted; fleet killed";
            std::fprintf(stderr,
                         "[conopt_sweep] interrupted; killing %zu "
                         "running shard(s)\n",
                         live);
            killRemaining(shards);
            break;
        }
        std::vector<pollfd> pfds;
        std::vector<ShardSlot *> owner;
        for (auto &s : shards) {
            for (int fd : {s.frameFd, s.errFd}) {
                if (s.running && fd >= 0) {
                    pfds.push_back({fd, POLLIN, 0});
                    owner.push_back(&s);
                }
            }
        }
        // With no fd open this just sleeps: a child is still unreaped.
        const int pr =
            ::poll(pfds.data(), nfds_t(pfds.size()), kPollMillis);
        if (pr < 0 && errno != EINTR) {
            // A broken event loop cannot supervise the fleet: kill and
            // reap everything (recorded as aborted, so no half-finished
            // shard masquerades as success).
            abortReason = std::string("poll failed: ") +
                          std::strerror(errno) + "; fleet killed";
            killRemaining(shards);
            break;
        }
        for (size_t k = 0; pr > 0 && k < pfds.size(); ++k) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ShardSlot &s = *owner[k];
            if (pfds[k].fd == s.frameFd)
                readFrames(s, &progressDirty);
            else if (pfds[k].fd == s.errFd)
                drainStderr(s);
        }

        for (auto &s : shards) {
            if (!s.running)
                continue;
            if (!s.exited) {
                int st = 0;
                if (::waitpid(s.pid, &st, WNOHANG) == s.pid) {
                    s.exited = true;
                    s.status = st;
                    s.exitTime = Clock::now();
                }
            }
            if (!s.timedOut && opts.timeoutSeconds > 0.0 &&
                (!s.exited || s.frameFd >= 0) &&
                secondsSince(s.start) > opts.timeoutSeconds) {
                s.timedOut = true;
                std::fprintf(stderr,
                             "[conopt_sweep] shard %u/%u timed out after "
                             "%.1fs; killing\n",
                             s.index, opts.shards, opts.timeoutSeconds);
                failAttempt(s, "timed out");
            }
            if (s.pid > 0 && s.exited &&
                (s.frameFd >= 0 || s.errFd >= 0) &&
                secondsSince(s.exitTime) > kExitDrainGraceSeconds) {
                // The shard itself is gone but a descendant still
                // holds the pipe write ends (daemonized helper,
                // backgrounded wrapper). Kill the stragglers, take any
                // last buffered bytes, and finalize on what the shard
                // itself sent — a leaked fd must never hang the fleet
                // or defeat the timeout.
                ::kill(-s.pid, SIGKILL);
                if (s.frameFd >= 0)
                    readFrames(s, &progressDirty);
                if (s.errFd >= 0)
                    drainStderr(s);
                closeFd(s.frameFd);
                closeFd(s.errFd);
            }
            if (!s.exited || s.frameFd >= 0 || s.errFd >= 0)
                continue;
            s.running = false;
            s.seconds = secondsSince(s.start);
            --live;
            if (s.okNow()) {
                std::fprintf(stderr,
                             "[conopt_sweep] shard %u/%u: ok in %.1fs "
                             "(attempt %u)\n",
                             s.index, opts.shards, s.seconds, s.attempts);
            } else if (s.attempts < maxAttempts) {
                std::fprintf(stderr,
                             "[conopt_sweep] shard %u/%u attempt %u failed "
                             "(%s); retrying (%u attempt%s left)\n",
                             s.index, opts.shards, s.attempts,
                             s.describeStatus().c_str(),
                             maxAttempts - s.attempts,
                             maxAttempts - s.attempts == 1 ? "" : "s");
                std::string serr;
                if (startAttempt(opts, s, &serr))
                    ++live;
                else
                    s.failure = "cannot relaunch: " + serr;
            }
        }

        if (opts.streamProgress && progressDirty &&
            secondsSince(lastRender) >= kRenderIntervalSeconds) {
            renderProgress(shards);
            lastRender = Clock::now();
            progressDirty = false;
        }
    }

    // An interrupt that landed after the last finalize (the loop only
    // checks the flag at its top) must still abort before merging.
    if (gDriverInterrupted && abortReason.empty())
        abortReason = "interrupted; not merging";

    // Collect final outcomes; any shard without a clean result is a
    // hard failure with its captured output surfaced.
    unsigned failures = 0;
    for (const auto &s : shards) {
        ShardOutcome so;
        so.index = s.index;
        so.attempts = s.attempts;
        so.ok = s.okNow();
        so.timedOut = s.timedOut;
        so.exitStatus = WIFEXITED(s.status)   ? WEXITSTATUS(s.status)
                        : WIFSIGNALED(s.status) ? -WTERMSIG(s.status)
                                                : -1;
        so.seconds = s.seconds;
        so.outputTail = s.outputTail;
        if (!s.failure.empty())
            so.outputTail += "[conopt_sweep] " + s.failure + "\n";
        so.progressLines = s.progressLines;
        if (!so.ok) {
            ++failures;
            std::fprintf(stderr,
                         "[conopt_sweep] shard %u/%u FAILED after %u "
                         "attempt%s (%s)\n",
                         s.index, opts.shards, s.attempts,
                         s.attempts == 1 ? "" : "s",
                         s.describeStatus().c_str());
            printOutputTail(s.index, so.outputTail);
        }
        out.shards.push_back(std::move(so));
    }
    if (!abortReason.empty()) {
        out.error = abortReason;
        return out;
    }
    if (failures > 0) {
        out.error = std::to_string(failures) + " of " +
                    std::to_string(opts.shards) +
                    " shard(s) failed; not merging";
        return out;
    }

    // Every artifact arrived in a result frame: keep the exact bytes in
    // the shard directory, which the merge (and any audit) reads.
    for (const auto &s : shards) {
        const std::string path =
            (fs::path(sdir) /
             shardArtifactName(opts.benchName, s.index, opts.shards))
                .string();
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << s.artifact;
        f.close();
        if (!f) {
            out.error = "cannot write shard artifact " + path;
            return out;
        }
    }
    mergeAndGate(opts, sdir, &out);
    return out;
}

namespace {

/** Merge the shard directory, recompute the deferred figure geomeans,
 *  save the merged artifact, and gate it against the baseline. Fills
 *  out->exitCode/error/mergedArtifactPath/gateDiffs. */
void
mergeAndGate(const DriverOptions &opts, const std::string &sdir,
             DriverOutcome *outp)
{
    DriverOutcome &out = *outp;
    std::error_code ec;
    BenchArtifact merged;
    std::string err;
    if (!loadArtifactOrShards(sdir, &merged, &err)) {
        out.error = "cannot merge shard artifacts: " + err;
        return;
    }
    if (merged.jobs.empty()) {
        out.error = "merged artifact has zero jobs: nothing was swept";
        return;
    }
    merged.sortJobsByLabel();

    // Resolve and load the baseline before any geomean recompute so
    // the recomputed columns can mirror the baseline's exactly (the
    // conopt_bench_check contract).
    BenchArtifact baseline;
    bool haveBaseline = false;
    std::string basePath = opts.run.baselinePath;
    if (!basePath.empty() && fs::is_directory(basePath, ec)) {
        basePath = (fs::path(basePath) /
                    ("BENCH_" + opts.benchName + ".json"))
                       .string();
        if (!fs::exists(basePath, ec)) {
            std::fprintf(stderr,
                         "[conopt_sweep] no baseline for %s in %s; gate "
                         "skipped\n",
                         opts.benchName.c_str(),
                         opts.run.baselinePath.c_str());
            basePath.clear();
        }
    }
    if (!basePath.empty()) {
        if (!loadArtifact(basePath, &baseline, &err)) {
            out.error = "cannot load baseline: " + err;
            return;
        }
        haveBaseline = true;
    }

    // Shards defer a figure's geomeans to the merge, so without a base
    // to recompute them over, the gate could only report every one of
    // them missing: a usage error, not drift.
    if (opts.geomeanBase.empty() && haveBaseline &&
        !baseline.geomeans.empty() && merged.geomeans.empty()) {
        out.error = "baseline " + basePath +
                    " has figure geomeans, which shards defer to the "
                    "merge; pass --recompute-geomeans <base> (the "
                    "figure's base config, e.g. base)";
        return;
    }
    if (!opts.geomeanBase.empty()) {
        std::vector<std::string> cols;
        if (haveBaseline) {
            for (const auto &[k, v] : baseline.geomeans) {
                (void)v;
                cols.push_back(k);
            }
        } else {
            std::set<std::string> configs;
            for (const auto &j : merged.jobs)
                if (!j.config.empty() && j.config != opts.geomeanBase)
                    configs.insert(j.config);
            cols.assign(configs.begin(), configs.end());
        }
        merged.geomeans.clear();
        merged.addGeomeansFromJobs(opts.geomeanBase, cols);
    }

    const std::string mergedPath =
        (fs::path(opts.run.artifactDir) / ("BENCH_" + opts.benchName + ".json"))
            .string();
    if (!merged.save(mergedPath, &err)) {
        out.error = "cannot write merged artifact: " + err;
        return;
    }
    out.mergedArtifactPath = mergedPath;
    std::fprintf(stderr,
                 "[conopt_sweep] merged %u shard artifact%s -> %s (%zu "
                 "jobs, %zu geomeans)\n",
                 opts.shards, opts.shards == 1 ? "" : "s",
                 mergedPath.c_str(), merged.jobs.size(),
                 merged.geomeans.size());

    // Last interrupt window: a Ctrl-C during the merge itself must
    // not be swallowed into a clean exit 0 / gate verdict.
    if (gDriverInterrupted) {
        out.error = "interrupted during merge";
        out.exitCode = 2;
        return;
    }
    if (!haveBaseline) {
        out.exitCode = 0;
        return;
    }
    const auto cmp = compareArtifacts(baseline, merged, {opts.run.tolerance});
    if (!cmp.ok) {
        std::fprintf(stderr,
                     "[conopt_sweep] BASELINE DRIFT vs %s (%zu "
                     "difference%s, tolerance %g):\n",
                     basePath.c_str(), cmp.diffs.size(),
                     cmp.diffs.size() == 1 ? "" : "s", opts.run.tolerance);
        for (const auto &d : cmp.diffs)
            std::fprintf(stderr, "  %s\n", d.c_str());
        out.gateDiffs = cmp.diffs;
        out.exitCode = 1;
        return;
    }
    std::fprintf(stderr,
                 "[conopt_sweep] merged artifact matches baseline %s "
                 "(tolerance %g)\n",
                 basePath.c_str(), opts.run.tolerance);
    out.exitCode = 0;
}

} // namespace

// --------------------------------------------------------------------------
// CLI
// --------------------------------------------------------------------------

namespace {

constexpr const char *kUsage =
    "usage: conopt_sweep [options] <bench> [-- <bench args...>]\n"
    "  Launches <bench> as N shard processes (--shard i/n --wire),\n"
    "  streams their progress, waits with per-shard timeout and bounded\n"
    "  retry, merges the returned BENCH artifacts, optionally\n"
    "  recomputes the deferred figure geomeans, and gates the merged\n"
    "  artifact against a baseline.\n"
    "options:\n"
    "  --shards N              shard process count (default 2)\n"
    "  --bench-name NAME       artifact name (default: basename of "
    "<bench>)\n"
    "  --artifact-dir DIR      merged artifact directory; shards write\n"
    "                          to DIR/<name>.shards/ (default .)\n"
    "  --result-cache DIR      forward --result-cache DIR to every "
    "shard\n"
    "  --baseline PATH         gate the merged artifact (file or\n"
    "                          baseline directory)\n"
    "  --tolerance T           gate tolerance (default 0: exact)\n"
    "  --recompute-geomeans B  rebuild the merged figure geomeans over\n"
    "                          base config B (needed for figure "
    "benches)\n"
    "  --timeout SECONDS       per-shard-attempt timeout (default: "
    "none)\n"
    "  --retries K             extra attempts per failed shard "
    "(default 1)\n"
    "  --launcher TMPL         wrap shard commands; {i} {n} {cmd} "
    "{host}\n"
    "                          placeholders ({cmd} appended if absent;\n"
    "                          {host} rotates over the --ssh list); the\n"
    "                          wrapper's stdout must carry only {cmd}'s\n"
    "  --ssh H1,H2,...         run shards round-robin over ssh hosts\n"
    "                          (bench and cache paths assume a shared\n"
    "                          filesystem; with --launcher, only\n"
    "                          supplies {host})\n"
    "  --no-progress           do not stream per-shard progress/ETA\n"
    "exit status: 0 merged artifact ok, 1 baseline drift, 2 error\n";

} // namespace

int
sweepDriverMain(const std::vector<std::string> &args)
{
    for (const auto &a : args) {
        if (a == "--help" || a == "-h") {
            // conopt-lint: allow(stray-output) --help goes to stdout
            std::fputs(kUsage, stdout);
            return 0;
        }
    }
    DriverOptions opts;
    std::string err;
    if (!parseDriverArgs(args, &opts, &err)) {
        std::fprintf(stderr, "conopt_sweep: %s\n%s", err.c_str(), kUsage);
        return 2;
    }
    const auto out = runSweepDriver(opts);
    if (out.exitCode == 2 && !out.error.empty())
        std::fprintf(stderr, "conopt_sweep: %s\n", out.error.c_str());
    return out.exitCode;
}

} // namespace conopt::sim
