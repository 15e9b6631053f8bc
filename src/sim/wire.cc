#include "src/sim/wire.hh"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <utility>

#include "src/sim/baseline.hh"
#include "src/sim/report.hh"
#include "src/sim/request.hh"

namespace conopt::sim {

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

// --------------------------------------------------------------------------
// Envelopes
// --------------------------------------------------------------------------

std::string
makeProgressFrame(const std::string &progressLine)
{
    return "{\"type\":\"progress\",\"line\":\"" +
           jsonEscape(progressLine) + "\"}";
}

std::string
makeResultFrame(const std::string &artifactJson)
{
    return "{\"type\":\"result\",\"artifact\":\"" +
           jsonEscape(artifactJson) + "\"}";
}

std::string
makeErrorFrame(int code, const std::string &message)
{
    return std::string("{\"type\":\"error\",\"code\":") +
           std::to_string(code) + ",\"message\":\"" +
           jsonEscape(message) + "\"}";
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
    } else {
        *err = "unknown envelope type '" + t + "'";
        return false;
    }
    *out = std::move(f);
    return true;
}

} // namespace conopt::sim
