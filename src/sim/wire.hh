/**
 * @file
 * The frame protocol a conopt_sweep shard speaks. A bench run with
 * `--wire` (src/sim/harness.hh) writes it on its stdout; the driver
 * (src/sim/driver.hh) reads it from each shard's pipe, whether the
 * shard is forked directly or runs under a `--launcher` or ssh
 * wrapper. Traffic flows one way: shard -> driver.
 *
 *   frame    := <decimal-length> ' ' <payload bytes> '\n'
 *               (length counts only the payload; max 64 MiB)
 *   payload  := one single-line JSON envelope
 *
 * Envelopes, in order, for the shard's one run:
 *   {"type":"progress","line":"CONOPT-PROGRESS v1 ..."}   0..n times
 *   {"type":"result","artifact":"<BENCH_*.json text>"}    terminal
 *   {"type":"error","code":<1|2>,"message":"..."}         terminal
 *
 * The progress lines are CONOPT-PROGRESS v1 lines (src/sim/driver.hh).
 * The artifact is the exact BenchArtifact::toJson() text, so the
 * driver writes the bytes verbatim and a merged artifact is
 * byte-identical however its shards were launched. Error codes follow
 * the repo-wide exit contract: 1 = the bench ran and failed, 2 = it
 * never ran. Any other envelope fails the shard's attempt as a
 * malformed stream.
 *
 * README.md ("Wire protocol") is the user-facing spec.
 */

#ifndef CONOPT_SIM_WIRE_HH
#define CONOPT_SIM_WIRE_HH

#include <cstddef>
#include <string>

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
     *  unrecoverable and the shard's attempt fails. */
    int next(std::string *payload, std::string *err);

    /** Bytes buffered but not yet consumed. */
    size_t pending() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Send @p payload as one frame on @p fd (handles partial writes; a
 *  vanished reader is EPIPE, never SIGPIPE). False with @p err on a
 *  write error. */
bool writeFrame(int fd, const std::string &payload, std::string *err);

// --------------------------------------------------------------------------
// Envelopes
// --------------------------------------------------------------------------

std::string makeProgressFrame(const std::string &progressLine);
std::string makeResultFrame(const std::string &artifactJson);
std::string makeErrorFrame(int code, const std::string &message);

/** One parsed shard -> driver envelope. */
struct ServerFrame
{
    enum class Type { Progress, Result, Error };
    Type type = Type::Error;
    std::string line;     ///< Progress: the CONOPT-PROGRESS line
    std::string artifact; ///< Result: verbatim BENCH_*.json text
    int code = 2;         ///< Error: 1 bench failed, 2 never ran
    std::string message;  ///< Error: diagnostic
};

/** Parse a shard -> driver payload. False with @p err on anything
 *  that is not a well-formed envelope of a known type. */
bool parseServerFrame(const std::string &payload, ServerFrame *out,
                      std::string *err);

} // namespace conopt::sim

#endif // CONOPT_SIM_WIRE_HH
