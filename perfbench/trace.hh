/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span brackets one call the benchmark makes into a layer's public
 * function (Workload::build, SimSession::run, sim::runSweepDriver...):
 * name, start, end, the enclosing span, and the job it belongs to.
 * Spans live in a vector until the run ends and are written out once,
 * so recording costs two clock reads and a push_back. With tracing off
 * every call is a no-op, so the untraced run times the same code path.
 *
 * Spans nest strictly (one thread, stack discipline), which makes a
 * layer's self time its span's duration minus its direct children.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    const char *name;  ///< static string: the layer call
    int64_t startNs;   ///< from the tracer's epoch
    int64_t endNs;
    int32_t parent;    ///< index of the enclosing span, -1 at top level
    int32_t job;       ///< job id shared by one job's spans, -1 if none
};

/** Per-name totals derived from the recorded spans. */
struct SpanTotals
{
    double totalS = 0.0; ///< summed durations
    double selfS = 0.0;  ///< summed durations minus direct children
    uint64_t count = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    /** Open a span; returns its id (-1 when tracing is off). */
    int32_t begin(const char *name, int32_t job = -1);
    /** Close span @p id (must be the innermost open span). */
    void end(int32_t id);

    /** RAII form of begin()/end(). */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, int32_t job = -1)
            : t_(t), id_(t.begin(name, job))
        {}
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int32_t id_;
    };

    /** Number of spans recorded so far (a mark for totals()). */
    size_t mark() const { return spans_.size(); }

    /** Totals per span name over spans [from, mark()). */
    std::map<std::string, SpanTotals> totals(size_t from = 0) const;

    /** Write every span as JSON to @p path, with @p header as extra
     *  top-level members (already-encoded `"key": value` pairs). */
    bool write(const std::string &path,
               const std::vector<std::string> &header) const;

  private:
    int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
