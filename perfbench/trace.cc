#include "trace.hh"

#include <cstdio>

namespace perfbench {

int32_t
Tracer::begin(const char *name, int32_t job)
{
    if (!on_)
        return -1;
    const int32_t id = int32_t(spans_.size());
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent, job});
    open_.push_back(id);
    return id;
}

void
Tracer::end(int32_t id)
{
    if (id < 0)
        return;
    spans_[size_t(id)].endNs = nowNs();
    open_.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals(size_t from) const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent >= 0)
            childNs[size_t(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanTotals &t = out[s.name];
        const int64_t dur = s.endNs - s.startNs;
        t.totalS += double(dur) * 1e-9;
        t.selfS += double(dur - childNs[i]) * 1e-9;
        ++t.count;
    }
    return out;
}

bool
Tracer::write(const std::string &path,
              const std::vector<std::string> &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    for (const std::string &h : header)
        std::fprintf(f, "  %s,\n", h.c_str());
    std::fprintf(f, "  \"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "    {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"job\": %d}%s\n",
                     i, s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent, s.job,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
