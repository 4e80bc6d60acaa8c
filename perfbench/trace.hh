/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is a named interval of host time with the span that caused
 * it and the op it belongs to. The benchmark opens spans around its
 * own calls into each dgxsim layer, keeps them in memory, and writes
 * them out once at exit. A layer's self time is its span's duration
 * minus the time its direct child spans cover; because the benchmark
 * is single-threaded, children nest inside their parent and never
 * overlap, so the self times of one op's span tree sum exactly to the
 * op span's duration.
 */
#ifndef DGXSIM_PERFBENCH_TRACE_HH
#define DGXSIM_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** @return steady-clock nanoseconds (arbitrary epoch). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = ""; ///< a string literal naming the layer call
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index into the span list, -1: root
    std::int64_t op = -1;     ///< op id the span belongs to
};

class Tracer
{
  public:
    /** Open a span as a child of the innermost open span. */
    std::int32_t
    open(const char *name, std::int64_t op)
    {
        spans_.push_back({name, nowNs(), 0, current_, op});
        current_ = static_cast<std::int32_t>(spans_.size() - 1);
        return current_;
    }

    /** Close span @p idx, which must be the innermost open one. */
    void
    close(std::int32_t idx)
    {
        spans_[static_cast<std::size_t>(idx)].end = nowNs();
        current_ = spans_[static_cast<std::size_t>(idx)].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** @return every span's duration minus its direct children's. */
    std::vector<std::int64_t>
    selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        }
        return self;
    }

    /** Write every span as CSV (name,op,parent,start_ns,end_ns). */
    bool
    writeCsv(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "name,op,parent,start_ns,end_ns\n");
        const std::int64_t origin = spans_.empty() ? 0 : spans_[0].start;
        for (const Span &s : spans_) {
            std::fprintf(f, "%s,%lld,%d,%lld,%lld\n", s.name,
                         static_cast<long long>(s.op), s.parent,
                         static_cast<long long>(s.start - origin),
                         static_cast<long long>(s.end - origin));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

/** RAII span; a null tracer makes it a no-op (the untraced run). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::int64_t op)
        : tracer_(tracer), idx_(tracer ? tracer->open(name, op) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    std::int32_t idx_;
};

} // namespace perfbench

#endif // DGXSIM_PERFBENCH_TRACE_HH
