/**
 * @file
 * In-memory span recorder for the traced run. A span is one timed call
 * into a layer's public function — name, start, end, the span that
 * caused it, and the operation (job) it belongs to — recorded by the
 * benchmark around its own calls, so the program under test is not
 * modified. Spans stay in memory and are written out as Chrome
 * trace-event JSON when the run ends. Single-threaded: the traced run
 * makes every layer call from one thread.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace pb
{

class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr; //!< "<layer>.<call>", static storage
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint32_t op = 0;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span (child of the innermost open one); -1 when off. */
    int begin(const char *name);
    void end(int idx);

    /** Operation id stamped on spans opened from now on. */
    void setOp(std::uint32_t op) { op_ = op; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Number of spans named @p name. */
    std::size_t count(const std::string &name) const;

    /** Summed duration of spans named @p name, seconds. */
    double totalSeconds(const std::string &name) const;

    /** Summed self time (span minus its children), seconds. */
    double selfSeconds(const std::string &name) const;

    /** Self time summed per layer (the name up to its first '.'). */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Summed duration of root spans, seconds. */
    double rootSeconds() const;

    /** Write every span as Chrome trace-event JSON to @p path. */
    void writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t nowNs() const;
    std::vector<double> selfTimes() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint32_t op_ = 0;
};

/** RAII span; a null or disabled tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), idx_(t ? t->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->end(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int idx_;
};

} // namespace pb

#endif // PERFBENCH_TRACE_HH
