/**
 * @file
 * Low-overhead process-wide observability: metrics and span tracing.
 *
 * Two independent facilities share this header (taxonomy and budgets
 * in DESIGN.md Sec 10):
 *
 *  - **Metrics**: named counters, gauges and histograms held in a
 *    process-wide registry. Handles are interned once per call site
 *    (`static obs::Counter &c = obs::counter("trace.rows_parsed");`)
 *    and every recording operation afterwards is one relaxed atomic.
 *    Recording is gated on a master switch (setEnabled) whose check
 *    is a single relaxed load, so a disabled build path costs a
 *    branch. renderMetricsSummary() exports the registry as sorted,
 *    human-readable text.
 *
 *  - **Spans**: RAII scoped timers (`obs::Span s("trace.parse_csv");`)
 *    appended to per-thread buffers while profiling is active.
 *    Buffers are merged at export time into a deterministic order
 *    (start time, then a global sequence number) and rendered as
 *    Chrome trace-event JSON, loadable in Perfetto or
 *    chrome://tracing. When profiling is off a Span construction is
 *    one relaxed load and no clock read.
 *
 * Instrumentation is deliberately batch-grained -- one span or
 * counter update per parse chunk, pool task or simulator drain, never
 * per row or per event -- which keeps the enabled-vs-disabled delta
 * under the 2% budget proved by bench_micro's obs_overhead section.
 *
 * Thread-safety: every function here may be called from any thread.
 * Metric values observed concurrently with recording are individually
 * coherent (relaxed atomics), not a consistent cross-metric snapshot.
 */

#ifndef PAICHAR_OBS_OBS_H
#define PAICHAR_OBS_OBS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace paichar::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_profiling;
} // namespace detail

/** Master switch for metric recording (default: on). */
void setEnabled(bool on);

/** True when metric recording is on. One relaxed load. */
inline bool
enabled()
{
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/** True while span capture is active. One relaxed load. */
inline bool
profiling()
{
    return detail::g_profiling.load(std::memory_order_relaxed);
}

/** Monotonic nanoseconds (steady clock), for ad-hoc timing. */
int64_t nowNs();

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/** A monotonically increasing count. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (enabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> v_{0};
};

/** A signed level with a high-water mark (e.g. queue depth). */
class Gauge
{
  public:
    void
    add(int64_t delta)
    {
        if (!enabled())
            return;
        ratchet(peak_,
                v_.fetch_add(delta, std::memory_order_relaxed) + delta);
    }

    /**
     * Overwrite the level with an absolute value (timeline-style
     * sampling, vs add()'s deltas). The peak only ever ratchets
     * upward: set(10); set(3) leaves value() == 3 and peak() == 10,
     * and a negative set never lowers a previously recorded peak
     * (peak starts at 0, so it is never negative). Only reset()
     * clears the high-water mark.
     */
    void
    set(int64_t v)
    {
        if (!enabled())
            return;
        v_.store(v, std::memory_order_relaxed);
        ratchet(peak_, v);
    }

    /**
     * Raise the level to @p v if it is lower. Raises commute, so
     * concurrent callers leave the maximum in any order.
     */
    void
    raise(int64_t v)
    {
        if (!enabled())
            return;
        ratchet(v_, v);
        ratchet(peak_, v);
    }

    int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    int64_t
    peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
        peak_.store(0, std::memory_order_relaxed);
    }

  private:
    static void
    ratchet(std::atomic<int64_t> &a, int64_t v)
    {
        int64_t p = a.load(std::memory_order_relaxed);
        while (v > p &&
               !a.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> v_{0};
    std::atomic<int64_t> peak_{0};
};

/**
 * A power-of-two bucketed histogram over non-negative values.
 *
 * Bucket i >= 1 counts observations in (2^(i-1), 2^i]; bucket 0
 * counts everything <= 1 -- including 0, negative and NaN
 * observations, which are accepted rather than dropped so totals
 * always reconcile (+infinity lands in the top bucket). quantile() is
 * therefore exact only up to the 2x bucket width; count/sum/max are
 * exact. The bucket-0 catch-all is pinned by unit test
 * (HistogramBucketZeroContract).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void
    observe(double v)
    {
        if (!enabled())
            return;
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        atomicAddDouble(sum_bits_, v);
        atomicMaxDouble(max_bits_, v);
    }

    /**
     * Observe `v * scale` for every v in @p values, in order. Buckets,
     * count, sum and max end bit-identical to calling
     * observe(v * scale) per value from one thread: the sum folds
     * sequentially inside one CAS, so it rounds the same way. Costs
     * one atomic per touched bucket plus three, not four per value,
     * for sites that can publish a run's observations at its end.
     */
    void observeBatch(std::span<const double> values,
                      double scale = 1.0);

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sum() const
    {
        return std::bit_cast<double>(
            sum_bits_.load(std::memory_order_relaxed));
    }

    double
    mean() const
    {
        uint64_t n = count();
        return n ? sum() / static_cast<double>(n) : 0.0;
    }

    double
    max() const
    {
        return count() ? std::bit_cast<double>(max_bits_.load(
                             std::memory_order_relaxed))
                       : 0.0;
    }

    /** True when no observation has been recorded. */
    bool
    empty() const
    {
        return count() == 0;
    }

    /**
     * Upper bound of the smallest bucket holding the q-quantile
     * (q clamped to [0, 1]). An empty histogram has no quantiles:
     * the result is NaN (check empty() to branch first); renderers
     * print '-' rather than a misleading number.
     */
    double quantile(double q) const;

    /** Observation count of bucket @p i (0 <= i < kBuckets). */
    uint64_t
    bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Inclusive upper bound of bucket @p i: 2^i (1.0 for i = 0). */
    static double bucketUpperBound(int i);

    /**
     * Bucket of @p v, read off its bits: v in [2^e, 2^(e+1)) with a
     * zero mantissa is exactly 2^e (bucket e), otherwise it lies
     * inside (2^e, 2^(e+1)] (bucket e + 1). Everything <= 1 (and NaN)
     * is bucket 0; everything >= 2^62 (and +infinity) the top one.
     */
    static int
    bucketOf(double v)
    {
        if (!(v > 1.0)) // <= 1, negative, NaN
            return 0;
        if (v >= 0x1p62)
            return kBuckets - 1;
        auto bits = std::bit_cast<uint64_t>(v);
        int e = static_cast<int>(bits >> 52) - 1023; // v > 1: sign 0
        return e + ((bits & ((uint64_t{1} << 52) - 1)) != 0);
    }

    void reset();

  private:
    static void atomicAddDouble(std::atomic<uint64_t> &bits, double d);
    static void atomicMaxDouble(std::atomic<uint64_t> &bits, double d);

    /** Bit pattern of -infinity, the identity of floating max. */
    static constexpr uint64_t kNegInfBits = 0xFFF0000000000000ull;

    std::atomic<uint64_t> buckets_[kBuckets]{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_bits_{0};
    std::atomic<uint64_t> max_bits_{kNegInfBits};
};

/**
 * Look up (creating on first use) the named metric. References stay
 * valid for the process lifetime; cache them in a function-local
 * static at hot call sites. A name identifies one kind of metric:
 * re-using a counter name for a gauge is a logic error (throws).
 */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(std::string_view name);

/** Zero every registered metric (tests, repeated CLI runs). */
void resetMetrics();

/**
 * Walk the registry in name order, invoking the callback matching
 * each metric's kind. The registry lock is held across the walk; do
 * not register metrics from inside a callback.
 */
void visitMetrics(
    const std::function<void(const std::string &, const Counter &)>
        &onCounter,
    const std::function<void(const std::string &, const Gauge &)>
        &onGauge,
    const std::function<void(const std::string &, const Histogram &)>
        &onHistogram);

/**
 * The registry as sorted human-readable text, one metric per line:
 *
 *   counter   trace.rows_parsed  100000
 *   gauge     runtime.queue_depth  0 peak 12
 *   histogram runtime.task_us  count 96 mean 412.3 p50 512 p95 4096 max 3012.4
 */
std::string renderMetricsSummary();

/**
 * The registry in OpenMetrics text format (`--metrics-format
 * openmetrics`): counters as `<name>_total`, gauges as `<name>` plus
 * a `<name>_peak` companion gauge, histograms as cumulative
 * `_bucket{le="..."}` samples (power-of-two bounds, trailing empty
 * buckets collapsed into `le="+Inf"`) with `_count`/`_sum`, metric
 * names sanitized to [a-zA-Z0-9_:], terminated by `# EOF`. Mapping
 * documented in DESIGN.md Sec 10.
 */
std::string renderMetricsOpenMetrics();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/**
 * Start a profiling session: clears all per-thread span buffers and
 * begins capturing spans process-wide.
 */
void startProfiling();

/** Stop capturing spans; the captured buffers remain exportable. */
void stopProfiling();

/**
 * Merge every thread's spans deterministically (start time, then the
 * global sequence number assigned at span open) and render Chrome
 * trace-event JSON ("X" complete events, ts/dur in microseconds,
 * thread-name metadata). Call after stopProfiling(), while no
 * instrumented work is in flight.
 */
std::string profileToJson();

/**
 * Intern a dynamic span name; the returned pointer lives for the
 * process. Span itself stores only the pointer, so names that are not
 * string literals must pass through here.
 */
const char *internName(std::string_view name);

/**
 * RAII scoped span. @p name must outlive the profiling session
 * (string literal or internName()). Construction and destruction are
 * a relaxed load each while profiling is off.
 */
class Span
{
  public:
    explicit Span(const char *name) : Span(name, 0, false) {}

    /** A span carrying one integer payload (bytes, rows, events). */
    Span(const char *name, int64_t arg) : Span(name, arg, true) {}

    ~Span()
    {
        if (name_)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach/replace the integer payload before the span closes. */
    void
    setArg(int64_t arg)
    {
        arg_ = arg;
        has_arg_ = true;
    }

  private:
    Span(const char *name, int64_t arg, bool has_arg);
    void close();

    const char *name_ = nullptr;
    int64_t start_ns_ = 0;
    uint64_t seq_ = 0;
    int64_t arg_ = 0;
    bool has_arg_ = false;
};

} // namespace paichar::obs

#endif // PAICHAR_OBS_OBS_H
