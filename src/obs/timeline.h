/**
 * @file
 * Sim-time timeline telemetry: deterministic time-series probes
 * sampled at a fixed simulated-time cadence (DESIGN.md Sec 15).
 *
 * Every metric in obs.h is an end-of-run aggregate; the paper's
 * cluster-level story (Figs 6-9) is a *time-series* analysis. A
 * `Timeline` divides simulated time into half-open windows
 * [w*I, (w+1)*I) of a fixed interval I and owns a registry of named
 * probes, each one of three instrument kinds:
 *
 *  - **Level**: a sampled absolute value (queued jobs, fleet size).
 *    The last `set()` before a window closes is that window's row --
 *    piecewise-constant sampling, emitted from the first window that
 *    saw a `set()` onward.
 *  - **Rate**: a windowed counter. `add()` accumulates into the
 *    current window; each closed window emits the delta (including
 *    zero) from the window the probe was registered in onward.
 *  - **Quantile**: a windowed sample buffer. Each closed window emits
 *    `<name>.count` always, plus `<name>.p50` / `<name>.p99`
 *    (nearest-rank) when the window saw at least one sample.
 *
 * Advancement is driven by the simulators' own clocks: callers invoke
 * `advanceTo(t)` *before* recording anything that happens at time t,
 * which closes every window whose end is <= t (an event exactly on a
 * boundary belongs to the next window). Because windows are a pure
 * function of simulated time and every probe recording happens on the
 * coordinating thread in event order, the emitted rows are
 * byte-identical for every --threads count -- the same determinism
 * contract as the goldens.
 *
 * Process-wide lifecycle mirrors the job log: `startTimeline()` /
 * `stopTimeline()` bracket a run, `timelineActive()` is one relaxed
 * load so a disabled probe site costs a branch (zero-cost when off,
 * like `--job-log`).
 *
 * Thread-safety: `Rate::add` may be called from any thread (atomic
 * accumulation); `Level::set` is a relaxed store. `Quantile::observe`,
 * `advanceTo`, `finalize`, probe registration and the render/row
 * accessors are driver-thread only.
 */

#ifndef PAICHAR_OBS_TIMELINE_H
#define PAICHAR_OBS_TIMELINE_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paichar::obs {

namespace detail {
extern std::atomic<bool> g_timeline_active;
} // namespace detail

/** Schema identifier on every exported timeline document. */
inline constexpr const char *kTimelineSchema = "paichar.timeline.v1";

/**
 * The nearest-rank rule: the 1-based rank of quantile @p q among
 * @p n ascending samples, clamp(ceil(q * n), 1, n) with q clamped to
 * [0, 1], and 0 when n = 0. It is the rank an add()-built unit-weight
 * WeightedCdf::quantile(q) lands on: its cumulative weights are the
 * exact integers 1..n and its target is the same double product
 * q * n. @throws std::invalid_argument if q is NaN.
 */
size_t nearestRank(double q, size_t n);

/**
 * Nearest-rank quantiles (nearestRank()) of an unsorted sample set,
 * one per entry of @p qs in the order given; every entry is NaN when
 * @p samples is empty. Selects instead of sorting: one
 * std::nth_element per distinct rank, ascending, each over only the
 * samples above the previous rank -- about 1.5n work for p50, p95,
 * p99, p999 and the max. For finite samples the values equal a
 * unit-weight WeightedCdf's quantiles bit for bit, except that a
 * rank that falls on a tie of -0.0 and +0.0 may read either zero.
 * @throws std::invalid_argument if any q is NaN.
 */
std::vector<double> nearestRankQuantiles(std::vector<double> samples,
                                         std::span<const double> qs);

/**
 * One nearest-rank quantile (see nearestRankQuantiles()). Shared by
 * the timeline's windowed-quantile probe and the fleet autoscaler's
 * SLO window, so both report the same p99 for the same samples.
 */
double nearestRankQuantile(std::vector<double> samples, double q);

/** One emitted sample: series value at the window ending at end_s. */
struct TimelineRow
{
    double end_s = 0.0;
    std::string series;
    double value = 0.0;
};

class Timeline
{
  public:
    /**
     * A timeline with windows of @p interval_s simulated seconds.
     * Throws std::invalid_argument unless interval_s is finite and
     * > 0 (a real exception, not an assert: the value arrives from
     * the `--timeline-interval` flag and must fail in NDEBUG builds).
     */
    explicit Timeline(double interval_s);

    /** Out of line: Slot is incomplete here. */
    ~Timeline();

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    /** A sampled absolute value (piecewise-constant). */
    class Level
    {
      public:
        void
        set(double v)
        {
            bits_.store(std::bit_cast<uint64_t>(v),
                        std::memory_order_relaxed);
            seen_.store(true, std::memory_order_relaxed);
        }

      private:
        friend class Timeline;
        std::atomic<uint64_t> bits_{0};
        std::atomic<bool> seen_{false};
    };

    /** A windowed counter delta; add() is safe from any thread. */
    class Rate
    {
      public:
        void
        add(double n = 1.0)
        {
            uint64_t old = bits_.load(std::memory_order_relaxed);
            while (!bits_.compare_exchange_weak(
                old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + n),
                std::memory_order_relaxed)) {
            }
        }

      private:
        friend class Timeline;
        /** Window sum, reset on window close. */
        std::atomic<uint64_t> bits_{0};
    };

    /** A windowed sample buffer emitting count/p50/p99 per window. */
    class Quantile
    {
      public:
        void
        observe(double v)
        {
            samples_.push_back(v);
        }

      private:
        friend class Timeline;
        std::vector<double> samples_;
    };

    /**
     * Look up (registering on first use) the named probe. References
     * stay valid for the Timeline's lifetime. A name identifies one
     * probe kind; re-using a level name for a rate is a logic error
     * (throws std::logic_error), exactly like the metrics registry.
     */
    Level &level(std::string_view name);
    Rate &rate(std::string_view name);
    Quantile &quantile(std::string_view name);

    double
    interval() const
    {
        return interval_;
    }

    /**
     * Close every window whose end is <= @p t, emitting its rows.
     * Call before recording anything that happens at time t; time
     * earlier than the current window start is ignored (advancement
     * is monotone).
     */
    void advanceTo(double t);

    /**
     * Close the trailing partial window, if anything was recorded in
     * it or time advanced into it; a run that never advanced time and
     * never recorded emits no rows. Idempotent.
     */
    void finalize();

    /** All emitted rows, in (window, probe-name) order. */
    const std::vector<TimelineRow> &
    rows() const
    {
        return rows_;
    }

    /**
     * CSV export: a `# paichar timeline v1 interval_s I` comment, an
     * `end_s,series,value` header, then one row per line with numbers
     * in shortest-round-trip spelling.
     */
    std::string renderCsv() const;

    /**
     * JSON export: {"schema","interval_s","series":[{"name",
     * "points":[[end_s,value],...]},...]} with series in name order.
     */
    std::string renderJson() const;

  private:
    struct Slot;

    Slot &slot(std::string_view name, int kind);
    void closeWindow();

    double
    windowStart() const
    {
        return interval_ * static_cast<double>(next_window_);
    }

    double
    windowEnd() const
    {
        return interval_ * static_cast<double>(next_window_ + 1);
    }

    double interval_;
    /** Index of the (open) current window. */
    int64_t next_window_ = 0;
    /** True when the current window saw time or samples. */
    bool touched_ = false;
    bool finalized_ = false;
    std::map<std::string, std::unique_ptr<Slot>, std::less<>> slots_;
    std::vector<TimelineRow> rows_;
};

/** True while a timeline is recording. One relaxed load. */
inline bool
timelineActive()
{
    return detail::g_timeline_active.load(std::memory_order_relaxed);
}

/**
 * Start the process-wide timeline with the given window interval
 * (simulated seconds), discarding any previous one. Throws
 * std::invalid_argument for a non-finite or non-positive interval.
 */
void startTimeline(double interval_s);

/** Finalize the trailing window and stop recording; the timeline
 * remains readable until the next startTimeline(). */
void stopTimeline();

/** The process-wide timeline, or nullptr before startTimeline(). */
Timeline *timeline();

/**
 * RAII: deactivate the timeline for a scope, restoring the previous
 * state on exit. The scheduler's FIFO comparison run
 * (`record_timeline = false`) and each fleet SLO search, around all
 * of its probes, hold one so their events never pollute the exported
 * timeline. Driver thread only, like start/stop.
 */
class TimelineSuspend
{
  public:
    TimelineSuspend()
        : was_(detail::g_timeline_active.load(
              std::memory_order_relaxed))
    {
        detail::g_timeline_active.store(false,
                                        std::memory_order_relaxed);
    }

    ~TimelineSuspend()
    {
        detail::g_timeline_active.store(was_,
                                        std::memory_order_relaxed);
    }

    TimelineSuspend(const TimelineSuspend &) = delete;
    TimelineSuspend &operator=(const TimelineSuspend &) = delete;

  private:
    bool was_;
};

/**
 * Bumped on every startTimeline(); callers caching probe handles
 * must revalidate when the generation changes (a restarted timeline
 * invalidates all handles).
 */
uint64_t timelineGeneration();

/** renderCsv()/renderJson() of the process-wide timeline; "" when no
 * timeline was ever started. */
std::string renderTimelineCsv();
std::string renderTimelineJson();

// ---------------------------------------------------------------------------
// Analysis (the `paichar obs timeline` family)
// ---------------------------------------------------------------------------

/** A parsed timeline file: per-series (end_s, value) points. */
struct TimelineData
{
    bool ok = true;
    /** "line N: ..." on failure. */
    std::string error;
    double interval_s = 0.0;
    std::map<std::string, std::vector<std::pair<double, double>>>
        series;
};

/** Parse the renderCsv() format. Unknown comment lines are skipped. */
TimelineData loadTimelineCsv(std::string_view text);

/**
 * Per-series statistics table: rows, mean, min, max, last and an
 * ASCII sparkline per series (grow-to-fit columns, like `obs report`).
 */
std::string renderTimelineReport(const TimelineData &data);

/**
 * Derived per-series scalars (`<series>.mean/.max/.last/.rows`) as an
 * analyze.h RunData, so `obs timeline diff` reuses diffRuns() and the
 * CI perf gate's regression semantics unchanged.
 */
struct RunData;
RunData timelineScalars(const TimelineData &data);

} // namespace paichar::obs

#endif // PAICHAR_OBS_TIMELINE_H
