#include "event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/timeline.h"

namespace paichar::sim {

namespace {

/**
 * Past-time schedules clamped to now(). A non-zero value in a run's
 * metrics summary flags a model emitting causally-suspect events.
 */
obs::Counter &
clampedCounter()
{
    static obs::Counter &c =
        obs::counter("sim.past_events_clamped");
    return c;
}

obs::Counter &
executedCounter()
{
    static obs::Counter &c = obs::counter("sim.events_executed");
    return c;
}

/**
 * Latest simulated time a drain reached, in microseconds: raised, not
 * set, so parallel drains leave the same value at every thread count.
 */
obs::Gauge &
simTimeGauge()
{
    static obs::Gauge &g = obs::gauge("sim.time_us");
    return g;
}

/** Heap ordering: the earliest (when, seq) pair at the top. */
struct Later
{
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

void
EventQueue::schedule(SimTime when, std::function<void()> fn)
{
    // A NaN/inf time would poison the queue order (every comparison
    // against NaN is false, so events leapfrog arbitrarily) -- this
    // must hold in release builds, not only under assert.
    if (!std::isfinite(when)) {
        throw std::invalid_argument(
            "EventQueue::schedule: non-finite time");
    }
    if (when < now_) {
        // Enforce the documented @pre in every build: a past-time
        // event fires "now" instead of silently rewriting history
        // for later-scheduled events, and the clamp is counted so
        // runs can assert it never happens.
        when = now_;
        clampedCounter().add();
    }
    heap_.push_back(Event{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::scheduleAfter(SimTime delay, std::function<void()> fn)
{
    if (!std::isfinite(delay)) {
        throw std::invalid_argument(
            "EventQueue::scheduleAfter: non-finite delay");
    }
    // Negative delays land in the past and take the clamp path.
    schedule(now_ + delay, std::move(fn));
}

void
EventQueue::executeTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    now_ = heap_.back().when;
    std::function<void()> fn = std::move(heap_.back().fn);
    heap_.pop_back();
    ++executed_;
    fn();
}

SimTime
EventQueue::run()
{
    obs::Span span("sim.run");
    uint64_t before = executed_;
    if (obs::timelineActive())
        drainRecorded();
    else
        while (!heap_.empty())
            executeTop();
    finishDrain(span, executed_ - before);
    return now_;
}

void
EventQueue::drainRecorded()
{
    // One distinct timestamp per step: close every window ending at
    // or before t, run t's events (including any they schedule at
    // t), then attribute their count to t's window.
    obs::Timeline &tl = *obs::timeline();
    obs::Timeline::Rate &events = tl.rate("sim.events");
    while (!heap_.empty()) {
        SimTime t = heap_.front().when;
        tl.advanceTo(t);
        uint64_t before = executed_;
        while (!heap_.empty() && heap_.front().when <= t)
            executeTop();
        events.add(static_cast<double>(executed_ - before));
    }
}

void
EventQueue::finishDrain(obs::Span &span, uint64_t executed_delta)
{
    executedCounter().add(executed_delta);
    // Saturate rather than cast: now_ * 1e6 overflows int64 for
    // simulated times beyond ~292k years, and an out-of-range
    // float-to-int conversion is undefined behavior, not merely
    // wrong.
    constexpr double kMaxUs =
        static_cast<double>(std::numeric_limits<int64_t>::max());
    double us = now_ * 1e6;
    simTimeGauge().raise(us >= kMaxUs
                             ? std::numeric_limits<int64_t>::max()
                             : static_cast<int64_t>(us));
    span.setArg(static_cast<int64_t>(executed_delta));
}

} // namespace paichar::sim
