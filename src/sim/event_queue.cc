#include "event_queue.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/timeline.h"

namespace paichar::sim {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

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

/** Last simulated time reached by a drain, in microseconds. */
obs::Gauge &
simTimeGauge()
{
    static obs::Gauge &g = obs::gauge("sim.time_us");
    return g;
}

/** Heap ordering: the earliest (when, seq) pair at the top. */
struct FrontLater
{
    bool
    operator()(const auto &a, const auto &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/**
 * Rung sizing: aim for a handful of handles per bucket so spilling a
 * bucket into the front heap keeps the heap (and its log factor)
 * small regardless of the total pending count.
 */
constexpr size_t kTargetPerBucket = 16;
constexpr size_t kMaxBuckets = size_t{1} << 20;

/** Below this, dump the yard straight into the front heap. */
constexpr size_t kDirectToFront = 2048;

} // namespace

uint32_t
EventQueue::allocSlot(std::function<void()> fn)
{
    uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        // With an empty free list every slot ever allocated is live,
        // so the next fresh index is exactly the pending count.
        assert(size_ < std::numeric_limits<uint32_t>::max());
        slot = static_cast<uint32_t>(size_);
        if ((slot >> kBlockShift) >= blocks_.size()) {
            blocks_.push_back(
                std::make_unique<std::function<void()>[]>(
                    kBlockSize));
        }
    }
    blocks_[slot >> kBlockShift][slot & (kBlockSize - 1)] =
        std::move(fn);
    return slot;
}

std::function<void()>
EventQueue::takeSlot(uint32_t slot)
{
    std::function<void()> &cell =
        blocks_[slot >> kBlockShift][slot & (kBlockSize - 1)];
    std::function<void()> fn = std::move(cell);
    cell = nullptr;
    free_slots_.push_back(slot);
    return fn;
}

size_t
EventQueue::bucketIndex(SimTime when) const
{
    size_t nb = buckets_.size();
    double off = (when - bucket_start_) / bucket_width_;
    size_t idx = off <= 0.0 ? 0
                            : std::min(static_cast<size_t>(off),
                                       nb - 1);
    // Guard against floating-point rounding at bucket edges: the
    // invariant spillBucket() relies on is that bucket b only holds
    // handles with when < start + (b+1)*width (the last bucket's
    // bound is bucket_end_, which exceeds every rung time).
    while (idx + 1 < nb &&
           when >= bucket_start_ +
                       static_cast<double>(idx + 1) * bucket_width_) {
        ++idx;
    }
    while (idx > cur_bucket_ &&
           when < bucket_start_ +
                      static_cast<double>(idx) * bucket_width_) {
        --idx;
    }
    return std::max(idx, cur_bucket_);
}

void
EventQueue::insertHandle(Handle h)
{
    if (h.when < front_bound_) {
        front_.push_back(h);
        std::push_heap(front_.begin(), front_.end(), FrontLater{});
    } else if (bucket_width_ > 0.0 && h.when < bucket_end_) {
        buckets_[bucketIndex(h.when)].push_back(h);
        ++in_buckets_;
    } else {
        if (yard_.empty()) {
            yard_min_ = h.when;
            yard_max_ = h.when;
        } else {
            yard_min_ = std::min(yard_min_, h.when);
            yard_max_ = std::max(yard_max_, h.when);
        }
        yard_.push_back(h);
    }
}

void
EventQueue::spillBucket(size_t b)
{
    assert(front_.empty());
    std::vector<Handle> &bucket = buckets_[b];
    front_.swap(bucket);
    std::make_heap(front_.begin(), front_.end(), FrontLater{});
    // Everything in this bucket executes within the next
    // ~kTargetPerBucket events; warming the arena slots now converts
    // a guaranteed cache miss per executeTop() into a hit. A binary
    // heap cannot do this -- it learns the execution order one pop
    // at a time.
    for (const Handle &h : front_) {
        __builtin_prefetch(
            &blocks_[h.slot >> kBlockShift][h.slot &
                                            (kBlockSize - 1)]);
    }
    in_buckets_ -= front_.size();
    cur_bucket_ = b + 1;
    if (b + 1 == buckets_.size()) {
        // The rung is exhausted; retire it so new inserts inside its
        // old span route to the front heap (covered by front_bound_)
        // or the yard instead of an out-of-range bucket.
        front_bound_ = bucket_end_;
        bucket_width_ = 0.0;
    } else {
        front_bound_ = bucket_start_ +
                       static_cast<double>(b + 1) * bucket_width_;
    }
    bucket.clear();
}

void
EventQueue::rebuildRung()
{
    assert(front_.empty() && in_buckets_ == 0 && !yard_.empty());
    if (yard_.size() <= kDirectToFront || yard_max_ == yard_min_) {
        // Too few events (or a single timestamp) to be worth a rung:
        // the yard becomes the front heap outright. nextafter keeps
        // the front-membership rule strict-less-than while covering
        // the maximum yard time itself.
        front_.swap(yard_);
        std::make_heap(front_.begin(), front_.end(), FrontLater{});
        front_bound_ = std::nextafter(yard_max_, kInf);
        bucket_width_ = 0.0;
        return;
    }
    size_t nb = 1;
    while (nb < yard_.size() / kTargetPerBucket && nb < kMaxBuckets)
        nb <<= 1;
    // Exact size: bucketIndex() derives membership from
    // buckets_.size(), so the vector must match the rung geometry.
    if (buckets_.size() != nb)
        buckets_.resize(nb);
    bucket_start_ = yard_min_;
    bucket_width_ = (yard_max_ - yard_min_) / static_cast<double>(nb);
    bucket_end_ = std::nextafter(yard_max_, kInf);
    cur_bucket_ = 0;
    if (bucket_width_ <= 0.0 ||
        !std::isfinite(bucket_start_ + bucket_width_)) {
        // Degenerate span (denormal width underflow): fall back to
        // one heap rather than risk a zero-width rung.
        bucket_width_ = 0.0;
        front_.swap(yard_);
        std::make_heap(front_.begin(), front_.end(), FrontLater{});
        front_bound_ = bucket_end_;
        return;
    }
    // Two-pass scatter: bucketing millions of yard handles into
    // push_back-grown vectors pays ~5 reallocations per bucket;
    // counting first and reserving exactly pays none. The index is
    // memoized per handle so bucketIndex()'s edge guards run once.
    scatter_idx_.resize(yard_.size());
    scatter_counts_.assign(nb, 0);
    for (size_t i = 0; i < yard_.size(); ++i) {
        size_t idx = bucketIndex(yard_[i].when);
        scatter_idx_[i] = static_cast<uint32_t>(idx);
        ++scatter_counts_[idx];
    }
    for (size_t b = 0; b < nb; ++b) {
        if (scatter_counts_[b] > 0)
            buckets_[b].reserve(scatter_counts_[b]);
    }
    for (size_t i = 0; i < yard_.size(); ++i)
        buckets_[scatter_idx_[i]].push_back(yard_[i]);
    in_buckets_ = yard_.size();
    yard_.clear();
    front_bound_ = bucket_start_; // nothing spilled into front yet
}

bool
EventQueue::refillFront()
{
    while (front_.empty()) {
        if (in_buckets_ > 0) {
            size_t b = cur_bucket_;
            while (buckets_[b].empty())
                ++b;
            spillBucket(b);
            continue;
        }
        bucket_width_ = 0.0;
        if (yard_.empty())
            return false;
        rebuildRung();
    }
    return true;
}

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
    uint32_t slot = allocSlot(std::move(fn));
    insertHandle(Handle{when, next_seq_++, slot});
    ++size_;
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
    std::pop_heap(front_.begin(), front_.end(), FrontLater{});
    Handle h = front_.back();
    front_.pop_back();
    std::function<void()> fn = takeSlot(h.slot);
    --size_;
    now_ = h.when;
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
        while (refillFront())
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
    while (refillFront()) {
        SimTime t = front_.front().when;
        tl.advanceTo(t);
        uint64_t before = executed_;
        while (refillFront() && front_.front().when <= t)
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
    simTimeGauge().set(us >= kMaxUs
                           ? std::numeric_limits<int64_t>::max()
                           : static_cast<int64_t>(us));
    span.setArg(static_cast<int64_t>(executed_delta));
}

} // namespace paichar::sim
