/**
 * @file
 * Tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "obs/timeline.h"
#include "sim/event_queue.h"

namespace paichar::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(3.0, [&] { order.push_back(3); });
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_DOUBLE_EQ(eq.run(), 3.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1.0, [&, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NowAdvancesDuringRun)
{
    EventQueue eq;
    double seen = -1.0;
    eq.schedule(5.0, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_DOUBLE_EQ(seen, 5.0);
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] {
        ++fired;
        eq.scheduleAfter(1.0, [&] { ++fired; });
    });
    EXPECT_DOUBLE_EQ(eq.run(), 2.0);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EmptyRunReturnsNow)
{
    EventQueue eq;
    EXPECT_DOUBLE_EQ(eq.run(), 0.0);
}

/** The `sim.events` rows of the process-wide timeline, in order. */
std::vector<double>
simEventsRows()
{
    std::vector<double> values;
    for (const obs::TimelineRow &r : obs::timeline()->rows()) {
        if (r.series == "sim.events")
            values.push_back(r.value);
    }
    return values;
}

/** Two events in window 0 of a 10 s timeline, none in 1, one in 2. */
void
scheduleTimelineEvents(EventQueue &eq, int &fired)
{
    eq.schedule(1.0, [&] { ++fired; });
    eq.schedule(1.0, [&] { ++fired; });
    eq.schedule(25.0, [&] { ++fired; });
}

// While a timeline records, a drain attributes each timestamp's
// events to that timestamp's window, with explicit zeros between.
TEST(EventQueueTest, RunRecordsSimEventsPerTimelineWindow)
{
    obs::startTimeline(10.0);
    EventQueue eq;
    int fired = 0;
    scheduleTimelineEvents(eq, fired);
    EXPECT_DOUBLE_EQ(eq.run(), 25.0);
    EXPECT_EQ(fired, 3);
    // Window 2 is still open: run() does not advance past its last
    // event.
    EXPECT_EQ(simEventsRows(), (std::vector<double>{2, 0}));
    obs::stopTimeline();
    EXPECT_EQ(simEventsRows(), (std::vector<double>{2, 0, 1}));
}

TEST(EventQueueTest, NonFiniteTimesThrow)
{
    EventQueue eq;
    double nan = std::numeric_limits<double>::quiet_NaN();
    double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(eq.schedule(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.schedule(inf, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.scheduleAfter(nan, [] {}),
                 std::invalid_argument);
    EXPECT_EQ(eq.pending(), 0u);
}

// Past-time schedules must clamp to now() and be counted — not
// rewrite history for already-ordered events (the seed engine's
// const_cast/pop hack made this path easy to get wrong).
TEST(EventQueueTest, PastEventsClampToNowAndAreCounted)
{
    obs::resetMetrics();
    EventQueue eq;
    std::vector<double> fired_at;
    eq.schedule(5.0, [&] {
        eq.schedule(1.0, [&] { fired_at.push_back(eq.now()); });
        eq.scheduleAfter(-2.0,
                         [&] { fired_at.push_back(eq.now()); });
    });
    eq.schedule(6.0, [&] { fired_at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired_at.size(), 3u);
    EXPECT_DOUBLE_EQ(fired_at[0], 5.0); // clamped, fires "now"
    EXPECT_DOUBLE_EQ(fired_at[1], 5.0);
    EXPECT_DOUBLE_EQ(fired_at[2], 6.0);
    EXPECT_EQ(obs::counter("sim.past_events_clamped").value(), 2);
}

// The sim.time_us gauge: exact in range, saturating (not UB) when
// the simulated time in microseconds exceeds int64.
TEST(EventQueueTest, SimTimeGaugeIsExactAndSaturates)
{
    obs::resetMetrics();
    {
        EventQueue eq;
        eq.schedule(2.5, [] {});
        eq.run();
        EXPECT_EQ(obs::gauge("sim.time_us").value(), 2500000);
    }
    {
        EventQueue eq;
        eq.schedule(1e300, [] {});
        eq.run();
        EXPECT_EQ(obs::gauge("sim.time_us").value(),
                  std::numeric_limits<int64_t>::max());
    }
}

// Randomized battering ram: the heap must agree event-for-event with
// a trivially correct reference (stable sort by time = (when,
// insertion order)), including under inserts in the middle of a
// drain and re-scheduling from callbacks. Half the times are whole
// seconds, so ties are common and the seq rule decides them; a third
// of the follow-ups land in the past and must clamp to now().
TEST(EventQueueTest, RandomizedOrderMatchesReferenceSort)
{
    for (uint64_t seed : {1u, 7u, 1234u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        obs::resetMetrics();
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> dist(0.0, 1000.0);
        auto maybeWhole = [&](double when) {
            return rng() % 2 ? std::floor(when) : when;
        };

        EventQueue eq;
        std::vector<std::pair<double, int>> expected;
        std::vector<int> got;
        int next_id = 0;
        uint64_t clamped = 0;
        for (int i = 0; i < 5000; ++i) {
            double when = maybeWhole(dist(rng));
            int id = next_id++;
            expected.emplace_back(when, id);
            eq.schedule(when, [&, id] { got.push_back(id); });
        }
        // Halfway through the drain, a handler inserts a later batch
        // of events that schedule follow-ups a second before, at and
        // a second after the current time.
        eq.schedule(500.0, [&] {
            for (int i = 0; i < 500; ++i) {
                double when = maybeWhole(500.0 + dist(rng) / 2.0);
                int id = next_id++;
                expected.emplace_back(when, id);
                eq.schedule(when, [&, id] {
                    got.push_back(id);
                    int cid = next_id++;
                    double child = eq.now() + (cid % 3 - 1);
                    if (child < eq.now())
                        ++clamped;
                    expected.emplace_back(std::max(child, eq.now()),
                                          cid);
                    eq.schedule(child,
                                [&, cid] { got.push_back(cid); });
                });
            }
        });
        eq.run();

        std::stable_sort(expected.begin(), expected.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<int> want;
        want.reserve(expected.size());
        for (const auto &[when, id] : expected)
            want.push_back(id);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(got, want);
        EXPECT_EQ(eq.executed(), want.size() + 1); // + the handler
        EXPECT_EQ(eq.pending(), 0u);
        EXPECT_GT(clamped, 0u);
        EXPECT_EQ(obs::counter("sim.past_events_clamped").value(),
                  clamped);
    }
}

} // namespace
} // namespace paichar::sim
