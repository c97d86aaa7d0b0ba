/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue.
 *
 * Events scheduled at equal times fire in scheduling order (a
 * monotonically increasing sequence number breaks ties), which keeps
 * every simulation run bit-deterministic.
 *
 * Storage is one binary min-heap of Event{when, seq, fn} ordered by
 * (when, seq); a pop moves the handler out of the vector's back()
 * after std::pop_heap. No simulation in the repo holds more than a
 * few hundred events at once (the testbed's compute phase schedules
 * no per-kernel events), so the heap's log factor stays small. See
 * tests/sim/event_queue_test.cc for the order contract.
 */

#ifndef PAICHAR_SIM_EVENT_QUEUE_H
#define PAICHAR_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace paichar::obs {
class Span;
}

namespace paichar::sim {

/** Simulated time in seconds. */
using SimTime = double;

/** The event queue driving a simulation. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @pre when >= now(). Enforced in every build type: a past time
     * is clamped to now() (the event fires at the current time, never
     * before already-scheduled same-time events) and counted in the
     * `sim.past_events_clamped` obs counter so runs can assert it
     * never happened. A non-finite @p when throws
     * std::invalid_argument -- a NaN would corrupt the queue order.
     */
    void schedule(SimTime when, std::function<void()> fn);

    /**
     * Schedule @p fn to run @p delay seconds from now. Negative
     * delays land in the past and take the clamp path (counted, see
     * schedule()); non-finite delays throw std::invalid_argument.
     */
    void scheduleAfter(SimTime delay, std::function<void()> fn);

    /** Number of pending events. */
    size_t pending() const { return heap_.size(); }

    /**
     * Run events until the queue drains; returns the time of the last
     * event (or now() if none ran).
     *
     * While obs::timelineActive(), run() steps one distinct timestamp
     * at a time and adds each timestamp's executed count to the
     * timeline's `sim.events` rate (DESIGN.md Sec 12).
     */
    SimTime run();

    /** Total events executed since construction. */
    uint64_t executed() const { return executed_; }

  private:
    /** A pending event: its time, tie-break sequence and handler. */
    struct Event
    {
        SimTime when;
        uint64_t seq;
        std::function<void()> fn;
    };

    /** Pop and execute the earliest event (heap must be non-empty). */
    void executeTop();

    /** The timeline-recording drain loop of run(). */
    void drainRecorded();

    /** Record per-drain obs metrics and close the drain span. */
    void finishDrain(obs::Span &span, uint64_t executed_delta);

    std::vector<Event> heap_; ///< min-heap on (when, seq)
    SimTime now_ = 0.0;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
};

} // namespace paichar::sim

#endif // PAICHAR_SIM_EVENT_QUEUE_H
