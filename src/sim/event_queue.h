/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue.
 *
 * Events scheduled at equal times fire in scheduling order (a
 * monotonically increasing sequence number breaks ties), which keeps
 * every simulation run bit-deterministic.
 *
 * Storage is a two-level calendar/ladder structure over an
 * arena-allocated event store:
 *
 *   - Handlers (std::function) live in fixed slots of a chunked arena
 *     and are addressed by a 32-bit index; the ordering structures
 *     move only 24-byte (when, seq, slot) handles, never the
 *     handlers themselves. This also removes the old
 *     const_cast-move-out-of-priority_queue hack -- the queue owns
 *     its storage directly.
 *   - A small binary heap (the "front") holds the earliest events; a
 *     rung of calendar buckets and an unsorted overflow "yard" hold
 *     everything later. Inserts and pops are O(1) amortized: each
 *     handle is touched at most three times (yard -> bucket -> front)
 *     on its way to execution, and the front heap stays near the
 *     bucket occupancy rather than the total pending count.
 *
 * The exact (when, seq) execution order of the classic single-heap
 * implementation is preserved; see tests/sim/event_queue_test.cc.
 */

#ifndef PAICHAR_SIM_EVENT_QUEUE_H
#define PAICHAR_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
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
    size_t pending() const { return size_; }

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
    /** A pending event's position in time plus its arena slot. */
    struct Handle
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };

    uint32_t allocSlot(std::function<void()> fn);
    std::function<void()> takeSlot(uint32_t slot);

    void insertHandle(Handle h);
    /** Refill the front heap; false when the queue is empty. */
    bool refillFront();
    void spillBucket(size_t b);
    void rebuildRung();
    size_t bucketIndex(SimTime when) const;

    /** Pop and execute the earliest event (front must be non-empty). */
    void executeTop();

    /** The timeline-recording drain loop of run(). */
    void drainRecorded();

    /** Record per-drain obs metrics and close the drain span. */
    void finishDrain(obs::Span &span, uint64_t executed_delta);

    // -- Arena: handler slots, addressed by 32-bit index. ----------
    static constexpr uint32_t kBlockShift = 10;
    static constexpr uint32_t kBlockSize = 1u << kBlockShift;
    std::vector<std::unique_ptr<std::function<void()>[]>> blocks_;
    std::vector<uint32_t> free_slots_;

    // -- Ladder: front heap + one rung of buckets + overflow yard. --
    std::vector<Handle> front_;   ///< min-heap on (when, seq)
    /** Every pending event with when < front_bound_ is in front_. */
    SimTime front_bound_ = -std::numeric_limits<SimTime>::infinity();
    std::vector<std::vector<Handle>> buckets_;
    size_t cur_bucket_ = 0;       ///< buckets before this are spilled
    size_t in_buckets_ = 0;       ///< handles currently in buckets_
    SimTime bucket_start_ = 0.0;
    SimTime bucket_end_ = 0.0;    ///< exclusive upper bound of the rung
    SimTime bucket_width_ = 0.0;  ///< 0 = no rung built
    std::vector<Handle> yard_;    ///< unsorted, beyond the rung
    SimTime yard_min_ = 0.0;
    SimTime yard_max_ = 0.0;
    /** rebuildRung() scratch, kept to recycle the allocations. */
    std::vector<uint32_t> scatter_idx_;
    std::vector<uint32_t> scatter_counts_;

    size_t size_ = 0;
    SimTime now_ = 0.0;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
};

} // namespace paichar::sim

#endif // PAICHAR_SIM_EVENT_QUEUE_H
