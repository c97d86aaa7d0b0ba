/**
 * @file
 * A rate-limited, FIFO-serialized simulated resource.
 *
 * Models every hardware component the testbed simulation needs: a GPU
 * (work measured in seconds directly), a PCIe/NVLink/Ethernet link
 * (work measured in bytes against a byte/s rate), or a host runtime
 * (per-operation overhead). Requests submitted while the resource is
 * busy queue in submission order; for homogeneous concurrent requests
 * FIFO serialization is time-equivalent to fair sharing, and it keeps
 * the simulation deterministic.
 */

#ifndef PAICHAR_SIM_RESOURCE_H
#define PAICHAR_SIM_RESOURCE_H

#include <functional>
#include <string>

#include "sim/event_queue.h"

namespace paichar::sim {

/** Completion callback: (service start time, completion time). */
using Completion = std::function<void(SimTime start, SimTime end)>;

/** When a submitted request is served: [start, end). */
struct ServiceInterval
{
    SimTime start;
    SimTime end;
};

/** A FIFO resource with a fixed service rate. */
class Resource
{
  public:
    /**
     * @param eq       Owning event queue (must outlive the resource).
     * @param name     Diagnostic name ("gpu0", "pcie/server3", ...).
     * @param rate     Service rate in units/second (e.g. bytes/s). A
     *                 rate of 1.0 means submitted amounts are seconds.
     * @param overhead Fixed extra service time charged per request
     *                 (e.g. kernel-launch latency).
     */
    Resource(EventQueue &eq, std::string name, double rate,
             double overhead = 0.0);

    Resource(const Resource &) = delete;
    Resource &operator=(const Resource &) = delete;

    /**
     * Submit @p amount units of work at the current simulated time;
     * the work starts when all previously queued work finishes.
     *
     * @param amount Work in rate units; must be >= 0.
     * @param done   If set, invoked (via the event queue) at
     *               completion with the returned interval.
     * @return The request's service interval, known at submission.
     */
    ServiceInterval submit(double amount, Completion done = {});

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** Service rate in units/second. */
    double rate() const { return rate_; }

    /** Earliest time newly submitted work could start. */
    SimTime nextFree() const { return next_free_; }

    /** Total busy seconds accumulated (includes per-op overhead). */
    double busyTime() const { return busy_time_; }

    /** Total work units served (excludes overhead). */
    double totalAmount() const { return total_amount_; }

    /** Number of requests served. */
    uint64_t requests() const { return requests_; }

    /**
     * Achieved utilization over [0, horizon]: busyTime() / horizon.
     * @pre horizon > 0.
     */
    double utilization(SimTime horizon) const;

  private:
    EventQueue &eq_;
    std::string name_;
    double rate_;
    double overhead_;
    SimTime next_free_ = 0.0;
    double busy_time_ = 0.0;
    double total_amount_ = 0.0;
    uint64_t requests_ = 0;
};

} // namespace paichar::sim

#endif // PAICHAR_SIM_RESOURCE_H
