/**
 * @file
 * Fleet differential oracle: policy-independent invariants every
 * serving-fleet configuration must uphold, checked against fuzzed
 * arrival streams, plus the byte-exact differential against a
 * reference single-server loop.
 *
 * The invariants (DESIGN.md Sec 14):
 *  - request conservation: offered = admitted + rejected, every
 *    admitted request completes exactly once, rejected requests never
 *    complete, and the per-server item counts sum to the completions;
 *  - causality: arrival <= launch start <= completion for every
 *    served request, and every launch respects max_batch;
 *  - per-server capacity: one GPU serves one launch at a time — the
 *    launches recorded on a server, ordered by start, never overlap —
 *    and a server's busy seconds never exceed its uptime;
 *  - quantile coherence: p50 <= p95 <= p99 <= p999 <= max;
 *  - differential: a one-server greedy fleet with a constant stream
 *    must reproduce the original single-server serving loop
 *    byte-for-byte (same RNG orbit, same arithmetic, same verdict).
 *    That loop lives on, private to fleet_oracle.cc, as the
 *    reference: an array walk over presampled Poisson arrivals with
 *    no routing, no event queue and no shared code beyond the
 *    workload's service times, the sampler and the CDF.
 *
 * fuzzFleet() sweeps seed-derived fleet shapes (servers, routing,
 * batching, admission, arrival kinds) and returns the first violation
 * with a one-seed reproducer.
 */

#ifndef PAICHAR_TESTKIT_FLEET_ORACLE_H
#define PAICHAR_TESTKIT_FLEET_ORACLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inference/fleet_sim.h"

namespace paichar::testkit {

/**
 * Check every policy-independent invariant of @p result, which must
 * come from running @p models under @p cfg with record_requests on.
 * @return nullopt when all hold, else a violation description.
 */
std::optional<std::string>
checkFleetInvariants(const inference::FleetConfig &cfg,
                     const std::vector<inference::ModelLoad> &models,
                     const inference::FleetResult &result);

/**
 * Differential check: a one-server greedy fleet over a constant
 * @p qps stream must reproduce the reference single-server loop
 * exactly (bitwise-equal doubles, equal counts, equal verdict).
 * @return nullopt when identical, else the first divergence.
 */
std::optional<std::string>
checkSingleServerEquivalence(const inference::InferenceWorkload &w,
                             double qps, int64_t num_requests,
                             uint64_t seed, int max_batch = 8);

/** A fleet-fuzz counterexample. */
struct FleetFuzzFailure
{
    /** Seed whose derived fleet violated an invariant. */
    uint64_t seed = 0;
    /** The oracle's message. */
    std::string message;
    /** Human-readable shape of the failing fleet. */
    std::string shape;
};

/** Render a failure (seed, shape, message). */
std::string describe(const FleetFuzzFailure &f);

/**
 * Fuzz @p count fleet shapes derived from consecutive seeds
 * (base_seed + i): each seed picks servers, routing, batching,
 * admission bound, autoscaler on/off and per-model arrival kinds,
 * runs @p num_requests arrivals and checks every invariant. Every
 * seed also replays the single-server differential.
 */
std::optional<FleetFuzzFailure>
fuzzFleet(uint64_t base_seed, int count, int64_t num_requests = 2000);

} // namespace paichar::testkit

#endif // PAICHAR_TESTKIT_FLEET_ORACLE_H
