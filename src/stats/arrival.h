/**
 * @file
 * Open-loop arrival processes for the serving-fleet simulator.
 *
 * Serving load is open-loop: requests arrive on their own clock, they
 * do not wait for earlier requests to finish. Three generator shapes
 * cover the GPU-datacenter workloads characterized by Hu et al.
 * (arXiv:2109.01313, see PAPERS.md):
 *
 *  - Constant: a homogeneous Poisson process at a fixed rate — the
 *    classic single-rate probe that maxQpsUnderSlo bisects over, and
 *    exactly the arrival stream of the original single-server loop
 *    (the fleet oracle's reference).
 *  - Diurnal: an inhomogeneous Poisson process whose rate follows a
 *    sinusoid (trough at t = 0, one full cycle per period), sampled
 *    by Lewis-Shedler thinning. Models the day/night swing.
 *  - Bursty: a two-state Markov-modulated Poisson process (baseline
 *    and burst states with exponential sojourns). Models the
 *    heavy-tailed demand spikes of shared inference clusters.
 *
 * Streams are seed-pure: a stream is fully determined by its config
 * and seed, independent of every other stream, so multi-model fleets
 * replay byte-identically under any interleaving.
 *
 * The exponential sampler documents and enforces the RNG contract:
 * Rng::uniform() is *half-open* ([0, 1)), so log1p(-u) is always
 * finite. Should a future RNG ever return 1.0, the sampler clamps the
 * draw to the largest representable value below 1 instead of emitting
 * an infinite inter-arrival gap, and counts the clamp in the
 * `stats.exp_clamped` obs counter so silent distribution damage is
 * visible in --metrics.
 */

#ifndef PAICHAR_STATS_ARRIVAL_H
#define PAICHAR_STATS_ARRIVAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace paichar::stats {

/** Arrival-process family. */
enum class ArrivalKind
{
    Constant,
    Diurnal,
    Bursty,
};

/** CLI spelling ("constant" | "diurnal" | "bursty"). */
const char *toString(ArrivalKind kind);
std::optional<ArrivalKind> arrivalKindFromString(const std::string &s);

/** Shape of one open-loop arrival stream. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Constant;

    /** Long-run mean arrival rate, requests per second (> 0). */
    double qps = 1.0;

    /**
     * Diurnal swing: rate(t) = qps * (1 + amplitude * sin(2*pi*t /
     * period - pi/2)), i.e. the cycle starts at the trough. Amplitude
     * in [0, 1) keeps the rate strictly positive.
     */
    double diurnal_amplitude = 0.5;
    /** Diurnal cycle length in seconds (a compressed "day"). */
    double diurnal_period = 240.0;

    /**
     * Bursty (MMPP-2): the burst state multiplies the baseline rate
     * by @p burst_multiplier (>= 1); the process spends
     * @p burst_fraction of its time bursting (in (0, 1)), with mean
     * burst sojourn @p burst_mean_s seconds. The baseline rate is
     * derated so the long-run mean stays at @p qps.
     */
    double burst_multiplier = 4.0;
    double burst_fraction = 0.1;
    double burst_mean_s = 5.0;
};

/**
 * Exponential variate with the given rate from one uniform draw.
 * Clamps a (contract-violating) u >= 1 draw to just below 1 and
 * counts it in the `stats.exp_clamped` obs counter; the returned gap
 * is always finite. Exposed for the property tests.
 */
double expFromUniform(double u, double rate);

/** One `expFromUniform` draw from @p rng (always finite). */
double sampleExp(Rng &rng, double rate);

/**
 * A lazy, seed-pure arrival-time generator.
 *
 * next() returns strictly increasing absolute arrival times (seconds
 * from 0). Construction validates the config and throws
 * std::invalid_argument (release builds included) on a non-positive
 * or non-finite rate, amplitude outside [0, 1), non-positive period,
 * multiplier < 1, fraction outside (0, 1), or non-positive burst
 * sojourn.
 */
class ArrivalStream
{
  public:
    ArrivalStream(const ArrivalConfig &cfg, uint64_t seed);

    /** Next absolute arrival time. */
    double next();

    /** Long-run mean rate (the configured qps). */
    double meanQps() const { return cfg_.qps; }

    /** Peak instantaneous rate of the process. */
    double peakQps() const;

    const ArrivalConfig &config() const { return cfg_; }

  private:
    ArrivalConfig cfg_;
    Rng rng_;
    double t_ = 0.0;
    // Bursty-state bookkeeping.
    bool in_burst_ = false;
    double next_switch_ = 0.0;
    double base_rate_ = 0.0;
};

/**
 * Materialize the first @p n arrivals of a stream (convenience for
 * tests and the single-server simulator).
 */
std::vector<double> generateArrivals(const ArrivalConfig &cfg,
                                     int64_t n, uint64_t seed);

} // namespace paichar::stats

#endif // PAICHAR_STATS_ARRIVAL_H
