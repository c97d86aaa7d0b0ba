/**
 * @file
 * The SLO-driven serving-fleet simulator (DESIGN.md Sec 14): the
 * serving-side twin of the paper's hardware-evolution sweeps,
 * answering "how many servers does X QPS need under a Y-ms p99 SLO"
 * (minServersForSlo) and "how much load does this fleet hold under
 * it" (maxQpsUnderSlo). It is the library's one serving simulator.
 *
 * A fleet is N identical single-GPU model servers fed by open-loop
 * arrival streams (one stream per served model; constant, diurnal or
 * bursty — stats/arrival.h). Each arriving request is routed to one
 * server (round-robin, least-queue, or power-of-two-choices), passes
 * admission control (a per-server queue-depth bound; over-limit
 * arrivals are rejected and counted), and is served under one of two
 * batching disciplines:
 *
 *  - Greedy: when the GPU goes idle it takes up to max_batch queued
 *    requests *of one model* as a single launch; everything in the
 *    launch completes together.
 *  - Continuous (iteration-level): items are served and complete
 *    individually, with the per-launch fixed cost (kernel launch +
 *    weight stream) amortized over windows of up to max_batch
 *    consecutive same-model items — the batch never blocks a
 *    latecomer for a full launch, which is the continuous-batching
 *    latency win.
 *
 * A reactive autoscaler (optional) samples mean queue depth per up
 * server on a fixed control interval and adds servers (visible only
 * after a provisioning lag) or drains them (stop routing, finish the
 * queue, then retire), bounded by [min_servers, max_servers].
 *
 * Determinism: the entire simulation is a single-threaded event loop
 * over totally ordered events (time, kind, server) with seed-pure
 * per-stream RNGs, so results are byte-identical for every --threads
 * setting, like every other subcommand. A one-server greedy fleet
 * with a constant stream reproduces the original single-server
 * serving loop byte-for-byte (pinned by the testkit fleet oracle,
 * which keeps that loop as its reference).
 *
 * Cost: O(log servers) per event. No event scans the fleet: the next
 * completion comes off a (completion, server) min-heap of the busy
 * servers, least-queue routing reads a (load, index) min tree over the
 * Up servers, round-robin and p2c index a list of the Up servers that
 * only a provision or a drain rebuilds, and the autoscaler and the
 * timeline read running up/queued counts (fleet_index.h). Ties break
 * toward the lower server index, as the scans they replaced did.
 *
 * Each FleetSimulator::run publishes its completed requests'
 * latencies to the obs histogram registry
 * (`inference.fleet.latency_us`) in one batch at its end, so
 * p50/p99/p999 appear in --metrics / OpenMetrics output for free. The
 * SLO searches' probes publish nothing there: only the run the user
 * asked about is in the fleet metrics.
 *
 * Input validation is real error handling (std::invalid_argument in
 * release builds too), not asserts, and the overload verdict is
 * explicit: a run too short to judge reports
 * OverloadVerdict::Undersampled instead of silently passing for
 * stable.
 */

#ifndef PAICHAR_INFERENCE_FLEET_SIM_H
#define PAICHAR_INFERENCE_FLEET_SIM_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/hardware_config.h"
#include "inference/inference_workload.h"
#include "stats/arrival.h"

namespace paichar::inference {

/**
 * The saturation verdict of one serving run.
 *
 * The detector compares late-run latencies to mid-run ones (an
 * unstable queue grows without bound, so the tail keeps climbing);
 * that comparison needs a minimum sample count to mean anything.
 * Runs shorter than kMinSaturationSamples report Undersampled — an
 * explicit "cannot judge", never a silent "stable".
 */
enum class OverloadVerdict
{
    /** Enough samples, queue stable. */
    Stable,
    /** Enough samples, backlog growing without bound. */
    Saturated,
    /** Too few completions to judge (< kMinSaturationSamples). */
    Undersampled,
};

/** CLI/report spelling ("stable" | "saturated" | "undersampled"). */
const char *toString(OverloadVerdict v);

/** Minimum completions the saturation detector needs to judge. */
inline constexpr int64_t kMinSaturationSamples = 100;

/** Request-to-server routing policy. */
enum class Routing
{
    RoundRobin,
    LeastQueue,
    PowerOfTwo,
};

/** Batching discipline (see file header). */
enum class Batching
{
    Greedy,
    Continuous,
};

/** CLI spellings. */
const char *toString(Routing r);
const char *toString(Batching b);
std::optional<Routing> routingFromString(const std::string &s);
std::optional<Batching> batchingFromString(const std::string &s);

/** Reactive autoscaler settings. */
struct AutoscalerConfig
{
    /** What the control loop reacts to. */
    enum class Mode
    {
        /** Mean queued requests per up server (the original). */
        QueueDepth,
        /**
         * Trailing-window p99 latency vs an SLO (`--autoscale=slo`):
         * scale up when the p99 of the completions observed since
         * the last control decision approaches the SLO, drain down
         * when it clears it with margin. The window quantile is
         * obs::nearestRankQuantile, selected from the window's
         * latencies by the nearest-rank rule that the timeline
         * `inference.fleet.latency_us.p99` series and the run's
         * p99_latency also read. The controller keeps its own
         * window, so SLO autoscaling works with no timeline attached.
         */
        SloLatency,
    };

    bool enabled = false;
    Mode mode = Mode::QueueDepth;
    /** Fleet-size bounds the controller may move within. */
    int min_servers = 1;
    int max_servers = 64;
    /** Seconds between control decisions (> 0). */
    double check_interval = 1.0;
    /** Seconds before a newly added server starts serving (>= 0). */
    double provision_lag = 10.0;
    /** Scale up when mean queued requests per up server exceeds. */
    double scale_up_depth = 4.0;
    /** Scale (drain) down when it falls below. */
    double scale_down_depth = 0.5;
    /** SloLatency: the p99 target in seconds (> 0). */
    double slo_latency = 0.0;
    /** Scale up when window p99 > slo_latency * slo_up_fraction. */
    double slo_up_fraction = 0.8;
    /** Drain down when window p99 < slo_latency *
     *  slo_down_fraction. */
    double slo_down_fraction = 0.35;
    /**
     * Hold (no decision) when the window saw fewer completions than
     * this — an undersampled p99 is noise, the same lesson as the
     * saturation detector's sample floor.
     */
    int slo_min_samples = 20;
};

/** Fleet shape and policies. */
struct FleetConfig
{
    /** Hardware of every server in the fleet. */
    hw::ServerSpec server = hw::v100Testbed().server;
    /** Servers up at t = 0. */
    int num_servers = 1;
    /** Largest batch (or continuous window) per launch. */
    int max_batch = 8;
    /** Kernel-launch overhead per launch. */
    double launch_overhead = 30e-6;
    Routing routing = Routing::RoundRobin;
    Batching batching = Batching::Greedy;
    /**
     * Admission control: reject an arrival when its routed server
     * already holds this many queued requests (0 = unbounded).
     */
    int admit_queue = 0;
    AutoscalerConfig autoscaler;
    /** Record a per-request log in the result (testkit oracle). */
    bool record_requests = false;
};

/** One served model and the arrival stream offering load for it. */
struct ModelLoad
{
    InferenceWorkload workload;
    stats::ArrivalConfig arrival;
};

/** Per-request trace entry (record_requests). */
struct RequestRecord
{
    double arrival = 0.0;
    /** Launch (or item-service) start; 0 when rejected. */
    double start = 0.0;
    /** Completion time; 0 when rejected. */
    double completion = 0.0;
    int server = -1;
    int model = 0;
    /** Size of the launch this request completed in (1-based). */
    int batch = 0;
    bool rejected = false;
};

/** Per-server accounting. */
struct ServerStats
{
    /** GPU busy seconds. */
    double busy = 0.0;
    /** Seconds the server was up (provisioned until retired/end). */
    double uptime = 0.0;
    /** Launches (greedy) or amortization windows (continuous). */
    int64_t batches = 0;
    /** Requests completed on this server. */
    int64_t items = 0;
};

/** Aggregate outcome of one fleet run. */
struct FleetResult
{
    int64_t offered = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    /** Wall-clock span (last completion). */
    double duration = 0.0;
    /** Completions / duration. */
    double throughput = 0.0;
    double mean_latency = 0.0;
    double p50_latency = 0.0;
    double p95_latency = 0.0;
    double p99_latency = 0.0;
    double p999_latency = 0.0;
    double max_latency = 0.0;
    /** Fleet-wide busy seconds / up seconds. */
    double gpu_utilization = 0.0;
    /** Mean items per launch/window. */
    double avg_batch = 0.0;
    int64_t batches = 0;
    /** Explicit saturation verdict (saturated == (verdict ==
     *  Saturated); Undersampled is *not* stable). */
    OverloadVerdict verdict = OverloadVerdict::Undersampled;
    bool saturated = false;
    /** Autoscaler trajectory. */
    int peak_servers = 0;
    int final_servers = 0;
    int64_t scale_ups = 0;
    int64_t scale_downs = 0;
    std::vector<ServerStats> servers;
    /** Filled when FleetConfig::record_requests. */
    std::vector<RequestRecord> requests;
};

/** Simulates a multi-server, multi-model serving fleet. */
class FleetSimulator
{
  public:
    /**
     * @throws std::invalid_argument on num_servers < 1,
     *         max_batch < 1, negative/non-finite launch overhead,
     *         admit_queue < 0, or inconsistent autoscaler bounds.
     */
    explicit FleetSimulator(FleetConfig cfg);

    /**
     * Serve the first @p num_requests arrivals of the merged model
     * streams. Stream i draws from a private RNG derived from
     * (@p seed, i); stream 0's seed is exactly @p seed, so a
     * one-model fleet replays the single-server arrival sequence.
     *
     * @throws std::invalid_argument if models is empty,
     *         num_requests < 1, or any arrival config is invalid.
     */
    FleetResult run(const std::vector<ModelLoad> &models,
                    int64_t num_requests, uint64_t seed) const;

    const FleetConfig &config() const { return cfg_; }

  private:
    FleetConfig cfg_;
};

/*
 * The two SLO searches. Each probe runs @p cfg with the autoscaler
 * and the request log off (capacity planning wants a fixed fleet) and
 * passes only on a Stable verdict, zero rejections and p99 <= slo: an
 * undersampled or saturating probe can luck under the line. Probes
 * record no timeline and publish no `inference.fleet.*` metrics, so
 * only the run the user asked about lands in either; each search
 * counts its probes (`inference.fleet.capacity_probes`,
 * `inference.slo_probes`). Both throw std::invalid_argument when slo is
 * not positive and finite, or when a probe would have fewer than
 * kMinSaturationSamples requests (it could not judge saturation and
 * could certify an overloaded operating point).
 */

/**
 * Smallest fleet size in [1, max_servers] whose probe over @p models
 * (@p num_requests arrivals from @p seed) passes — found by bisection
 * (queueing delay is monotone in per-server load). Returns nullopt
 * when even max_servers misses the SLO.
 *
 * @throws std::invalid_argument also if max_servers < 1.
 */
std::optional<int>
minServersForSlo(const FleetConfig &cfg,
                 const std::vector<ModelLoad> &models, double slo,
                 int max_servers, int64_t num_requests,
                 uint64_t seed);

/**
 * Largest constant (Poisson) arrival rate of @p workload in
 * [1, qps_hi] whose probe on @p cfg (@p probe_requests arrivals from
 * @p seed) passes, found by 24 bisection steps; qps_hi when it passes
 * itself, 0 when even 1 qps misses the SLO.
 *
 * @throws std::invalid_argument also if qps_hi is not > 1 and
 *         finite.
 */
double maxQpsUnderSlo(const FleetConfig &cfg,
                      const InferenceWorkload &workload, double slo,
                      double qps_hi, int64_t probe_requests,
                      uint64_t seed);

} // namespace paichar::inference

#endif // PAICHAR_INFERENCE_FLEET_SIM_H
