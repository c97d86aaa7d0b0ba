#include "fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

#include "inference/fleet_index.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "stats/cdf.h"
#include "stats/rng.h"

namespace paichar::inference {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void
badConfig(const std::string &what)
{
    throw std::invalid_argument("FleetSimulator: " + what);
}

/** One server of the fleet. */
struct Server
{
    enum class State
    {
        Up,
        Provisioning,
        Draining,
        Down,
    };

    State state = State::Up;
    std::deque<int64_t> queue; // waiting request ids
    bool busy = false;
    double launch_start = 0.0;     // valid while busy
    std::vector<int64_t> in_flight; // ids of the running launch
    // Continuous batching: items left in the current amortization
    // window and the model the window was opened for.
    int window_left = 0;
    int window_model = -1;
    double busy_time = 0.0;
    double up_since = 0.0;
    double uptime = 0.0; // accumulated when retired / at end
    int64_t batches = 0;
    int64_t items = 0;
};

/** Event ordering: (time, kind, server). Arrivals precede the
 *  completions they may join (an arrival at a launch instant joins
 *  that launch), provisions precede arrivals so fresh capacity is
 *  routable at its ready instant. */
enum EventKind
{
    kProvision = 0,
    kArrival = 1,
    kCompletion = 2,
    kTick = 3,
};

} // namespace

const char *
toString(OverloadVerdict v)
{
    switch (v) {
    case OverloadVerdict::Stable:
        return "stable";
    case OverloadVerdict::Saturated:
        return "saturated";
    case OverloadVerdict::Undersampled:
        return "undersampled";
    }
    return "?";
}

const char *
toString(Routing r)
{
    switch (r) {
    case Routing::RoundRobin:
        return "round-robin";
    case Routing::LeastQueue:
        return "least-queue";
    case Routing::PowerOfTwo:
        return "p2c";
    }
    return "?";
}

const char *
toString(Batching b)
{
    switch (b) {
    case Batching::Greedy:
        return "greedy";
    case Batching::Continuous:
        return "continuous";
    }
    return "?";
}

std::optional<Routing>
routingFromString(const std::string &s)
{
    if (s == "round-robin")
        return Routing::RoundRobin;
    if (s == "least-queue")
        return Routing::LeastQueue;
    if (s == "p2c")
        return Routing::PowerOfTwo;
    return std::nullopt;
}

std::optional<Batching>
batchingFromString(const std::string &s)
{
    if (s == "greedy")
        return Batching::Greedy;
    if (s == "continuous")
        return Batching::Continuous;
    return std::nullopt;
}

FleetSimulator::FleetSimulator(FleetConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.num_servers < 1)
        badConfig("num_servers must be >= 1, got " +
                  std::to_string(cfg_.num_servers));
    if (cfg_.max_batch < 1)
        badConfig("max_batch must be >= 1, got " +
                  std::to_string(cfg_.max_batch));
    if (!(cfg_.launch_overhead >= 0.0) ||
        !std::isfinite(cfg_.launch_overhead))
        badConfig("launch_overhead must be finite and >= 0");
    if (cfg_.admit_queue < 0)
        badConfig("admit_queue must be >= 0, got " +
                  std::to_string(cfg_.admit_queue));
    const AutoscalerConfig &as = cfg_.autoscaler;
    if (as.enabled) {
        if (as.min_servers < 1 || as.max_servers < as.min_servers)
            badConfig("autoscaler bounds must satisfy 1 <= "
                      "min_servers <= max_servers");
        if (!(as.check_interval > 0.0) ||
            !std::isfinite(as.check_interval))
            badConfig("autoscaler check_interval must be positive "
                      "and finite");
        if (!(as.provision_lag >= 0.0) ||
            !std::isfinite(as.provision_lag))
            badConfig("autoscaler provision_lag must be finite and "
                      ">= 0");
        if (as.mode == AutoscalerConfig::Mode::QueueDepth) {
            if (!(as.scale_down_depth >= 0.0) ||
                !(as.scale_up_depth > as.scale_down_depth))
                badConfig("autoscaler depths must satisfy 0 <= "
                          "scale_down_depth < scale_up_depth");
        } else {
            if (!(as.slo_latency > 0.0) ||
                !std::isfinite(as.slo_latency))
                badConfig("slo autoscaler needs a positive finite "
                          "slo_latency");
            if (!(as.slo_down_fraction >= 0.0) ||
                !(as.slo_up_fraction > as.slo_down_fraction) ||
                !std::isfinite(as.slo_up_fraction))
                badConfig("slo autoscaler fractions must satisfy 0 "
                          "<= slo_down_fraction < slo_up_fraction");
            if (as.slo_min_samples < 1)
                badConfig("slo autoscaler slo_min_samples must be "
                          ">= 1, got " +
                          std::to_string(as.slo_min_samples));
        }
    }
}

FleetResult
FleetSimulator::run(const std::vector<ModelLoad> &models,
                    int64_t num_requests, uint64_t seed) const
{
    if (models.empty())
        badConfig("run: at least one model load is required");
    if (num_requests < 1)
        badConfig("run: num_requests must be >= 1, got " +
                  std::to_string(num_requests));

    obs::Span run_span("inference.fleet.run", num_requests);
    static obs::Counter &requests_ctr =
        obs::counter("inference.fleet.requests");
    static obs::Counter &rejected_ctr =
        obs::counter("inference.fleet.rejected");
    static obs::Counter &batches_ctr =
        obs::counter("inference.fleet.batches");
    static obs::Counter &scale_ctr =
        obs::counter("inference.fleet.scale_events");
    static obs::Histogram &latency_hist =
        obs::histogram("inference.fleet.latency_us");

    // Merge the per-model streams into one time-ordered arrival
    // sequence. Stream 0 uses `seed` verbatim (the single-server
    // replay contract); stream i derives an independent SplitMix64
    // orbit from (seed, i). Ties break toward the lower stream.
    struct Arrival
    {
        double time;
        int model;
    };
    std::vector<Arrival> arrivals;
    arrivals.reserve(static_cast<size_t>(num_requests));
    {
        std::vector<stats::ArrivalStream> streams;
        streams.reserve(models.size());
        for (size_t i = 0; i < models.size(); ++i) {
            uint64_t stream_seed =
                seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i);
            streams.emplace_back(models[i].arrival, stream_seed);
        }
        std::vector<double> heads(streams.size());
        for (size_t i = 0; i < streams.size(); ++i)
            heads[i] = streams[i].next();
        for (int64_t n = 0; n < num_requests; ++n) {
            size_t best = 0;
            for (size_t i = 1; i < streams.size(); ++i) {
                if (heads[i] < heads[best])
                    best = i;
            }
            arrivals.push_back(
                {heads[best], static_cast<int>(best)});
            heads[best] = streams[best].next();
        }
    }

    const AutoscalerConfig &as = cfg_.autoscaler;
    int initial = cfg_.num_servers;
    if (as.enabled)
        initial = std::clamp(initial, as.min_servers,
                             as.max_servers);

    std::vector<Server> servers(static_cast<size_t>(initial));
    std::deque<std::pair<double, size_t>> provisions; // (ready, idx)
    stats::Rng route_rng(seed ^ 0x70327463726f7574ULL);

    FleetResult result;
    result.offered = num_requests;
    result.peak_servers = initial;

    stats::WeightedCdf latencies;
    std::vector<double> latency_seq;
    latency_seq.reserve(arrivals.size());
    if (cfg_.record_requests)
        result.requests.resize(arrivals.size());

    // Timeline probes: the loop advances the timeline to each event
    // time before processing it, so every sample lands in the window
    // containing its event. record_timeline=false runs (capacity
    // bisection probes) suspend the timeline entirely.
    std::optional<obs::TimelineSuspend> tl_suspend;
    if (!cfg_.record_timeline)
        tl_suspend.emplace();
    obs::Timeline *tl =
        obs::timelineActive() ? obs::timeline() : nullptr;
    obs::Timeline::Level *tl_up_lvl =
        tl ? &tl->level("inference.fleet.servers_up") : nullptr;
    obs::Timeline::Level *tl_queued_lvl =
        tl ? &tl->level("inference.fleet.queued") : nullptr;
    obs::Timeline::Rate *tl_arrivals =
        tl ? &tl->rate("inference.fleet.arrivals") : nullptr;
    obs::Timeline::Rate *tl_rejected =
        tl ? &tl->rate("inference.fleet.rejected") : nullptr;
    obs::Timeline::Rate *tl_completions =
        tl ? &tl->rate("inference.fleet.completions") : nullptr;
    obs::Timeline::Rate *tl_scale =
        tl ? &tl->rate("inference.fleet.scale_events") : nullptr;
    obs::Timeline::Quantile *tl_latency =
        tl ? &tl->quantile("inference.fleet.latency_us") : nullptr;

    // The SLO controller's trailing window: completions since the
    // last control decision. Kept by the simulator itself so
    // --autoscale=slo needs no timeline attached.
    std::vector<double> slo_window;
    const bool slo_mode =
        as.enabled && as.mode == AutoscalerConfig::Mode::SloLatency;

    double last_end = 0.0;
    size_t next_arrival = 0;
    uint64_t rr_counter = 0;
    double next_tick = as.enabled ? as.check_interval : kInf;

    // Indexed fleet state, so no event scans the fleet: busy servers
    // in a completion heap (its size is the busy count), the Up
    // servers in index order (rebuilt only when a provision or drain
    // changes a state), least-queue's (load, index) tree over the Up
    // servers, and running queued counts for the autoscaler and the
    // timeline.
    detail::CompletionHeap completions;
    std::vector<size_t> up;
    auto rebuildUp = [&] {
        up.clear();
        for (size_t i = 0; i < servers.size(); ++i) {
            if (servers[i].state == Server::State::Up)
                up.push_back(i);
        }
    };
    rebuildUp();
    size_t queued_all = 0; // every server's queue
    size_t queued_up = 0;  // the Up servers' queues

    auto load = [&](const Server &s) {
        return s.queue.size() + s.in_flight.size();
    };
    const bool least_queue = cfg_.routing == Routing::LeastQueue;
    detail::LeastLoadTree least_load;
    if (least_queue) {
        least_load.resize(servers.size());
        for (size_t i : up)
            least_load.set(i, 0);
    }
    auto loadChanged = [&](size_t si) {
        if (least_queue && servers[si].state == Server::State::Up)
            least_load.set(si, load(servers[si]));
    };

    const hw::GpuSpec &gpu = cfg_.server.gpu;
    double pcie = cfg_.server.pcie_bandwidth;

    // Launch the next unit of work on an idle server whose queue is
    // non-empty. Greedy: one multi-request launch of the front
    // request's model. Continuous: one item, charging the fixed cost
    // only at window boundaries.
    auto startWork = [&](size_t si, double t) {
        Server &s = servers[si];
        int m = arrivals[static_cast<size_t>(s.queue.front())].model;
        const InferenceWorkload &w = models[static_cast<size_t>(m)]
                                         .workload;
        double svc = 0.0;
        if (cfg_.batching == Batching::Greedy) {
            // Collect up to max_batch queued requests of model m in
            // FIFO order; other models keep their relative order.
            for (auto it = s.queue.begin();
                 it != s.queue.end() &&
                 s.in_flight.size() <
                     static_cast<size_t>(cfg_.max_batch);) {
                if (arrivals[static_cast<size_t>(*it)].model == m) {
                    s.in_flight.push_back(*it);
                    it = s.queue.erase(it);
                } else {
                    ++it;
                }
            }
            int batch = static_cast<int>(s.in_flight.size());
            svc = w.inputTime(batch, pcie) +
                  w.serviceTime(batch, gpu, cfg_.launch_overhead);
            ++s.batches;
        } else {
            s.in_flight.push_back(s.queue.front());
            s.queue.pop_front();
            if (s.window_left == 0 || s.window_model != m) {
                svc += w.fixedTime(gpu, cfg_.launch_overhead);
                s.window_left = cfg_.max_batch;
                s.window_model = m;
                ++s.batches;
            }
            --s.window_left;
            svc += w.itemTime(gpu) + w.inputTime(1, pcie);
        }
        // in_flight was empty: it holds exactly what left the queue.
        size_t taken = s.in_flight.size();
        queued_all -= taken;
        if (s.state == Server::State::Up)
            queued_up -= taken;
        s.busy = true;
        s.launch_start = t;
        s.busy_time += svc;
        completions.push({t + svc, si});
    };

    auto finishWork = [&](size_t si, double t) {
        Server &s = servers[si];
        int batch = static_cast<int>(s.in_flight.size());
        for (int64_t id : s.in_flight) {
            double lat =
                t - arrivals[static_cast<size_t>(id)].time;
            latencies.add(lat);
            latency_seq.push_back(lat);
            if (tl_latency)
                tl_latency->observe(lat * 1e6);
            if (slo_mode)
                slo_window.push_back(lat);
            if (cfg_.record_requests) {
                RequestRecord &rec =
                    result.requests[static_cast<size_t>(id)];
                rec.arrival = arrivals[static_cast<size_t>(id)].time;
                rec.start = s.launch_start;
                rec.completion = t;
                rec.server = static_cast<int>(si);
                rec.model = arrivals[static_cast<size_t>(id)].model;
                rec.batch = batch;
            }
        }
        s.items += batch;
        result.completed += batch;
        if (tl_completions)
            tl_completions->add(static_cast<double>(batch));
        s.in_flight.clear();
        s.busy = false;
        loadChanged(si);
        last_end = t;
        if (!s.queue.empty()) {
            startWork(si, t);
        } else if (s.state == Server::State::Draining) {
            s.state = Server::State::Down;
            s.uptime += t - s.up_since;
        }
    };

    // Post-event level sampling: last-set-wins within a window, so
    // each closed window reports the fleet state as of its final
    // event — piecewise-constant sampling of size and backlog.
    auto sampleFleetLevels = [&] {
        if (!tl)
            return;
        tl_up_lvl->set(static_cast<double>(up.size()));
        tl_queued_lvl->set(static_cast<double>(queued_all));
    };

    while (next_arrival < arrivals.size() || !completions.empty()) {
        // Select the next event by (time, kind, server).
        double ev_time = kInf;
        int ev_kind = kTick;
        size_t ev_server = 0;
        if (!provisions.empty()) {
            ev_time = provisions.front().first;
            ev_kind = kProvision;
            ev_server = provisions.front().second;
        }
        if (next_arrival < arrivals.size()) {
            double t = arrivals[next_arrival].time;
            if (t < ev_time ||
                (t == ev_time && kArrival < ev_kind)) {
                ev_time = t;
                ev_kind = kArrival;
            }
        }
        if (!completions.empty()) {
            // The heap's (time, server) order is the scan order among
            // completions: the earliest, then the lowest server.
            double t = completions.top().time;
            if (t < ev_time ||
                (t == ev_time && kCompletion < ev_kind)) {
                ev_time = t;
                ev_kind = kCompletion;
                ev_server = completions.top().server;
            }
        }
        if (as.enabled && next_tick < ev_time) {
            ev_time = next_tick;
            ev_kind = kTick;
        }

        // Close windows ending at or before this event, so whatever
        // it records lands in the window containing it.
        if (tl)
            tl->advanceTo(ev_time);

        switch (ev_kind) {
        case kProvision: {
            provisions.pop_front();
            Server &s = servers[ev_server];
            s.state = Server::State::Up;
            s.up_since = ev_time;
            rebuildUp();
            loadChanged(ev_server);
            result.peak_servers = std::max(
                result.peak_servers, static_cast<int>(up.size()));
            break;
        }

        case kArrival: {
            int64_t id = static_cast<int64_t>(next_arrival);
            ++next_arrival;
            if (tl_arrivals)
                tl_arrivals->add();
            size_t chosen = up.front();
            switch (cfg_.routing) {
            case Routing::RoundRobin:
                chosen = up[static_cast<size_t>(
                    rr_counter % up.size())];
                ++rr_counter;
                break;
            case Routing::LeastQueue:
                // Lowest index among the least loaded, as a scan of
                // `up` in index order would pick.
                chosen = least_load.argmin();
                break;
            case Routing::PowerOfTwo: {
                if (up.size() > 1) {
                    auto n = static_cast<int64_t>(up.size());
                    auto a = static_cast<size_t>(
                        route_rng.uniformInt(0, n - 1));
                    auto b = static_cast<size_t>(
                        route_rng.uniformInt(0, n - 2));
                    if (b >= a)
                        ++b;
                    // Less loaded wins; ties go to the lower index.
                    size_t lo = std::min(a, b), hi = std::max(a, b);
                    chosen = load(servers[up[hi]]) <
                                     load(servers[up[lo]])
                                 ? up[hi]
                                 : up[lo];
                } else {
                    chosen = up.front();
                }
                break;
            }
            }
            Server &s = servers[chosen];
            if (cfg_.admit_queue > 0 &&
                s.queue.size() >=
                    static_cast<size_t>(cfg_.admit_queue)) {
                ++result.rejected;
                if (tl_rejected)
                    tl_rejected->add();
                if (cfg_.record_requests) {
                    RequestRecord &rec =
                        result.requests[static_cast<size_t>(id)];
                    rec.arrival = ev_time;
                    rec.model =
                        arrivals[static_cast<size_t>(id)].model;
                    rec.server = static_cast<int>(chosen);
                    rec.rejected = true;
                }
                break;
            }
            s.queue.push_back(id);
            ++queued_all;
            ++queued_up;
            loadChanged(chosen);
            if (!s.busy)
                startWork(chosen, ev_time);
            break;
        }

        case kCompletion:
            completions.pop();
            finishWork(ev_server, ev_time);
            break;

        case kTick: {
            next_tick += as.check_interval;
            if (up.empty())
                break;
            int up_now = static_cast<int>(up.size());
            bool scale_up = false, scale_down = false;
            if (slo_mode) {
                // React to the trailing window's p99 vs the SLO.
                // Fewer than slo_min_samples completions is noise:
                // hold, exactly like the saturation detector's
                // sample floor.
                if (slo_window.size() >=
                    static_cast<size_t>(as.slo_min_samples)) {
                    double p99 = obs::nearestRankQuantile(
                        slo_window, 0.99);
                    scale_up =
                        p99 > as.slo_latency * as.slo_up_fraction;
                    scale_down =
                        p99 < as.slo_latency * as.slo_down_fraction;
                }
                slo_window.clear();
            } else {
                double depth =
                    static_cast<double>(queued_up) / up_now;
                scale_up = depth > as.scale_up_depth;
                scale_down = depth < as.scale_down_depth;
            }
            if (scale_up &&
                up_now + static_cast<int>(provisions.size()) <
                    as.max_servers) {
                servers.emplace_back();
                servers.back().state = Server::State::Provisioning;
                if (least_queue)
                    least_load.resize(servers.size());
                provisions.emplace_back(
                    ev_time + as.provision_lag,
                    servers.size() - 1);
                ++result.scale_ups;
                if (tl_scale)
                    tl_scale->add();
            } else if (scale_down &&
                       up_now > std::max(as.min_servers, 1)) {
                // Drain the highest-index Up server.
                size_t victim = up.back();
                Server &s = servers[victim];
                if (!s.busy && s.queue.empty()) {
                    s.state = Server::State::Down;
                    s.uptime += ev_time - s.up_since;
                } else {
                    s.state = Server::State::Draining;
                }
                queued_up -= s.queue.size();
                rebuildUp();
                if (least_queue)
                    least_load.remove(victim);
                ++result.scale_downs;
                if (tl_scale)
                    tl_scale->add();
            }
            break;
        }
        }

        sampleFleetLevels();
    }

    if (tl)
        tl->advanceTo(last_end);

    result.duration = last_end;
    result.admitted = result.offered - result.rejected;
    result.throughput =
        last_end > 0.0
            ? static_cast<double>(result.completed) / last_end
            : 0.0;
    if (!latencies.empty()) {
        result.mean_latency = latencies.mean();
        result.p50_latency = latencies.quantile(0.50);
        result.p95_latency = latencies.quantile(0.95);
        result.p99_latency = latencies.quantile(0.99);
        result.p999_latency = latencies.quantile(0.999);
        result.max_latency = latencies.max();
    }

    int64_t total_batches = 0;
    double busy_total = 0.0, uptime_total = 0.0;
    result.servers.reserve(servers.size());
    int final_up = 0;
    for (Server &s : servers) {
        if (s.state == Server::State::Up ||
            s.state == Server::State::Draining) {
            s.uptime += last_end - s.up_since;
            final_up += s.state == Server::State::Up;
        }
        ServerStats stats;
        stats.busy = s.busy_time;
        stats.uptime = s.uptime;
        stats.batches = s.batches;
        stats.items = s.items;
        result.servers.push_back(stats);
        total_batches += s.batches;
        busy_total += s.busy_time;
        uptime_total += s.uptime;
    }
    result.final_servers = final_up;
    result.batches = total_batches;
    result.gpu_utilization =
        uptime_total > 0.0 ? busy_total / uptime_total : 0.0;
    result.avg_batch =
        total_batches > 0
            ? static_cast<double>(result.completed) /
                  static_cast<double>(total_batches)
            : 0.0;

    // Overload detection: under a stable queue, late-run latencies
    // match mid-run ones; in overload the backlog (and thus latency)
    // grows without bound. Below the sample floor the heuristic has
    // no signal, and the verdict says so explicitly instead of
    // defaulting to "stable".
    size_t n = latency_seq.size();
    if (n < static_cast<size_t>(kMinSaturationSamples)) {
        result.verdict = OverloadVerdict::Undersampled;
    } else {
        auto mean_range = [&](size_t lo, size_t hi) {
            double acc = 0.0;
            for (size_t j = lo; j < hi; ++j)
                acc += latency_seq[j];
            return acc / static_cast<double>(hi - lo);
        };
        // With a linearly growing backlog the tail-to-middle ratio
        // approaches 1.8 (0.9n vs 0.5n of linear growth); a stable
        // queue keeps it near 1. Split the difference.
        double mid = mean_range(2 * n / 5, 3 * n / 5);
        double tail = mean_range(4 * n / 5, n);
        result.verdict = tail > 1.45 * mid
                             ? OverloadVerdict::Saturated
                             : OverloadVerdict::Stable;
    }
    result.saturated =
        result.verdict == OverloadVerdict::Saturated;

    // One batch publish per run: bit-identical to observing each
    // latency as it completes, without four atomics per request.
    latency_hist.observeBatch(latency_seq, 1e6);
    requests_ctr.add(static_cast<uint64_t>(result.offered));
    rejected_ctr.add(static_cast<uint64_t>(result.rejected));
    batches_ctr.add(static_cast<uint64_t>(total_batches));
    scale_ctr.add(static_cast<uint64_t>(result.scale_ups +
                                        result.scale_downs));
    return result;
}

namespace {

/** The argument checks both SLO searches share. */
void
checkSloSearch(const char *who, double slo, const char *count_name,
               int64_t count)
{
    if (!(slo > 0.0) || !std::isfinite(slo))
        throw std::invalid_argument(std::string(who) +
                                    ": slo must be positive and finite");
    // A probe too short to judge saturation could certify an
    // overloaded operating point.
    if (count < kMinSaturationSamples)
        throw std::invalid_argument(
            std::string(who) + ": " + count_name + " must be >= " +
            std::to_string(kMinSaturationSamples) +
            " (the saturation-detector sample floor), got " +
            std::to_string(count));
}

/** One SLO-search probe: a fixed fleet, nothing recorded. */
bool
probeMeetsSlo(FleetConfig probe, const std::vector<ModelLoad> &models,
              double slo, int64_t num_requests, uint64_t seed)
{
    probe.autoscaler.enabled = false;
    probe.record_requests = false;
    probe.record_timeline = false;
    FleetResult r =
        FleetSimulator(probe).run(models, num_requests, seed);
    return r.verdict == OverloadVerdict::Stable && r.rejected == 0 &&
           r.p99_latency <= slo;
}

} // namespace

std::optional<int>
minServersForSlo(const FleetConfig &cfg,
                 const std::vector<ModelLoad> &models, double slo,
                 int max_servers, int64_t num_requests,
                 uint64_t seed)
{
    checkSloSearch("minServersForSlo", slo, "num_requests",
                   num_requests);
    if (max_servers < 1)
        throw std::invalid_argument(
            "minServersForSlo: max_servers must be >= 1, got " +
            std::to_string(max_servers));

    obs::Span span("inference.fleet.capacity_search");
    static obs::Counter &probes_ctr =
        obs::counter("inference.fleet.capacity_probes");

    auto ok = [&](int n) {
        probes_ctr.add();
        FleetConfig probe = cfg;
        probe.num_servers = n;
        return probeMeetsSlo(std::move(probe), models, slo,
                             num_requests, seed);
    };

    if (ok(1))
        return 1;
    if (max_servers == 1 || !ok(max_servers))
        return std::nullopt;
    // Queueing delay falls monotonically as per-server load drops,
    // so the pass/fail boundary is a single point to bisect.
    int lo = 1, hi = max_servers;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (ok(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

double
maxQpsUnderSlo(const FleetConfig &cfg, const InferenceWorkload &workload,
               double slo, double qps_hi, int64_t probe_requests,
               uint64_t seed)
{
    checkSloSearch("maxQpsUnderSlo", slo, "probe_requests",
                   probe_requests);
    if (!(qps_hi > 1.0) || !std::isfinite(qps_hi))
        throw std::invalid_argument(
            "maxQpsUnderSlo: qps_hi must be > 1 and finite");

    obs::Span span("inference.max_qps_under_slo");
    static obs::Counter &probes_ctr =
        obs::counter("inference.slo_probes");

    auto ok = [&](double qps) {
        probes_ctr.add();
        stats::ArrivalConfig arrival;
        arrival.qps = qps;
        return probeMeetsSlo(cfg, {{workload, arrival}}, slo,
                             probe_requests, seed);
    };

    if (!ok(1.0))
        return 0.0;
    if (ok(qps_hi))
        return qps_hi;
    double lo = 1.0, hi = qps_hi;
    for (int iter = 0; iter < 24; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (ok(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace paichar::inference
