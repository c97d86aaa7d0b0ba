#include "fleet_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

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
    // Ids of the running launch; the server is busy while non-empty.
    std::vector<int64_t> in_flight;
    double launch_start = 0.0; // valid while busy
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

namespace {

/** The argument checks of FleetSimulator::run. */
void
checkRunArgs(const std::vector<ModelLoad> &models, int64_t num_requests)
{
    if (models.empty())
        badConfig("run: at least one model load is required");
    if (num_requests < 1)
        badConfig("run: num_requests must be >= 1, got " +
                  std::to_string(num_requests));
}

struct Arrival
{
    double time;
    int model;
};

/**
 * Merge the per-model streams into one time-ordered arrival sequence.
 * Stream 0 uses `seed` verbatim (the single-server replay contract);
 * stream i derives an independent SplitMix64 orbit from (seed, i).
 * Ties break toward the lower stream.
 */
std::vector<Arrival>
mergeArrivals(const std::vector<ModelLoad> &models, int64_t num_requests,
              uint64_t seed)
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
    std::vector<Arrival> arrivals;
    arrivals.reserve(static_cast<size_t>(num_requests));
    for (int64_t n = 0; n < num_requests; ++n) {
        size_t best = 0;
        for (size_t i = 1; i < streams.size(); ++i) {
            if (heads[i] < heads[best])
                best = i;
        }
        arrivals.push_back({heads[best], static_cast<int>(best)});
        heads[best] = streams[best].next();
    }
    return arrivals;
}

/** Mean of v[lo, hi), summed in order. */
double
meanRange(const std::vector<double> &v, size_t lo, size_t hi)
{
    double acc = 0.0;
    for (size_t j = lo; j < hi; ++j)
        acc += v[j];
    return acc / static_cast<double>(hi - lo);
}

/**
 * Overload detection: under a stable queue, late-run latencies match
 * mid-run ones; in overload the backlog (and thus latency) grows
 * without bound. Below the sample floor the heuristic has no signal,
 * and the verdict says so explicitly instead of defaulting to
 * "stable".
 */
OverloadVerdict
overloadVerdict(const std::vector<double> &latency_seq)
{
    size_t n = latency_seq.size();
    if (n < static_cast<size_t>(kMinSaturationSamples))
        return OverloadVerdict::Undersampled;
    // With a linearly growing backlog the tail-to-middle ratio
    // approaches 1.8 (0.9n vs 0.5n of linear growth); a stable queue
    // keeps it near 1. Split the difference.
    double mid = meanRange(latency_seq, 2 * n / 5, 3 * n / 5);
    double tail = meanRange(latency_seq, 4 * n / 5, n);
    return tail > 1.45 * mid ? OverloadVerdict::Saturated
                             : OverloadVerdict::Stable;
}

/** One FleetSimulator::run: state as members, one function per phase. */
class FleetRun
{
  public:
    /** @pre cfg is valid and the run arguments are checked. */
    FleetRun(const FleetConfig &cfg, const std::vector<ModelLoad> &models,
             int64_t num_requests, uint64_t seed)
        : cfg_(cfg), as_(cfg.autoscaler), models_(models),
          arrivals_(mergeArrivals(models, num_requests, seed)),
          route_rng_(seed ^ 0x70327463726f7574ULL),
          slo_mode_(as_.enabled &&
                    as_.mode == AutoscalerConfig::Mode::SloLatency),
          least_queue_(cfg.routing == Routing::LeastQueue),
          next_tick_(as_.enabled ? as_.check_interval : kInf)
    {
        int initial = cfg_.num_servers;
        if (as_.enabled)
            initial =
                std::clamp(initial, as_.min_servers, as_.max_servers);
        servers_.resize(static_cast<size_t>(initial));
        result_.offered = num_requests;
        result_.peak_servers = initial;
        latency_seq_.reserve(arrivals_.size());
        if (cfg_.record_requests)
            result_.requests.resize(arrivals_.size());

        if (obs::timelineActive()) {
            tl_ = obs::timeline();
            tl_up_ = &tl_->level("inference.fleet.servers_up");
            tl_queued_ = &tl_->level("inference.fleet.queued");
            tl_arrivals_ = &tl_->rate("inference.fleet.arrivals");
            tl_rejected_ = &tl_->rate("inference.fleet.rejected");
            tl_completions_ = &tl_->rate("inference.fleet.completions");
            tl_scale_ = &tl_->rate("inference.fleet.scale_events");
            tl_latency_ = &tl_->quantile("inference.fleet.latency_us");
        }

        rebuildUp();
        if (least_queue_) {
            least_load_.resize(servers_.size());
            for (size_t i : up_)
                least_load_.set(i, 0);
        }
    }

    /** Serve every arrival, then build the result. */
    FleetResult
    loop()
    {
        while (next_arrival_ < arrivals_.size() || !completions_.empty()) {
            Event ev = nextEvent();
            // Close windows ending at or before this event, so
            // whatever it records lands in the window containing it.
            if (tl_)
                tl_->advanceTo(ev.time);
            switch (ev.kind) {
            case kProvision:
                provision(ev.time, ev.server);
                break;
            case kArrival:
                arrive(ev.time);
                break;
            case kCompletion:
                completions_.pop();
                finishWork(ev.server, ev.time);
                break;
            case kTick:
                tick(ev.time);
                break;
            }
            sampleLevels();
        }
        return finish();
    }

    /** Every completed request's latency, in completion order. */
    const std::vector<double> &latencies() const { return latency_seq_; }

  private:
    struct Event
    {
        double time;
        EventKind kind;
        size_t server;
    };

    // The next event by (time, kind, server).
    Event
    nextEvent() const
    {
        Event ev{kInf, kTick, 0};
        if (!provisions_.empty())
            ev = {provisions_.front().first, kProvision,
                  provisions_.front().second};
        if (next_arrival_ < arrivals_.size()) {
            double t = arrivals_[next_arrival_].time;
            if (t < ev.time || (t == ev.time && kArrival < ev.kind))
                ev = {t, kArrival, 0};
        }
        if (!completions_.empty()) {
            // The heap's (time, server) order is the scan order among
            // completions: the earliest, then the lowest server.
            const detail::Completion &c = completions_.top();
            if (c.time < ev.time ||
                (c.time == ev.time && kCompletion < ev.kind))
                ev = {c.time, kCompletion, c.server};
        }
        if (as_.enabled && next_tick_ < ev.time)
            ev = {next_tick_, kTick, 0};
        return ev;
    }

    // The Up servers in index order; only a provision or a drain
    // changes a state, so only they rebuild it.
    void
    rebuildUp()
    {
        up_.clear();
        for (size_t i = 0; i < servers_.size(); ++i) {
            if (servers_[i].state == Server::State::Up)
                up_.push_back(i);
        }
    }

    static size_t
    load(const Server &s)
    {
        return s.queue.size() + s.in_flight.size();
    }

    void
    loadChanged(size_t si)
    {
        if (least_queue_ && servers_[si].state == Server::State::Up)
            least_load_.set(si, load(servers_[si]));
    }

    // A provisioned server becomes Up and routable at t.
    void
    provision(double t, size_t si)
    {
        provisions_.pop_front();
        Server &s = servers_[si];
        s.state = Server::State::Up;
        s.up_since = t;
        rebuildUp();
        loadChanged(si);
        result_.peak_servers =
            std::max(result_.peak_servers, static_cast<int>(up_.size()));
    }

    // The Up server the next arrival goes to.
    size_t
    route()
    {
        if (cfg_.routing == Routing::RoundRobin)
            return up_[static_cast<size_t>(rr_counter_++ % up_.size())];
        if (cfg_.routing == Routing::LeastQueue) {
            // Lowest index among the least loaded, as a scan of `up_`
            // in index order would pick.
            return least_load_.argmin();
        }
        // Power of two choices: the less loaded of two distinct
        // random Up servers; ties go to the lower index.
        if (up_.size() < 2)
            return up_.front();
        auto n = static_cast<int64_t>(up_.size());
        auto a = static_cast<size_t>(route_rng_.uniformInt(0, n - 1));
        auto b = static_cast<size_t>(route_rng_.uniformInt(0, n - 2));
        if (b >= a)
            ++b;
        size_t lo = std::min(a, b), hi = std::max(a, b);
        return load(servers_[up_[hi]]) < load(servers_[up_[lo]]) ? up_[hi]
                                                                : up_[lo];
    }

    // Route the next arrival, then reject it or queue it.
    void
    arrive(double t)
    {
        int64_t id = static_cast<int64_t>(next_arrival_);
        ++next_arrival_;
        if (tl_arrivals_)
            tl_arrivals_->add();
        size_t chosen = route();
        Server &s = servers_[chosen];
        if (cfg_.admit_queue > 0 &&
            s.queue.size() >= static_cast<size_t>(cfg_.admit_queue)) {
            ++result_.rejected;
            if (tl_rejected_)
                tl_rejected_->add();
            if (cfg_.record_requests) {
                RequestRecord &rec =
                    result_.requests[static_cast<size_t>(id)];
                rec.arrival = t;
                rec.model = arrivals_[static_cast<size_t>(id)].model;
                rec.server = static_cast<int>(chosen);
                rec.rejected = true;
            }
            return;
        }
        s.queue.push_back(id);
        ++queued_all_;
        ++queued_up_;
        loadChanged(chosen);
        if (s.in_flight.empty())
            startWork(chosen, t);
    }

    // Launch the next unit of work on an idle server whose queue is
    // non-empty. Greedy: one multi-request launch of the front
    // request's model. Continuous: one item, charging the fixed cost
    // only at window boundaries.
    void
    startWork(size_t si, double t)
    {
        Server &s = servers_[si];
        int m = arrivals_[static_cast<size_t>(s.queue.front())].model;
        const InferenceWorkload &w =
            models_[static_cast<size_t>(m)].workload;
        const hw::GpuSpec &gpu = cfg_.server.gpu;
        double pcie = cfg_.server.pcie_bandwidth;
        double svc = 0.0;
        if (cfg_.batching == Batching::Greedy) {
            // Collect up to max_batch queued requests of model m in
            // FIFO order; other models keep their relative order.
            for (auto it = s.queue.begin();
                 it != s.queue.end() &&
                 s.in_flight.size() < static_cast<size_t>(cfg_.max_batch);) {
                if (arrivals_[static_cast<size_t>(*it)].model == m) {
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
        queued_all_ -= taken;
        if (s.state == Server::State::Up)
            queued_up_ -= taken;
        s.launch_start = t;
        s.busy_time += svc;
        completions_.push({t + svc, si});
    }

    // Complete the running launch (or item) of server si at t.
    void
    finishWork(size_t si, double t)
    {
        Server &s = servers_[si];
        int batch = static_cast<int>(s.in_flight.size());
        for (int64_t id : s.in_flight) {
            const Arrival &a = arrivals_[static_cast<size_t>(id)];
            double lat = t - a.time;
            latency_seq_.push_back(lat);
            if (tl_latency_)
                tl_latency_->observe(lat * 1e6);
            if (cfg_.record_requests) {
                RequestRecord &rec =
                    result_.requests[static_cast<size_t>(id)];
                rec.arrival = a.time;
                rec.start = s.launch_start;
                rec.completion = t;
                rec.server = static_cast<int>(si);
                rec.model = a.model;
                rec.batch = batch;
            }
        }
        s.items += batch;
        result_.completed += batch;
        if (tl_completions_)
            tl_completions_->add(static_cast<double>(batch));
        s.in_flight.clear();
        loadChanged(si);
        last_end_ = t;
        if (!s.queue.empty()) {
            startWork(si, t);
        } else if (s.state == Server::State::Draining) {
            s.state = Server::State::Down;
            s.uptime += t - s.up_since;
        }
    }

    // One autoscaler decision: add a server, drain one, or hold.
    void
    tick(double t)
    {
        next_tick_ += as_.check_interval;
        if (up_.empty())
            return;
        int up_now = static_cast<int>(up_.size());
        bool scale_up = false, scale_down = false;
        if (slo_mode_) {
            // React to the p99 of the completions since the last
            // decision, the tail of latency_seq_ from slo_from_.
            // Fewer than slo_min_samples completions is noise: hold,
            // exactly like the saturation detector's sample floor.
            if (latency_seq_.size() - slo_from_ >=
                static_cast<size_t>(as_.slo_min_samples)) {
                std::vector<double> window(
                    latency_seq_.begin() +
                        static_cast<std::ptrdiff_t>(slo_from_),
                    latency_seq_.end());
                double p99 =
                    obs::nearestRankQuantile(std::move(window), 0.99);
                scale_up = p99 > as_.slo_latency * as_.slo_up_fraction;
                scale_down =
                    p99 < as_.slo_latency * as_.slo_down_fraction;
            }
            slo_from_ = latency_seq_.size();
        } else {
            double depth = static_cast<double>(queued_up_) / up_now;
            scale_up = depth > as_.scale_up_depth;
            scale_down = depth < as_.scale_down_depth;
        }
        if (scale_up && up_now + static_cast<int>(provisions_.size()) <
                            as_.max_servers) {
            servers_.emplace_back();
            servers_.back().state = Server::State::Provisioning;
            if (least_queue_)
                least_load_.resize(servers_.size());
            provisions_.emplace_back(t + as_.provision_lag,
                                     servers_.size() - 1);
            ++result_.scale_ups;
            if (tl_scale_)
                tl_scale_->add();
        } else if (scale_down && up_now > std::max(as_.min_servers, 1)) {
            // Drain the highest-index Up server.
            size_t victim = up_.back();
            Server &s = servers_[victim];
            if (s.in_flight.empty() && s.queue.empty()) {
                s.state = Server::State::Down;
                s.uptime += t - s.up_since;
            } else {
                s.state = Server::State::Draining;
            }
            queued_up_ -= s.queue.size();
            rebuildUp();
            if (least_queue_)
                least_load_.remove(victim);
            ++result_.scale_downs;
            if (tl_scale_)
                tl_scale_->add();
        }
    }

    // Post-event level sampling: last-set-wins within a window, so
    // each closed window reports the fleet state as of its final
    // event — piecewise-constant sampling of size and backlog.
    void
    sampleLevels()
    {
        if (!tl_)
            return;
        tl_up_->set(static_cast<double>(up_.size()));
        tl_queued_->set(static_cast<double>(queued_all_));
    }

    // Close the timeline at the last completion and aggregate.
    FleetResult
    finish()
    {
        if (tl_)
            tl_->advanceTo(last_end_);

        FleetResult &r = result_;
        r.duration = last_end_;
        r.admitted = r.offered - r.rejected;
        r.throughput = last_end_ > 0.0
                           ? static_cast<double>(r.completed) / last_end_
                           : 0.0;
        if (!latency_seq_.empty()) {
            // The mean sums in completion order; the order statistics
            // are selected from a copy, since run() still reads
            // latency_seq_ in completion order.
            double sum = 0.0;
            for (double lat : latency_seq_) {
                stats::requireFiniteSample(lat);
                sum += lat;
            }
            r.mean_latency =
                sum / static_cast<double>(latency_seq_.size());
            static constexpr std::array<double, 5> kQs{
                0.50, 0.95, 0.99, 0.999, 1.0};
            std::vector<double> p =
                obs::nearestRankQuantiles(latency_seq_, kQs);
            r.p50_latency = p[0];
            r.p95_latency = p[1];
            r.p99_latency = p[2];
            r.p999_latency = p[3];
            r.max_latency = p[4];
        }

        double busy_total = 0.0, uptime_total = 0.0;
        r.servers.reserve(servers_.size());
        for (Server &s : servers_) {
            if (s.state == Server::State::Up ||
                s.state == Server::State::Draining) {
                s.uptime += last_end_ - s.up_since;
                r.final_servers += s.state == Server::State::Up;
            }
            ServerStats stats;
            stats.busy = s.busy_time;
            stats.uptime = s.uptime;
            stats.batches = s.batches;
            stats.items = s.items;
            r.servers.push_back(stats);
            r.batches += s.batches;
            busy_total += s.busy_time;
            uptime_total += s.uptime;
        }
        r.gpu_utilization =
            uptime_total > 0.0 ? busy_total / uptime_total : 0.0;
        r.avg_batch = r.batches > 0 ? static_cast<double>(r.completed) /
                                          static_cast<double>(r.batches)
                                    : 0.0;
        r.verdict = overloadVerdict(latency_seq_);
        r.saturated = r.verdict == OverloadVerdict::Saturated;
        return std::move(result_);
    }

    const FleetConfig &cfg_;
    const AutoscalerConfig &as_;
    const std::vector<ModelLoad> &models_;
    const std::vector<Arrival> arrivals_;
    stats::Rng route_rng_;
    const bool slo_mode_;
    const bool least_queue_;

    std::vector<Server> servers_;
    std::deque<std::pair<double, size_t>> provisions_; // (ready, idx)
    // Indexed fleet state, so no event scans the fleet: busy servers
    // in a completion heap (its size is the busy count), the Up
    // servers in index order, least-queue's (load, index) tree over
    // the Up servers, and running queued counts for the autoscaler
    // and the timeline.
    detail::CompletionHeap completions_;
    std::vector<size_t> up_;
    detail::LeastLoadTree least_load_;
    size_t queued_all_ = 0; // every server's queue
    size_t queued_up_ = 0;  // the Up servers' queues

    size_t next_arrival_ = 0;
    uint64_t rr_counter_ = 0;
    double next_tick_;
    double last_end_ = 0.0;
    // Completion-order latencies. The SLO controller's window is its
    // tail from slo_from_: the completions since the last decision,
    // kept by the simulator itself so --autoscale=slo needs no
    // timeline attached.
    std::vector<double> latency_seq_;
    size_t slo_from_ = 0;
    FleetResult result_;

    // Timeline probes: loop() advances the timeline to each event
    // time before processing it, so every sample lands in the window
    // containing its event.
    obs::Timeline *tl_ = nullptr;
    obs::Timeline::Level *tl_up_ = nullptr;
    obs::Timeline::Level *tl_queued_ = nullptr;
    obs::Timeline::Rate *tl_arrivals_ = nullptr;
    obs::Timeline::Rate *tl_rejected_ = nullptr;
    obs::Timeline::Rate *tl_completions_ = nullptr;
    obs::Timeline::Rate *tl_scale_ = nullptr;
    obs::Timeline::Quantile *tl_latency_ = nullptr;
};

} // namespace

FleetResult
FleetSimulator::run(const std::vector<ModelLoad> &models,
                    int64_t num_requests, uint64_t seed) const
{
    checkRunArgs(models, num_requests);
    obs::Span run_span("inference.fleet.run", num_requests);
    FleetRun fleet(cfg_, models, num_requests, seed);
    FleetResult result = fleet.loop();

    static obs::Histogram &latency_hist =
        obs::histogram("inference.fleet.latency_us");
    static obs::Counter &requests_ctr =
        obs::counter("inference.fleet.requests");
    static obs::Counter &rejected_ctr =
        obs::counter("inference.fleet.rejected");
    static obs::Counter &batches_ctr =
        obs::counter("inference.fleet.batches");
    static obs::Counter &scale_ctr =
        obs::counter("inference.fleet.scale_events");
    // One batch publish per run: bit-identical to observing each
    // latency as it completes, without four atomics per request.
    latency_hist.observeBatch(fleet.latencies(), 1e6);
    requests_ctr.add(static_cast<uint64_t>(result.offered));
    rejected_ctr.add(static_cast<uint64_t>(result.rejected));
    batches_ctr.add(static_cast<uint64_t>(result.batches));
    scale_ctr.add(
        static_cast<uint64_t>(result.scale_ups + result.scale_downs));
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

/**
 * One SLO-search probe: a fixed fleet with no request log. It runs
 * the loop without FleetSimulator::run, so it publishes nothing to
 * the `inference.fleet.*` metrics; the search holds the timeline
 * suspended around all of its probes.
 */
bool
probeMeetsSlo(FleetConfig probe, const std::vector<ModelLoad> &models,
              double slo, int64_t num_requests, uint64_t seed)
{
    probe.autoscaler.enabled = false;
    probe.record_requests = false;
    const FleetSimulator sim(std::move(probe)); // checks the config
    checkRunArgs(models, num_requests);
    FleetResult r =
        FleetRun(sim.config(), models, num_requests, seed).loop();
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
    // Only the run the user asked about belongs in the timeline.
    obs::TimelineSuspend tl_suspend;

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
    obs::TimelineSuspend tl_suspend;

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
