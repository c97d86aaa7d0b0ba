#include "fleet_oracle.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>

#include "stats/arrival.h"
#include "stats/cdf.h"
#include "stats/rng.h"
#include "workload/model_zoo.h"

namespace paichar::testkit {

using inference::Batching;
using inference::FleetConfig;
using inference::FleetResult;
using inference::FleetSimulator;
using inference::InferenceWorkload;
using inference::ModelLoad;
using inference::OverloadVerdict;
using inference::RequestRecord;
using inference::Routing;

namespace {

/** Slack for accumulated floating-point time sums. */
constexpr double kEps = 1e-9;

std::string
fail(const std::string &what)
{
    return what;
}

/**
 * The differential's reference: the original single-server serving
 * loop, kept as written before the fleet replaced it. Poisson
 * arrivals; whenever the GPU is free, everything queued by the
 * launch instant (up to max_batch) leaves as one launch. It fills the
 * FleetResult fields a one-server greedy fleet must reproduce.
 */
FleetResult
referenceSingleServer(const InferenceWorkload &w, double qps,
                      int64_t num_requests, uint64_t seed,
                      int max_batch)
{
    const FleetConfig defaults;
    const hw::ServerSpec &server = defaults.server;
    stats::Rng rng(seed);
    std::vector<double> arrivals(static_cast<size_t>(num_requests));
    double t = 0.0;
    for (double &a : arrivals) {
        t += stats::sampleExp(rng, qps);
        a = t;
    }

    std::deque<double> queue; // arrival times of waiting requests
    size_t next = 0;
    double gpu_free = 0.0, busy = 0.0, last_end = 0.0;
    int64_t batches = 0;
    stats::WeightedCdf latencies;
    std::vector<double> latency_seq;
    while (next < arrivals.size() || !queue.empty()) {
        if (queue.empty())
            queue.push_back(arrivals[next++]);
        double start = std::max(gpu_free, queue.front());
        while (next < arrivals.size() && arrivals[next] <= start)
            queue.push_back(arrivals[next++]);
        int batch = static_cast<int>(
            std::min<size_t>(queue.size(), static_cast<size_t>(max_batch)));
        double svc = w.inputTime(batch, server.pcie_bandwidth) +
                     w.serviceTime(batch, server.gpu,
                                   defaults.launch_overhead);
        double end = start + svc;
        for (int b = 0; b < batch; ++b) {
            double lat = end - queue.front();
            latencies.add(lat);
            latency_seq.push_back(lat);
            queue.pop_front();
        }
        gpu_free = end;
        busy += svc;
        last_end = end;
        ++batches;
    }

    FleetResult r;
    r.completed = num_requests;
    r.duration = last_end;
    r.throughput = num_requests / last_end;
    r.mean_latency = latencies.mean();
    r.p50_latency = latencies.quantile(0.50);
    r.p95_latency = latencies.quantile(0.95);
    r.p99_latency = latencies.quantile(0.99);
    r.p999_latency = latencies.quantile(0.999);
    r.max_latency = latencies.max();
    r.gpu_utilization = busy / last_end;
    r.avg_batch = static_cast<double>(num_requests) /
                  static_cast<double>(batches);
    size_t n = latency_seq.size();
    if (n < static_cast<size_t>(inference::kMinSaturationSamples)) {
        r.verdict = OverloadVerdict::Undersampled;
    } else {
        auto mean_range = [&](size_t lo, size_t hi) {
            double acc = 0.0;
            for (size_t j = lo; j < hi; ++j)
                acc += latency_seq[j];
            return acc / static_cast<double>(hi - lo);
        };
        r.verdict = mean_range(4 * n / 5, n) >
                            1.45 * mean_range(2 * n / 5, 3 * n / 5)
                        ? OverloadVerdict::Saturated
                        : OverloadVerdict::Stable;
    }
    return r;
}

} // namespace

std::optional<std::string>
checkFleetInvariants(const FleetConfig &cfg,
                     const std::vector<ModelLoad> &models,
                     const FleetResult &r)
{
    if (r.requests.empty())
        return fail("oracle needs record_requests = true (no "
                    "per-request log in the result)");

    // --- Request conservation ------------------------------------
    if (r.offered != r.admitted + r.rejected)
        return fail("conservation: offered != admitted + rejected");
    if (r.completed != r.admitted)
        return fail("conservation: completed != admitted (" +
                    std::to_string(r.completed) + " vs " +
                    std::to_string(r.admitted) + ")");
    if (static_cast<int64_t>(r.requests.size()) != r.offered)
        return fail("conservation: request log size != offered");
    if (cfg.admit_queue == 0 && r.rejected != 0)
        return fail("conservation: rejections without admission "
                    "control");

    int64_t rejected_seen = 0;
    for (size_t i = 0; i < r.requests.size(); ++i) {
        const RequestRecord &rec = r.requests[i];
        std::string tag = "request " + std::to_string(i) + ": ";
        if (rec.rejected) {
            ++rejected_seen;
            if (rec.completion != 0.0)
                return fail(tag + "rejected yet completed");
            continue;
        }
        // --- Causality -------------------------------------------
        if (rec.server < 0 ||
            rec.server >= static_cast<int>(r.servers.size()))
            return fail(tag + "served by out-of-range server " +
                        std::to_string(rec.server));
        if (rec.start + kEps < rec.arrival)
            return fail(tag + "starts before it arrives");
        if (rec.completion < rec.start)
            return fail(tag + "completes before it starts");
        if (rec.batch < 1 || rec.batch > cfg.max_batch)
            return fail(tag + "batch " + std::to_string(rec.batch) +
                        " outside [1, max_batch]");
        if (rec.model < 0 ||
            rec.model >= static_cast<int>(models.size()))
            return fail(tag + "unknown model " +
                        std::to_string(rec.model));
    }
    if (rejected_seen != r.rejected)
        return fail("conservation: logged rejections != counted (" +
                    std::to_string(rejected_seen) + " vs " +
                    std::to_string(r.rejected) + ")");

    // --- Per-server capacity -------------------------------------
    int64_t items_sum = 0;
    for (size_t s = 0; s < r.servers.size(); ++s) {
        items_sum += r.servers[s].items;
        if (r.servers[s].busy > r.servers[s].uptime + kEps)
            return fail("capacity: server " + std::to_string(s) +
                        " busy " + std::to_string(r.servers[s].busy) +
                        "s exceeds uptime " +
                        std::to_string(r.servers[s].uptime) + "s");
    }
    if (items_sum != r.completed)
        return fail("conservation: per-server items sum != "
                    "completed");

    // One GPU, one launch at a time: the launch intervals recorded
    // on a server must not overlap. Greedy launches share
    // (start, completion) across their batch; collapse duplicates.
    std::map<int, std::vector<std::pair<double, double>>> launches;
    for (const RequestRecord &rec : r.requests) {
        if (!rec.rejected)
            launches[rec.server].emplace_back(rec.start,
                                              rec.completion);
    }
    for (auto &[server, iv] : launches) {
        std::sort(iv.begin(), iv.end());
        iv.erase(std::unique(iv.begin(), iv.end()), iv.end());
        for (size_t i = 1; i < iv.size(); ++i) {
            if (iv[i].first + kEps < iv[i - 1].second)
                return fail(
                    "capacity: server " + std::to_string(server) +
                    " launches overlap (" +
                    std::to_string(iv[i].first) + " < " +
                    std::to_string(iv[i - 1].second) + ")");
        }
    }

    // --- Quantile coherence --------------------------------------
    if (!(r.p50_latency <= r.p95_latency &&
          r.p95_latency <= r.p99_latency &&
          r.p99_latency <= r.p999_latency &&
          r.p999_latency <= r.max_latency + kEps))
        return fail("quantiles: p50 <= p95 <= p99 <= p999 <= max "
                    "violated");
    if (r.mean_latency < 0.0 || r.p50_latency < 0.0)
        return fail("quantiles: negative latency");
    if (r.gpu_utilization < 0.0 ||
        r.gpu_utilization > 1.0 + 1e-6)
        return fail("capacity: gpu_utilization outside [0, 1]");
    if (r.avg_batch > cfg.max_batch + 1e-9)
        return fail("capacity: avg_batch exceeds max_batch");
    return std::nullopt;
}

std::optional<std::string>
checkSingleServerEquivalence(const InferenceWorkload &w, double qps,
                             int64_t num_requests, uint64_t seed,
                             int max_batch)
{
    FleetResult a =
        referenceSingleServer(w, qps, num_requests, seed, max_batch);

    FleetConfig fcfg;
    fcfg.num_servers = 1;
    fcfg.max_batch = max_batch;
    fcfg.batching = Batching::Greedy;
    fcfg.record_requests = false;
    stats::ArrivalConfig arrival;
    arrival.kind = stats::ArrivalKind::Constant;
    arrival.qps = qps;
    FleetResult b =
        FleetSimulator(fcfg).run({{w, arrival}}, num_requests, seed);

    auto diff = [](const std::string &field, double x, double y) {
        std::ostringstream os;
        os.precision(17);
        os << "single-server differential: " << field
           << " diverges (reference " << x << " vs fleet " << y
           << ")";
        return os.str();
    };
    // Byte-exact: the fleet shares the reference's RNG orbit,
    // sampler and arithmetic, so == (not NEAR) is the contract.
    if (a.completed != b.completed)
        return fail("single-server differential: completion counts "
                    "differ");
    if (a.duration != b.duration)
        return diff("duration", a.duration, b.duration);
    if (a.throughput != b.throughput)
        return diff("throughput", a.throughput, b.throughput);
    if (a.mean_latency != b.mean_latency)
        return diff("mean_latency", a.mean_latency, b.mean_latency);
    if (a.p50_latency != b.p50_latency)
        return diff("p50", a.p50_latency, b.p50_latency);
    if (a.p95_latency != b.p95_latency)
        return diff("p95", a.p95_latency, b.p95_latency);
    if (a.p99_latency != b.p99_latency)
        return diff("p99", a.p99_latency, b.p99_latency);
    if (a.p999_latency != b.p999_latency)
        return diff("p999", a.p999_latency, b.p999_latency);
    if (a.max_latency != b.max_latency)
        return diff("max_latency", a.max_latency, b.max_latency);
    if (a.gpu_utilization != b.gpu_utilization)
        return diff("gpu_utilization", a.gpu_utilization,
                    b.gpu_utilization);
    if (a.avg_batch != b.avg_batch)
        return diff("avg_batch", a.avg_batch, b.avg_batch);
    if (a.verdict != b.verdict)
        return fail(std::string("single-server differential: "
                                "verdict diverges (") +
                    toString(a.verdict) + " vs " +
                    toString(b.verdict) + ")");
    return std::nullopt;
}

std::string
describe(const FleetFuzzFailure &f)
{
    std::ostringstream os;
    os << "fleet oracle violation at seed " << f.seed << "\n"
       << "  shape: " << f.shape << "\n"
       << "  " << f.message << "\n"
       << "  repro: PAICHAR_FLEET_SEED=" << f.seed
       << " ctest -L serve\n";
    return os.str();
}

std::optional<FleetFuzzFailure>
fuzzFleet(uint64_t base_seed, int count, int64_t num_requests)
{
    InferenceWorkload resnet = InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
    InferenceWorkload bert = InferenceWorkload::fromTraining(
        workload::ModelZoo::bert());

    for (int i = 0; i < count; ++i) {
        uint64_t seed = base_seed + static_cast<uint64_t>(i);
        stats::Rng shape_rng(seed ^ 0x666c656574ULL); // "fleet"

        FleetConfig cfg;
        cfg.num_servers =
            static_cast<int>(shape_rng.uniformInt(1, 4));
        cfg.max_batch = static_cast<int>(shape_rng.uniformInt(1, 8));
        cfg.routing = static_cast<Routing>(shape_rng.uniformInt(0, 2));
        cfg.batching =
            static_cast<Batching>(shape_rng.uniformInt(0, 1));
        cfg.admit_queue = shape_rng.bernoulli(0.5)
                              ? static_cast<int>(
                                    shape_rng.uniformInt(4, 32))
                              : 0;
        cfg.record_requests = true;
        if (shape_rng.bernoulli(0.3)) {
            cfg.autoscaler.enabled = true;
            cfg.autoscaler.min_servers = 1;
            cfg.autoscaler.max_servers = 8;
            cfg.autoscaler.check_interval = 0.5;
            cfg.autoscaler.provision_lag =
                shape_rng.uniform(0.0, 5.0);
        }

        std::vector<ModelLoad> models;
        int num_models =
            static_cast<int>(shape_rng.uniformInt(1, 2));
        for (int m = 0; m < num_models; ++m) {
            ModelLoad load;
            load.workload = m == 0 ? resnet : bert;
            load.arrival.kind = static_cast<stats::ArrivalKind>(
                shape_rng.uniformInt(0, 2));
            // Spread offered load from comfortable to overloaded so
            // the oracle sees stable, saturated and rejecting runs.
            load.arrival.qps = shape_rng.uniform(50.0, 4000.0);
            models.push_back(load);
        }

        std::ostringstream shape;
        shape << "servers=" << cfg.num_servers
              << " max_batch=" << cfg.max_batch << " routing="
              << toString(cfg.routing) << " batching="
              << toString(cfg.batching) << " admit="
              << cfg.admit_queue << " autoscale="
              << (cfg.autoscaler.enabled ? "on" : "off")
              << " models=" << models.size();
        for (const ModelLoad &m : models)
            shape << " [" << toString(m.arrival.kind) << " qps="
                  << m.arrival.qps << "]";

        FleetResult r;
        try {
            r = FleetSimulator(cfg).run(models, num_requests, seed);
        } catch (const std::exception &e) {
            return FleetFuzzFailure{
                seed, std::string("unexpected throw: ") + e.what(),
                shape.str()};
        }
        if (auto msg = checkFleetInvariants(cfg, models, r))
            return FleetFuzzFailure{seed, *msg, shape.str()};

        // Every seed also replays the byte-exact differential.
        double qps = 100.0 + static_cast<double>(seed % 1500);
        if (auto msg = checkSingleServerEquivalence(
                resnet, qps, std::min<int64_t>(num_requests, 1500),
                seed, cfg.max_batch))
            return FleetFuzzFailure{seed, *msg, shape.str()};
    }
    return std::nullopt;
}

} // namespace paichar::testkit
