/**
 * @file
 * Serving-fleet simulator tests (`ctest -L serve`): invariants at
 * every fleet shape (throughput bounded by offered load, utilization
 * in [0, 1], batch bounds, quantile ordering, latency monotone in
 * load), routing and batching behavior, admission control, the
 * reactive autoscaler, capacity bisection and input validation; on
 * one server, workload derivation, queueing (idle latency is the
 * service time, utilization tracks load, throughput caps at service
 * capacity), batching economics, the overload verdict's sample floor
 * and the max-QPS-under-SLO search.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "inference/fleet_sim.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "workload/model_zoo.h"

namespace paichar::inference {
namespace {

InferenceWorkload
resnetServing()
{
    return InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
}

std::vector<ModelLoad>
constantLoad(double qps)
{
    stats::ArrivalConfig a;
    a.qps = qps;
    return {{resnetServing(), a}};
}

/** Batch-1 request latency on an idle default server. */
double
soloService(const InferenceWorkload &w)
{
    FleetConfig cfg;
    return w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
           w.inputTime(1, cfg.server.pcie_bandwidth);
}

/** @p n Poisson arrivals at @p qps on one greedy server. */
FleetResult
serveOne(const InferenceWorkload &w, double qps, int64_t n,
         uint64_t seed, int max_batch = 8)
{
    FleetConfig cfg;
    cfg.max_batch = max_batch;
    stats::ArrivalConfig a;
    a.qps = qps;
    return FleetSimulator(cfg).run({{w, a}}, n, seed);
}

TEST(FleetSimTest, DeterministicForEqualSeeds)
{
    FleetConfig cfg;
    cfg.num_servers = 3;
    cfg.routing = Routing::PowerOfTwo;
    FleetSimulator sim(cfg);
    auto a = sim.run(constantLoad(900.0), 5000, 7);
    auto b = sim.run(constantLoad(900.0), 5000, 7);
    EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.duration, b.duration);
}

TEST(FleetSimTest, InvariantsAcrossShapes)
{
    // The serving invariants, swept across routing x batching.
    for (Routing routing : {Routing::RoundRobin, Routing::LeastQueue,
                            Routing::PowerOfTwo}) {
        for (Batching batching :
             {Batching::Greedy, Batching::Continuous}) {
            FleetConfig cfg;
            cfg.num_servers = 3;
            cfg.max_batch = 8;
            cfg.routing = routing;
            cfg.batching = batching;
            cfg.record_requests = true;
            auto r = FleetSimulator(cfg).run(constantLoad(1000.0),
                                             8000, 21);
            SCOPED_TRACE(std::string(toString(routing)) + "/" +
                         toString(batching));
            // Throughput cannot exceed what was offered.
            EXPECT_LE(r.throughput, 1000.0 * 1.1);
            EXPECT_GE(r.gpu_utilization, 0.0);
            EXPECT_LE(r.gpu_utilization, 1.0);
            EXPECT_LE(r.avg_batch, 8.0);
            EXPECT_GE(r.avg_batch, 1.0);
            for (const RequestRecord &rec : r.requests) {
                ASSERT_GE(rec.batch, 1);
                ASSERT_LE(rec.batch, 8);
            }
            // Quantile ordering.
            EXPECT_LE(r.p50_latency, r.p95_latency);
            EXPECT_LE(r.p95_latency, r.p99_latency);
            EXPECT_LE(r.p99_latency, r.p999_latency);
            EXPECT_LE(r.p999_latency, r.max_latency);
            EXPECT_EQ(r.completed, r.offered);
        }
    }
}

TEST(FleetSimTest, LatencyMonotoneInLoad)
{
    FleetConfig cfg;
    cfg.num_servers = 2;
    FleetSimulator sim(cfg);
    double prev = 0.0;
    for (double qps : {400.0, 1600.0, 4000.0}) {
        auto r = sim.run(constantLoad(qps), 15000, 17);
        EXPECT_GT(r.p99_latency, prev) << qps;
        prev = r.p99_latency;
    }
}

TEST(FleetSimTest, MoreServersRaiseCapacity)
{
    // A load that saturates one server but not four.
    auto one = FleetSimulator([] {
                   FleetConfig c;
                   c.num_servers = 1;
                   return c;
               }()).run(constantLoad(1500.0), 15000, 5);
    auto four = FleetSimulator([] {
                    FleetConfig c;
                    c.num_servers = 4;
                    return c;
                }()).run(constantLoad(1500.0), 15000, 5);
    EXPECT_EQ(one.verdict, OverloadVerdict::Saturated);
    EXPECT_EQ(four.verdict, OverloadVerdict::Stable);
    EXPECT_LT(four.p99_latency, one.p99_latency);
}

TEST(FleetSimTest, LoadAwareRoutingBeatsRoundRobinOnTail)
{
    // For a homogeneous single-model fleet round-robin's perfect
    // spreading is near-optimal and queue-aware routing has nothing
    // to dodge. The win comes from a heterogeneous request mix: a
    // server stuck behind a heavy bert batch keeps receiving its
    // round-robin share, while least-queue routing sees the backlog
    // and steers arrivals to idler servers.
    stats::ArrivalConfig light;
    light.qps = 1600.0;
    stats::ArrivalConfig heavy;
    heavy.qps = 120.0;
    std::vector<ModelLoad> load = {
        {resnetServing(), light},
        {InferenceWorkload::fromTraining(workload::ModelZoo::bert()),
         heavy},
    };

    FleetConfig rr;
    rr.num_servers = 4;
    rr.routing = Routing::RoundRobin;
    FleetConfig lq = rr;
    lq.routing = Routing::LeastQueue;
    auto r_rr = FleetSimulator(rr).run(load, 20000, 9);
    auto r_lq = FleetSimulator(lq).run(load, 20000, 9);
    EXPECT_LT(r_lq.p99_latency, r_rr.p99_latency);
}

TEST(FleetSimTest, ContinuousBatchingCutsLatencyForWeightHeavyModels)
{
    // For a weight-heavy model the greedy discipline makes every
    // request wait for a full launch; continuous batching amortizes
    // the fixed cost without the collective wait.
    InferenceWorkload w;
    w.name = "weight-heavy";
    w.weight_bytes = 2e9;
    w.flops_per_item = 1e9;
    w.act_bytes_per_item = 1e6;
    w.input_bytes_per_item = 1e4;

    stats::ArrivalConfig a;
    FleetConfig cfg;
    cfg.num_servers = 1;
    cfg.max_batch = 8;
    double fixed = w.fixedTime(cfg.server.gpu, cfg.launch_overhead);
    a.qps = 3.0 / fixed; // needs amortization to survive

    FleetConfig greedy = cfg;
    greedy.batching = Batching::Greedy;
    FleetConfig cont = cfg;
    cont.batching = Batching::Continuous;
    auto r_g = FleetSimulator(greedy).run({{w, a}}, 10000, 13);
    auto r_c = FleetSimulator(cont).run({{w, a}}, 10000, 13);
    EXPECT_EQ(r_g.verdict, OverloadVerdict::Stable);
    EXPECT_EQ(r_c.verdict, OverloadVerdict::Stable);
    // Continuous batching strictly improves median latency here:
    // items stop waiting for batch-mates to finish together.
    EXPECT_LT(r_c.p50_latency, r_g.p50_latency);
}

TEST(FleetSimTest, AdmissionControlBoundsQueueAndLatency)
{
    FleetConfig open;
    open.num_servers = 1;
    FleetConfig bounded = open;
    bounded.admit_queue = 16;
    // Far past capacity: the open fleet's queue grows without bound,
    // the bounded fleet sheds load instead.
    auto r_open =
        FleetSimulator(open).run(constantLoad(4000.0), 15000, 3);
    auto r_b =
        FleetSimulator(bounded).run(constantLoad(4000.0), 15000, 3);
    EXPECT_EQ(r_open.verdict, OverloadVerdict::Saturated);
    EXPECT_EQ(r_open.rejected, 0);
    EXPECT_GT(r_b.rejected, 0);
    EXPECT_EQ(r_b.admitted + r_b.rejected, r_b.offered);
    EXPECT_EQ(r_b.completed, r_b.admitted);
    EXPECT_LT(r_b.p99_latency, r_open.p99_latency);
}

TEST(FleetSimTest, AutoscalerAddsServersUnderLoadAndLagMatters)
{
    FleetConfig cfg;
    cfg.num_servers = 1;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.min_servers = 1;
    cfg.autoscaler.max_servers = 8;
    cfg.autoscaler.check_interval = 0.25;
    cfg.autoscaler.provision_lag = 0.5;
    // 1 server saturates, 8 do not.
    auto r = FleetSimulator(cfg).run(constantLoad(2500.0), 20000, 19);
    EXPECT_GT(r.scale_ups, 0);
    EXPECT_GT(r.peak_servers, 1);
    EXPECT_LE(r.peak_servers, 8);
    EXPECT_EQ(r.completed, r.offered);

    // A (much) longer lag delivers capacity later: tail latency can
    // only get worse, never better.
    FleetConfig slow = cfg;
    slow.autoscaler.provision_lag = 20.0;
    auto r_slow =
        FleetSimulator(slow).run(constantLoad(2500.0), 20000, 19);
    EXPECT_GE(r_slow.p99_latency, r.p99_latency);
}

TEST(FleetSimTest, AutoscalerDrainsIdleServersConservingRequests)
{
    FleetConfig cfg;
    cfg.num_servers = 6; // over-provisioned for the offered load
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.min_servers = 1;
    cfg.autoscaler.max_servers = 6;
    cfg.autoscaler.check_interval = 0.25;
    cfg.record_requests = true;
    auto r = FleetSimulator(cfg).run(constantLoad(200.0), 10000, 23);
    EXPECT_GT(r.scale_downs, 0);
    EXPECT_LT(r.final_servers, 6);
    EXPECT_GE(r.final_servers, 1);
    // Draining must never lose requests.
    EXPECT_EQ(r.completed, r.offered);
}

TEST(FleetSimTest, SloAutoscalerScalesUpAndHoldsTheSlo)
{
    // One server saturates at this load; the SLO controller must
    // grow the fleet until the trailing-window p99 clears the
    // target, with no timeline attached (the controller keeps its
    // own window).
    FleetConfig cfg;
    cfg.num_servers = 1;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.mode = AutoscalerConfig::Mode::SloLatency;
    cfg.autoscaler.min_servers = 1;
    cfg.autoscaler.max_servers = 8;
    cfg.autoscaler.check_interval = 0.25;
    cfg.autoscaler.provision_lag = 0.5;
    cfg.autoscaler.slo_latency = 0.010; // 10 ms p99 target
    cfg.record_requests = true;
    auto r = FleetSimulator(cfg).run(constantLoad(2500.0), 20000, 19);
    EXPECT_GT(r.scale_ups, 0);
    EXPECT_GT(r.peak_servers, 1);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.verdict, OverloadVerdict::Stable);
    // The whole-run p99 is dominated by the backlog built up before
    // the fleet grew; the contract is that the *converged* fleet
    // keeps p99 near the target, so check arrivals in the back half
    // of the run. The hysteresis band (scale at 0.8x, drain at
    // 0.35x) means steady state oscillates around the target rather
    // than sitting under it, hence the 1.5x tolerance.
    std::vector<double> tail;
    for (const auto &req : r.requests)
        if (!req.rejected && req.arrival >= r.duration * 0.5)
            tail.push_back(req.completion - req.arrival);
    ASSERT_GT(tail.size(), 100u);
    double tail_p99 = obs::nearestRankQuantile(tail, 0.99);
    EXPECT_LE(tail_p99, cfg.autoscaler.slo_latency * 1.5);
    EXPECT_LT(tail_p99, r.p99_latency); // backlog drained
}

TEST(FleetSimTest, SloAutoscalerDrainsWhenWellUnderTheSlo)
{
    FleetConfig cfg;
    cfg.num_servers = 6; // over-provisioned: p99 far below target
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.mode = AutoscalerConfig::Mode::SloLatency;
    cfg.autoscaler.min_servers = 1;
    cfg.autoscaler.max_servers = 6;
    cfg.autoscaler.check_interval = 0.25;
    cfg.autoscaler.slo_latency = 0.100; // generous 100 ms target
    auto r = FleetSimulator(cfg).run(constantLoad(200.0), 10000, 23);
    EXPECT_GT(r.scale_downs, 0);
    EXPECT_LT(r.final_servers, 6);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_LE(r.p99_latency, cfg.autoscaler.slo_latency);
}

TEST(FleetSimTest, SloAutoscalerValidatesItsConfig)
{
    FleetConfig cfg;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.mode = AutoscalerConfig::Mode::SloLatency;
    cfg.autoscaler.slo_latency = 0.0; // unset target
    EXPECT_THROW(FleetSimulator{cfg}, std::invalid_argument);
    cfg.autoscaler.slo_latency = 0.010;
    cfg.autoscaler.slo_down_fraction = 0.9; // >= up fraction
    EXPECT_THROW(FleetSimulator{cfg}, std::invalid_argument);
    cfg.autoscaler.slo_down_fraction = 0.35;
    cfg.autoscaler.slo_min_samples = 0;
    EXPECT_THROW(FleetSimulator{cfg}, std::invalid_argument);
    cfg.autoscaler.slo_min_samples = 20;
    EXPECT_NO_THROW(FleetSimulator{cfg});
}

TEST(FleetSimTest, MultiModelFleetServesBothStreams)
{
    stats::ArrivalConfig a1;
    a1.qps = 300.0;
    stats::ArrivalConfig a2;
    a2.kind = stats::ArrivalKind::Bursty;
    a2.qps = 200.0;
    std::vector<ModelLoad> models = {
        {resnetServing(), a1},
        {InferenceWorkload::fromTraining(workload::ModelZoo::bert()),
         a2}};
    FleetConfig cfg;
    cfg.num_servers = 4;
    cfg.record_requests = true;
    auto r = FleetSimulator(cfg).run(models, 10000, 29);
    int64_t m0 = 0, m1 = 0;
    for (const RequestRecord &rec : r.requests) {
        (rec.model == 0 ? m0 : m1) += 1;
        // A launch never mixes models, so batch <= max_batch holds
        // per model too (checked via the record bound).
        ASSERT_LE(rec.batch, cfg.max_batch);
    }
    EXPECT_GT(m0, 0);
    EXPECT_GT(m1, 0);
    EXPECT_EQ(m0 + m1, r.offered);
    // Stream rates ~ proportional to configured qps.
    EXPECT_GT(static_cast<double>(m0),
              1.1 * static_cast<double>(m1));
}

TEST(FleetSimTest, LatencyFlowsIntoObsHistogram)
{
    obs::Histogram &h =
        obs::histogram("inference.fleet.latency_us");
    uint64_t before = h.count();
    FleetSimulator sim{FleetConfig{}};
    auto r = sim.run(constantLoad(300.0), 2000, 31);
    EXPECT_EQ(h.count(), before + static_cast<uint64_t>(r.completed));
    // Microsecond scaling keeps sub-second latencies out of the
    // bucket-0 catch-all: the p50 bucket bound must be > 1.
    EXPECT_GT(h.quantile(0.5), 1.0);
}

// Only the served run reaches --metrics: the SLO searches count their
// probes but publish none of the probes' requests or latencies.
TEST(FleetSimTest, SloSearchProbesPublishNoFleetMetrics)
{
    const char *fleet_counters[] = {
        "inference.fleet.requests", "inference.fleet.rejected",
        "inference.fleet.batches", "inference.fleet.scale_events"};
    std::vector<uint64_t> before;
    for (const char *name : fleet_counters)
        before.push_back(obs::counter(name).value());
    obs::Histogram &h = obs::histogram("inference.fleet.latency_us");
    uint64_t hist_before = h.count();
    uint64_t capacity_before =
        obs::counter("inference.fleet.capacity_probes").value();
    uint64_t slo_before = obs::counter("inference.slo_probes").value();

    FleetConfig cfg;
    ASSERT_TRUE(minServersForSlo(cfg, constantLoad(3000.0), 0.040, 16,
                                 2000, 20190701)
                    .has_value());
    EXPECT_GT(maxQpsUnderSlo(cfg, resnetServing(), 0.040, 20000.0, 2000,
                             20190701),
              0.0);

    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(obs::counter(fleet_counters[i]).value(), before[i])
            << fleet_counters[i];
    }
    EXPECT_EQ(h.count(), hist_before);
    EXPECT_GT(obs::counter("inference.fleet.capacity_probes").value(),
              capacity_before);
    EXPECT_EQ(obs::counter("inference.slo_probes").value(),
              slo_before + 26);
}

TEST(FleetSimTest, CapacityBisectionFindsMinimalStableFleet)
{
    FleetConfig cfg;
    auto need = minServersForSlo(cfg, constantLoad(3000.0), 0.040,
                                 16, 15000, 20190701);
    ASSERT_TRUE(need.has_value());
    ASSERT_GT(*need, 1);

    // Minimality: the found size passes, one fewer does not.
    auto probe = [&](int n) {
        FleetConfig c = cfg;
        c.num_servers = n;
        auto r =
            FleetSimulator(c).run(constantLoad(3000.0), 15000,
                                  20190701);
        return r.verdict == OverloadVerdict::Stable &&
               r.p99_latency <= 0.040;
    };
    EXPECT_TRUE(probe(*need));
    EXPECT_FALSE(probe(*need - 1));
}

TEST(FleetSimTest, CapacityUnattainableReturnsNullopt)
{
    FleetConfig cfg;
    // Sub-solo-latency SLO: no fleet size can serve it.
    auto need = minServersForSlo(cfg, constantLoad(100.0), 1e-9, 8,
                                 5000, 7);
    EXPECT_FALSE(need.has_value());
}

TEST(FleetSimTest, InvalidConfigAndRunArgsThrow)
{
    FleetConfig bad;
    bad.num_servers = 0;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad = FleetConfig{};
    bad.max_batch = 0;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad = FleetConfig{};
    bad.admit_queue = -1;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad = FleetConfig{};
    bad.autoscaler.enabled = true;
    bad.autoscaler.min_servers = 4;
    bad.autoscaler.max_servers = 2;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad = FleetConfig{};
    bad.autoscaler.enabled = true;
    bad.autoscaler.check_interval = 0.0;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);

    FleetSimulator sim{FleetConfig{}};
    EXPECT_THROW(sim.run({}, 100, 1), std::invalid_argument);
    EXPECT_THROW(sim.run(constantLoad(10.0), 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(minServersForSlo(FleetConfig{}, constantLoad(10.0),
                                  -1.0, 8, 1000, 1),
                 std::invalid_argument);
    EXPECT_THROW(minServersForSlo(FleetConfig{}, constantLoad(10.0),
                                  0.1, 8, kMinSaturationSamples - 1,
                                  1),
                 std::invalid_argument);
}

TEST(FleetSimTest, RoutingAndBatchingSpellingsRoundTrip)
{
    for (Routing r : {Routing::RoundRobin, Routing::LeastQueue,
                      Routing::PowerOfTwo}) {
        auto parsed = routingFromString(toString(r));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, r);
    }
    for (Batching b : {Batching::Greedy, Batching::Continuous}) {
        auto parsed = batchingFromString(toString(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_FALSE(routingFromString("random").has_value());
    EXPECT_FALSE(batchingFromString("static").has_value());
}

// --- One server: queueing, batching, the verdict and the SLO search

TEST(InferenceWorkloadTest, DerivationFromTraining)
{
    auto m = workload::ModelZoo::resnet50();
    auto w = resnetServing();
    EXPECT_EQ(w.name, "ResNet50");
    // Forward-only: a third of the step, per item.
    EXPECT_NEAR(w.flops_per_item,
                m.features.flop_count / 3.0 / 64.0,
                1e-6 * w.flops_per_item);
    EXPECT_NEAR(w.weight_bytes, 0.5 * m.features.dense_weight_bytes,
                1.0);
    EXPECT_GT(w.input_bytes_per_item, 0.0);
}

TEST(InferenceWorkloadTest, ServiceTimeShape)
{
    auto w = resnetServing();
    auto gpu = hw::v100Testbed().server.gpu;
    double s1 = w.serviceTime(1, gpu, 30e-6);
    double s8 = w.serviceTime(8, gpu, 30e-6);
    // Batching amortizes the weight stream + launch: 8 items cost
    // much less than 8 separate launches but more than one.
    EXPECT_GT(s8, s1);
    EXPECT_LT(s8, 8.0 * s1);
    // The batch-independent component equals launch + weight stream.
    double fixed = 30e-6 + w.weight_bytes /
                               (gpu.mem_bandwidth *
                                w.efficiency.gpu_memory);
    EXPECT_NEAR(s8 - s1, 7.0 * (s1 - fixed), 1e-12);
}

TEST(ServingSimTest, DeterministicForEqualSeeds)
{
    auto w = resnetServing();
    auto a = serveOne(w, 500.0, 5000, 7);
    auto b = serveOne(w, 500.0, 5000, 7);
    EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(ServingSimTest, IdleLoadLatencyIsServiceTime)
{
    // At negligible load every request is served alone, immediately.
    auto w = resnetServing();
    double solo = soloService(w);
    auto r = serveOne(w, 1.0, 500, 11);
    EXPECT_NEAR(r.p50_latency, solo, 1e-9);
    EXPECT_NEAR(r.mean_latency, solo, 0.01 * solo);
    EXPECT_NEAR(r.avg_batch, 1.0, 0.01);
    EXPECT_FALSE(r.saturated);
}

TEST(ServingSimTest, UtilizationTracksOfferedLoad)
{
    auto w = resnetServing();
    double qps = 0.3 / soloService(w); // ~30% without batching
    auto r = serveOne(w, qps, 20000, 13);
    EXPECT_NEAR(r.gpu_utilization, 0.3, 0.05);
    EXPECT_FALSE(r.saturated);
}

TEST(ServingSimTest, LatencyGrowsWithLoad)
{
    auto w = resnetServing();
    double prev = 0.0;
    for (double qps : {200.0, 800.0, 2000.0}) {
        auto r = serveOne(w, qps, 20000, 17);
        EXPECT_GT(r.p99_latency, prev) << qps;
        prev = r.p99_latency;
    }
}

TEST(ServingSimTest, OverloadIsDetectedAndBatchingRaisesCapacity)
{
    // A weight-heavy model: the per-launch weight stream dominates,
    // so batching multiplies capacity (the canonical batching win).
    InferenceWorkload w;
    w.name = "weight-heavy";
    w.weight_bytes = 2e9;
    w.flops_per_item = 1e9;
    w.act_bytes_per_item = 1e6;
    w.input_bytes_per_item = 1e4;

    // A load past the unbatched capacity but well within the batched
    // one (per-launch cost ~fixed, so batch-8 capacity is ~7x).
    double qps = 2.0 / soloService(w);
    auto r1 = serveOne(w, qps, 20000, 19, 1);
    auto r8 = serveOne(w, qps, 20000, 19, 8);
    EXPECT_TRUE(r1.saturated);
    EXPECT_FALSE(r8.saturated);
    EXPECT_GT(r8.avg_batch, 1.2);
    EXPECT_LT(r8.p99_latency, r1.p99_latency);
}

TEST(ServingSimTest, BatchingBuysLittleForPerItemBoundModels)
{
    // ResNet50 inference is per-item bound at batch 64-equivalent
    // demands: batch-8 capacity exceeds unbatched by <25%.
    auto w = resnetServing();
    auto gpu = hw::v100Testbed().server.gpu;
    double cap1 = 1.0 / (w.serviceTime(1, gpu, 30e-6) +
                         w.inputTime(1, 10e9));
    double cap8 = 8.0 / (w.serviceTime(8, gpu, 30e-6) +
                         w.inputTime(8, 10e9));
    EXPECT_GT(cap8, cap1);
    EXPECT_LT(cap8, 1.25 * cap1);
}

TEST(ServingSimTest, ThroughputCapsAtServiceCapacity)
{
    auto w = resnetServing();
    double solo = soloService(w);
    auto r = serveOne(w, 10.0 / solo, 20000, 23, 1);
    EXPECT_TRUE(r.saturated);
    EXPECT_NEAR(r.throughput, 1.0 / solo, 0.02 / solo);
    EXPECT_NEAR(r.gpu_utilization, 1.0, 0.02);
}

TEST(ServingSimTest, MaxQpsUnderSloIsConsistent)
{
    auto w = resnetServing();
    double solo = soloService(w);
    double slo = 5.0 * solo;
    double qps =
        maxQpsUnderSlo(FleetConfig{}, w, slo, 20.0 / solo, 20000, 29);
    ASSERT_GT(qps, 0.0);
    auto at = serveOne(w, qps, 20000, 29);
    EXPECT_LE(at.p99_latency, slo * 1.001);
    // 15% more load breaks the SLO (or saturates).
    auto over = serveOne(w, 1.15 * qps, 20000, 29);
    EXPECT_TRUE(over.p99_latency > slo || over.saturated);
}

TEST(ServingSimTest, ImpossibleSloReturnsZero)
{
    EXPECT_DOUBLE_EQ(maxQpsUnderSlo(FleetConfig{}, resnetServing(),
                                    1e-9, 1000.0, 20000, 31),
                     0.0);
}

TEST(ServingSimTest, InvalidArgumentsThrowNotAssert)
{
    // Regression: these were assert()s, compiled away under NDEBUG
    // (a qps of 0 then divided by zero into NaN latencies). The
    // NDEBUG-forced twin of this test lives in tests/ndebug.
    auto w = resnetServing();
    FleetConfig bad;
    bad.max_batch = -3;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad = FleetConfig{};
    bad.launch_overhead = -1e-6;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);

    EXPECT_THROW(serveOne(w, 0.0, 100, 1), std::invalid_argument);
    EXPECT_THROW(serveOne(w, -5.0, 100, 1), std::invalid_argument);
    EXPECT_THROW(
        serveOne(w, std::numeric_limits<double>::infinity(), 100, 1),
        std::invalid_argument);
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.0, 100.0, 20000, 1),
                 std::invalid_argument);
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.01, 1.0, 20000, 1),
                 std::invalid_argument);
}

TEST(ServingSimTest, ShortRunsReportUndersampledNeverStable)
{
    // Regression: the pre-fix detector silently returned "not
    // saturated" below 100 samples, so a 50-request probe at a
    // hopelessly overloaded operating point looked healthy.
    auto w = resnetServing();
    double overload_qps = 50.0 / soloService(w); // 50x capacity
    auto r = serveOne(w, overload_qps, kMinSaturationSamples - 1, 37);
    EXPECT_EQ(r.verdict, OverloadVerdict::Undersampled);
    EXPECT_FALSE(r.saturated);
    // The same load with enough samples is judged saturated.
    auto full = serveOne(w, overload_qps, 20000, 37);
    EXPECT_EQ(full.verdict, OverloadVerdict::Saturated);
    // At the floor itself the detector judges (no Undersampled).
    auto at_floor =
        serveOne(w, overload_qps, kMinSaturationSamples, 37);
    EXPECT_NE(at_floor.verdict, OverloadVerdict::Undersampled);
}

TEST(ServingSimTest, SloSearchRefusesUndersampledProbes)
{
    // The sample floor is enforced where it matters: a short probe
    // could otherwise certify a saturated operating point as "fits
    // the SLO".
    auto w = resnetServing();
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.01, 1000.0,
                                kMinSaturationSamples - 1, 41),
                 std::invalid_argument);
    // And an Undersampled verdict never passes a probe: a tiny legal
    // probe count still yields a usable (conservative) search.
    double qps = maxQpsUnderSlo(FleetConfig{}, w, 0.02, 2000.0,
                                kMinSaturationSamples, 41);
    EXPECT_GE(qps, 0.0);
}

} // namespace
} // namespace paichar::inference
