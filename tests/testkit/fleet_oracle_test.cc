/**
 * @file
 * Fleet-oracle tests (`ctest -L serve`): the byte-exact differential
 * between a one-server greedy fleet and the oracle's reference loop
 * (the seed single-server simulator), direct invariant checks, oracle
 * sensitivity (a corrupted result must be caught), and the fuzzed
 * sweep over fleet shapes.
 *
 * PAICHAR_FLEET_SEED replays the fuzz sweep from a specific seed (the
 * reproducer printed by describe()).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "testkit/fleet_oracle.h"
#include "workload/model_zoo.h"

namespace paichar::testkit {
namespace {

using inference::FleetConfig;
using inference::FleetResult;
using inference::FleetSimulator;
using inference::InferenceWorkload;
using inference::ModelLoad;

InferenceWorkload
resnetServing()
{
    return InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
}

TEST(FleetOracleTest, SingleServerFleetMatchesSeedSimulatorExactly)
{
    // The headline differential: byte-for-byte, across loads from
    // comfortable to saturated and both batch bounds.
    auto w = resnetServing();
    for (double qps : {50.0, 400.0, 1200.0, 3000.0}) {
        for (int max_batch : {1, 8}) {
            auto msg = checkSingleServerEquivalence(w, qps, 4000,
                                                    77, max_batch);
            EXPECT_FALSE(msg.has_value())
                << "qps=" << qps << " max_batch=" << max_batch
                << ": " << *msg;
        }
    }
}

TEST(FleetOracleTest, InvariantsHoldOnAHealthyRun)
{
    FleetConfig cfg;
    cfg.num_servers = 3;
    cfg.record_requests = true;
    stats::ArrivalConfig a;
    a.qps = 800.0;
    std::vector<ModelLoad> models = {{resnetServing(), a}};
    auto r = FleetSimulator(cfg).run(models, 6000, 11);
    auto msg = checkFleetInvariants(cfg, models, r);
    EXPECT_FALSE(msg.has_value()) << *msg;
}

TEST(FleetOracleTest, RequiresTheRequestLog)
{
    FleetConfig cfg; // record_requests off
    stats::ArrivalConfig a;
    a.qps = 100.0;
    std::vector<ModelLoad> models = {{resnetServing(), a}};
    auto r = FleetSimulator(cfg).run(models, 500, 11);
    auto msg = checkFleetInvariants(cfg, models, r);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("record_requests"), std::string::npos);
}

TEST(FleetOracleTest, DetectsCorruptedResults)
{
    // Oracle sensitivity: break each invariant class in a recorded
    // result and require the matching complaint.
    FleetConfig cfg;
    cfg.num_servers = 2;
    cfg.record_requests = true;
    stats::ArrivalConfig a;
    a.qps = 500.0;
    std::vector<ModelLoad> models = {{resnetServing(), a}};
    FleetResult good = FleetSimulator(cfg).run(models, 2000, 13);
    ASSERT_FALSE(checkFleetInvariants(cfg, models, good));

    {
        FleetResult bad = good; // lose a completion
        bad.completed -= 1;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
        EXPECT_NE(msg->find("conservation"), std::string::npos);
    }
    {
        FleetResult bad = good; // a request served before arriving
        bad.requests[5].start = bad.requests[5].arrival - 1.0;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
        EXPECT_NE(msg->find("starts before"), std::string::npos);
    }
    {
        FleetResult bad = good; // an oversized launch
        bad.requests[7].batch = cfg.max_batch + 1;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
        EXPECT_NE(msg->find("batch"), std::string::npos);
    }
    {
        FleetResult bad = good; // busy time beyond uptime
        bad.servers[0].busy = bad.servers[0].uptime + 1.0;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
        EXPECT_NE(msg->find("capacity"), std::string::npos);
    }
    {
        FleetResult bad = good; // overlapping launches on one GPU
        bad.requests[3].server = bad.requests[4].server;
        bad.requests[3].start = bad.requests[4].start - 1e-4;
        bad.requests[3].completion = bad.requests[4].completion;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
    }
    {
        FleetResult bad = good; // incoherent quantiles
        bad.p95_latency = bad.p99_latency * 2.0;
        auto msg = checkFleetInvariants(cfg, models, bad);
        ASSERT_TRUE(msg.has_value());
        EXPECT_NE(msg->find("quantiles"), std::string::npos);
    }
}

TEST(FleetOracleTest, FuzzedShapesUpholdEveryInvariant)
{
    uint64_t base_seed = 20190701;
    int count = 25;
    if (const char *env = std::getenv("PAICHAR_FLEET_SEED")) {
        base_seed = std::strtoull(env, nullptr, 10);
        count = 1;
    }
    auto failure = fuzzFleet(base_seed, count, 2000);
    EXPECT_FALSE(failure.has_value()) << describe(*failure);
}

} // namespace
} // namespace paichar::testkit
