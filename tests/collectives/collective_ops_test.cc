/**
 * @file
 * Tests for the event-driven collectives: timings must match the
 * closed-form ring costs, and degenerate groups complete immediately.
 */

#include <gtest/gtest.h>

#include <memory>

#include "collectives/collective_ops.h"

namespace paichar::collectives {
namespace {

constexpr double kLat = 5e-6;

sim::TopologyConfig
config(int servers)
{
    sim::TopologyConfig tc;
    tc.cluster = hw::v100Testbed();
    tc.num_servers = servers;
    return tc;
}

double
runCollective(
    const std::function<void(CollectiveOps &, sim::ClusterSim &,
                             Done)> &launch,
    int servers = 1)
{
    sim::ClusterSim cluster(config(servers));
    CollectiveOps ops(cluster.eventQueue(), kLat);
    double end = -1.0;
    launch(ops, cluster, [&](sim::SimTime t) { end = t; });
    cluster.eventQueue().run();
    EXPECT_GE(end, 0.0) << "collective never completed";
    return end;
}

TEST(RingCostTest, ClosedForms)
{
    // n=8, 1 GB, 35 GB/s: allreduce = 14 * (lat + 1/8/35).
    EXPECT_NEAR(RingCost::allReduce(8, 1e9, 35e9, kLat),
                14 * (kLat + 1e9 / 8 / 35e9), 1e-12);
    EXPECT_NEAR(RingCost::allGather(8, 1e9, 35e9, kLat),
                7 * (kLat + 1e9 / 8 / 35e9), 1e-12);
    EXPECT_NEAR(RingCost::sparseExchange(8, 1e9, 35e9, 6, kLat),
                kLat + 1e9 / 8 / 6 / 35e9, 1e-12);
    EXPECT_DOUBLE_EQ(RingCost::allReduce(1, 1e9, 35e9, kLat), 0.0);
}

TEST(CollectiveOpsTest, RingAllReduceMatchesClosedForm)
{
    double t = runCollective([](CollectiveOps &ops,
                                sim::ClusterSim &cluster, Done done) {
        ops.ringAllReduce(cluster.gpuGroup(8), 1e9, std::move(done));
    });
    // Link rate = 50 GB/s * 0.7; plus the initial launch latency.
    double rate = 50e9 * 0.7;
    EXPECT_NEAR(t, kLat + RingCost::allReduce(8, 1e9, rate, kLat),
                1e-9);
}

TEST(CollectiveOpsTest, RingAllGatherMatchesClosedForm)
{
    double t = runCollective([](CollectiveOps &ops,
                                sim::ClusterSim &cluster, Done done) {
        ops.ringAllGather(cluster.gpuGroup(4), 2e9, std::move(done));
    });
    double rate = 50e9 * 0.7;
    EXPECT_NEAR(t, kLat + RingCost::allGather(4, 2e9, rate, kLat),
                1e-9);
}

TEST(CollectiveOpsTest, ReduceScatterEqualsAllGatherSchedule)
{
    auto launch_rs = [](CollectiveOps &ops, sim::ClusterSim &cluster,
                        Done done) {
        ops.ringReduceScatter(cluster.gpuGroup(4), 2e9,
                              std::move(done));
    };
    auto launch_ag = [](CollectiveOps &ops, sim::ClusterSim &cluster,
                        Done done) {
        ops.ringAllGather(cluster.gpuGroup(4), 2e9, std::move(done));
    };
    EXPECT_DOUBLE_EQ(runCollective(launch_rs),
                     runCollective(launch_ag));
}

TEST(CollectiveOpsTest, SparseAllToAllUsesAllMeshLinks)
{
    double t = runCollective([](CollectiveOps &ops,
                                sim::ClusterSim &cluster, Done done) {
        ops.sparseAllToAll(cluster.gpuGroup(8), 24e9, std::move(done));
    });
    double rate = 50e9 * 0.7;
    // 24 GB / 8 GPUs / 6 links each = 0.5 GB per link, one phase.
    EXPECT_NEAR(t, kLat + kLat + 0.5e9 / rate, 1e-9);
    EXPECT_NEAR(
        t, kLat + RingCost::sparseExchange(8, 24e9, rate, 6, kLat),
        1e-9);
}

TEST(CollectiveOpsTest, BroadcastSkipsTailEgress)
{
    sim::ClusterSim cluster(config(1));
    CollectiveOps ops(cluster.eventQueue(), kLat);
    double end = -1.0;
    auto group = cluster.gpuGroup(3);
    ops.broadcast(group, 1e9, [&](sim::SimTime t) { end = t; });
    cluster.eventQueue().run();
    double rate = 50e9 * 0.7;
    EXPECT_NEAR(end, 2 * kLat + 1e9 / rate, 1e-9);
    // The tail GPU's links never carried data.
    EXPECT_DOUBLE_EQ(group[2]->nvlinkOut()->totalAmount(), 0.0);
    EXPECT_DOUBLE_EQ(group[0]->nvlinkOut()->totalAmount(), 1e9);
}

TEST(CollectiveOpsTest, NicRingAcrossServers)
{
    double t = runCollective(
        [](CollectiveOps &ops, sim::ClusterSim &cluster, Done done) {
            std::vector<sim::Server *> servers;
            for (auto &s : cluster.servers())
                servers.push_back(s.get());
            ops.nicRingAllReduce(servers, 1e9, std::move(done));
        },
        4);
    double rate = 25e9 / 8.0 * 0.7;
    EXPECT_NEAR(t, kLat + RingCost::allReduce(4, 1e9, rate, kLat),
                1e-9);
}

TEST(CollectiveOpsTest, SingleGpuGroupCompletesImmediately)
{
    double t = runCollective([](CollectiveOps &ops,
                                sim::ClusterSim &cluster, Done done) {
        ops.ringAllReduce(cluster.gpuGroup(1), 1e9, std::move(done));
    });
    EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(CollectiveOpsTest, ZeroBytesCompletesImmediately)
{
    double t = runCollective([](CollectiveOps &ops,
                                sim::ClusterSim &cluster, Done done) {
        ops.ringAllReduce(cluster.gpuGroup(8), 0.0, std::move(done));
    });
    EXPECT_DOUBLE_EQ(t, 0.0);
}

// The phase-chaining closure must not own itself: once a multi-phase
// collective completes, nothing may still hold the caller's callback
// (or, through it, anything the callback captured).
TEST(CollectiveOpsTest, CompletedCollectiveReleasesItsCallback)
{
    sim::ClusterSim cluster(config(1));
    CollectiveOps ops(cluster.eventQueue(), kLat);
    auto sentinel = std::make_shared<int>(0);
    bool fired = false;
    ops.ringAllReduce(cluster.gpuGroup(8), 1e9,
                      [sentinel, &fired](sim::SimTime) { fired = true; });
    cluster.eventQueue().run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sentinel.use_count(), 1);
}

/** Volume property: per-GPU ring traffic equals 2(n-1)/n * bytes. */
class RingVolumeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RingVolumeProperty, PerGpuTrafficMatchesTextbook)
{
    int n = GetParam();
    sim::ClusterSim cluster(config(1));
    CollectiveOps ops(cluster.eventQueue(), kLat);
    auto group = cluster.gpuGroup(n);
    bool finished = false;
    ops.ringAllReduce(group, 8e9, [&](sim::SimTime) {
        finished = true;
    });
    cluster.eventQueue().run();
    ASSERT_TRUE(finished);
    for (sim::Gpu *gpu : group) {
        EXPECT_NEAR(gpu->nvlinkOut()->totalAmount(),
                    2.0 * (n - 1) / n * 8e9, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, RingVolumeProperty,
                         ::testing::Values(2, 3, 4, 8));

} // namespace
} // namespace paichar::collectives
