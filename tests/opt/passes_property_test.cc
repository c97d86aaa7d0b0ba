/**
 * @file
 * Property tests for the optimization passes over generated graphs
 * (testkit::JobGenerator): fusion idempotence, mixed-precision
 * monotonicity and partition conservation. Each property runs over a
 * seed sweep so a failure prints a one-number reproducer.
 */

#include <gtest/gtest.h>

#include "opt/cost_model.h"
#include "opt/passes.h"
#include "stats/rng.h"
#include "testkit/gen.h"

namespace paichar::opt {
namespace {

using testkit::JobGenerator;
using workload::Op;
using workload::OpGraph;

OpGraph
graphForSeed(uint64_t seed)
{
    JobGenerator gen;
    stats::Rng rng(seed);
    auto f = gen.features(rng);
    return JobGenerator::graphFor(f, seed);
}

void
expectSameGraph(const OpGraph &a, const OpGraph &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Op &x = a.ops()[i];
        const Op &y = b.ops()[i];
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.inputs, y.inputs);
        EXPECT_DOUBLE_EQ(x.flops, y.flops);
        EXPECT_DOUBLE_EQ(x.mem_bytes, y.mem_bytes);
        EXPECT_DOUBLE_EQ(x.output_bytes, y.output_bytes);
    }
}

TEST(PassPropertyTest, XlaFusionIsIdempotent)
{
    // A second fusion run must be a no-op: fused chains collapse to
    // single Fused ops whose consumers are never unique-fusable
    // chains again with the same members.
    XlaFusionPass xla;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        OpGraph g = graphForSeed(seed);
        OpGraph once = xla.run(g);
        OpGraph twice = xla.run(once);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameGraph(once, twice);
    }
}

TEST(PassPropertyTest, MixedPrecisionStepTimeMonotone)
{
    // A larger achieved speedup can only shrink the analytically
    // estimated step time (compute shrinks, everything else fixed).
    auto model = workload::ModelZoo::resnet50();
    const double speedups[] = {1.0, 1.5, 2.8, 4.0, 8.0};
    double prev = 0.0;
    AnalyticalCostModel cost;
    for (size_t i = 0; i < std::size(speedups); ++i) {
        MixedPrecisionPass mp(speedups[i]);
        PreparedPlan plan;
        plan.spec.arch = model.arch;
        plan.spec.num_cnodes = model.num_cnodes;
        plan.graph = mp.run(model.graph);
        plan.features = model.features;
        plan.efficiency = model.measured_efficiency;
        double step = cost.estimate(plan).step_time;
        if (i > 0) {
            EXPECT_LE(step, prev + 1e-12)
                << "speedup " << speedups[i];
        }
        prev = step;
    }
}

TEST(PassPropertyTest, SubGraphPartitionConservesDemands)
{
    // ways x per-GPU shard == whole graph, op by op (DataLoad stays
    // per-GPU by design).
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        OpGraph g = graphForSeed(seed);
        for (int ways : {2, 4, 8}) {
            SubGraphPartitionPass pass(ways);
            OpGraph shard = pass.run(g);
            SCOPED_TRACE("seed " + std::to_string(seed) + " ways " +
                         std::to_string(ways));
            ASSERT_EQ(shard.size(), g.size());
            for (size_t i = 0; i < g.size(); ++i) {
                const Op &orig = g.ops()[i];
                const Op &s = shard.ops()[i];
                if (orig.type == workload::OpType::DataLoad) {
                    EXPECT_DOUBLE_EQ(s.mem_bytes, orig.mem_bytes);
                    continue;
                }
                EXPECT_NEAR(s.flops * ways, orig.flops,
                            1e-9 * orig.flops + 1e-9);
                EXPECT_NEAR(s.mem_bytes * ways, orig.mem_bytes,
                            1e-9 * orig.mem_bytes + 1e-9);
                EXPECT_NEAR(s.output_bytes * ways, orig.output_bytes,
                            1e-9 * orig.output_bytes + 1e-9);
            }
        }
    }
}

TEST(PassPropertyTest, ChannelSplitConservesConvDemands)
{
    // Channel splitting divides only the conv-riding ops; recombining
    // the shards reproduces the original totals exactly.
    auto model = workload::ModelZoo::resnet50();
    const OpGraph &g = model.graph;
    for (int ways : {2, 4, 8}) {
        ChannelFilterSplitPass pass(ways);
        OpGraph shard = pass.run(g);
        ASSERT_EQ(shard.size(), g.size());
        double orig_flops = g.totals().flops;
        double split_flops = 0.0, kept_flops = 0.0;
        for (size_t i = 0; i < g.size(); ++i) {
            const Op &orig = g.ops()[i];
            const Op &s = shard.ops()[i];
            if (s.flops != orig.flops)
                split_flops += s.flops * ways;
            else
                kept_flops += s.flops;
        }
        EXPECT_NEAR(split_flops + kept_flops, orig_flops,
                    1e-9 * orig_flops);
    }
}

TEST(PassPropertyTest, PartitionExchangeScalesDownWithWays)
{
    // Per-GPU exchange traffic shrinks as the shard gets thinner:
    // (w-1)/w grows slower than the 1/w share shrinks.
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        OpGraph g = graphForSeed(seed);
        double prev = -1.0;
        for (int ways : {2, 4, 8}) {
            SubGraphPartitionPass pass(ways);
            double x = pass.exchangeBytes(g);
            EXPECT_GE(x, 0.0);
            if (prev >= 0.0) {
                EXPECT_LE(x, prev + 1e-9);
            }
            prev = x;
        }
    }
}

} // namespace
} // namespace paichar::opt
