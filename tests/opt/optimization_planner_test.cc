/**
 * @file
 * Tests for the optimization planner (Sec IV-D / VI operationalized,
 * widened to the hybrid-parallelism strategy search).
 */

#include <gtest/gtest.h>

#include "opt/optimization_planner.h"

namespace paichar::opt {
namespace {

using workload::ArchType;
using workload::ModelZoo;

TEST(OptimizationPlannerTest, BaselineFirstAndSpeedupsConsistent)
{
    OptimizationPlanner planner;
    auto model = ModelZoo::resnet50();
    auto plans = planner.evaluate(model);
    ASSERT_GE(plans.size(), 4u);
    const Plan &base = plans[0];
    EXPECT_EQ(base.spec.arch, ArchType::AllReduceLocal);
    EXPECT_TRUE(base.spec.isDefault());
    EXPECT_TRUE(base.simulated);
    EXPECT_DOUBLE_EQ(base.speedup, 1.0);
    // Measured plans precede pruned ones; each segment is sorted by
    // decreasing speedup.
    for (size_t i = 2; i < plans.size(); ++i) {
        EXPECT_GE(plans[i - 1].simulated, plans[i].simulated);
        if (plans[i - 1].simulated == plans[i].simulated) {
            EXPECT_GE(plans[i - 1].speedup + 1e-12, plans[i].speedup);
        }
    }
    for (const Plan &p : plans) {
        // Speedups are Eq 2 throughput ratios against the baseline,
        // measured-vs-measured for simulated plans and estimated-vs-
        // estimated for pruned ones.
        double base_tp = p.simulated ? base.measured.throughput
                                     : base.analytical.throughput;
        EXPECT_NEAR(p.speedup * base_tp, p.throughput,
                    1e-9 * p.throughput);
        const CostEstimate &est =
            p.simulated ? p.measured : p.analytical;
        // Throughput = dp x batch x micro_batches / step time
        // (ResNet50 batch = 64).
        EXPECT_NEAR(p.throughput,
                    samplesPerStep(p.spec, 64.0) / est.step_time,
                    1e-6 * p.throughput);
        if (p.simulated) {
            EXPECT_NEAR(est.step_time, p.result.total_time,
                        1e-12 * est.step_time);
        }
    }
}

TEST(OptimizationPlannerTest, ComputeBoundModelWantsMixedPrecision)
{
    // ResNet50's bottleneck is compute: the best plan enables MP.
    OptimizationPlanner planner;
    Plan best = planner.best(ModelZoo::resnet50());
    EXPECT_TRUE(best.spec.mixed_precision);
    EXPECT_TRUE(best.simulated);
    EXPECT_GT(best.speedup, 1.3);
}

TEST(OptimizationPlannerTest, ElementWiseBoundModelWantsXla)
{
    // Speech spends most of its time in memory-bound element-wise
    // kernels (Fig 13b): the best plan enables XLA fusion.
    OptimizationPlanner planner;
    Plan best = planner.best(ModelZoo::speech());
    EXPECT_TRUE(best.spec.xla_fusion);
    EXPECT_GT(best.speedup, 1.3);
}

TEST(OptimizationPlannerTest, CommBoundModelWantsArchitectureChange)
{
    // GCN on PS/Worker is 98% communication; the planner should move
    // it to PEARL (the paper's own fix, Sec IV-C).
    auto gcn = ModelZoo::gcn();
    gcn.arch = ArchType::PsWorker; // pretend it still runs on PS
    OptimizationPlanner planner;
    Plan best = planner.best(gcn);
    EXPECT_EQ(best.spec.arch, ArchType::Pearl);
    EXPECT_GT(best.speedup, 5.0);
}

TEST(OptimizationPlannerTest, InfeasibleArchitecturesExcluded)
{
    // Multi-Interests (239 GB embeddings) cannot replicate: without
    // model partitioning, no plan may use a replica architecture.
    // (Partitioned plans may reach them -- that is the point of the
    // hybrid-parallelism search.)
    OptimizationPlanner planner;
    auto plans = planner.evaluate(ModelZoo::multiInterests());
    for (const Plan &p : plans) {
        if (p.spec.splitWays() > 1)
            continue;
        EXPECT_NE(p.spec.arch, ArchType::AllReduceLocal)
            << p.label();
        EXPECT_NE(p.spec.arch, ArchType::AllReduceCluster)
            << p.label();
        EXPECT_NE(p.spec.arch, ArchType::OneWorkerOneGpu)
            << p.label();
    }
}

TEST(OptimizationPlannerTest, OneWorkerOneGpuCannotPartition)
{
    // Single-GPU and PS placements cannot host model shards; the
    // enumeration must never pair them with a partition degree.
    OptimizationPlanner planner;
    for (const auto &model : ModelZoo::all()) {
        for (const PlanSpec &s : planner.enumerate(model)) {
            if (s.splitWays() > 1) {
                EXPECT_NE(s.arch, ArchType::OneWorkerOneGpu)
                    << s.label();
                EXPECT_NE(s.arch, ArchType::PsWorker) << s.label();
            }
        }
    }
}

TEST(OptimizationPlannerTest, ArchExplorationCanBeDisabled)
{
    PlannerConfig cfg;
    cfg.explore_architectures = false;
    cfg.enable_subgraph_partition = false;
    cfg.enable_channel_split = false;
    cfg.enable_micro_batching = false;
    OptimizationPlanner planner(cfg);
    auto plans = planner.evaluate(ModelZoo::bert());
    EXPECT_EQ(plans.size(), 4u); // {MP} x {XLA} on the original arch
    for (const Plan &p : plans)
        EXPECT_EQ(p.spec.arch, ArchType::AllReduceLocal);
}

TEST(OptimizationPlannerTest, TopKBoundsSimulationCount)
{
    PlannerConfig cfg;
    cfg.top_k = 2;
    OptimizationPlanner planner(cfg);
    auto plans = planner.evaluate(ModelZoo::bert());
    size_t simulated = 0;
    for (const Plan &p : plans)
        simulated += p.simulated ? 1 : 0;
    // Baseline + at most top_k candidates.
    EXPECT_GE(simulated, 2u);
    EXPECT_LE(simulated, 3u);
    EXPECT_TRUE(plans[0].simulated);
    EXPECT_GT(plans.size(), simulated); // the rest stays analytical
}

TEST(OptimizationPlannerTest, LabelsAreReadable)
{
    PlanSpec p;
    p.mixed_precision = true;
    p.xla_fusion = true;
    p.arch = ArchType::AllReduceLocal;
    EXPECT_EQ(p.label(), "MP+XLA on AllReduce-Local");
    PlanSpec q;
    q.arch = ArchType::PsWorker;
    EXPECT_EQ(q.label(), "default on PS/Worker");
    PlanSpec r;
    r.arch = ArchType::AllReduceLocal;
    r.partition_ways = 4;
    r.micro_batches = 2;
    EXPECT_EQ(r.label(), "part4+acc2 on AllReduce-Local");
    PlanSpec c;
    c.arch = ArchType::Pearl;
    c.mixed_precision = true;
    c.channel_split_ways = 8;
    EXPECT_EQ(c.label(), "MP+ch8 on PEARL");
}

} // namespace
} // namespace paichar::opt
