/**
 * @file
 * The scheduler differential-test harness (DESIGN.md Sec 13): fuzzed
 * seed-pure submission streams through every policy, checking the
 * policy-independent invariants (job/work/capacity conservation, no
 * negative queueing delay) and the FIFO differential, with shrinking
 * reproducers. Override the sweep with PAICHAR_SCHED_SEED=N to
 * replay one seed. `ctest -L sched`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "clustersim/scheduler.h"
#include "testkit/sched_oracle.h"

namespace paichar::testkit {
namespace {

using clustersim::ClusterOutcome;
using clustersim::ClusterScheduler;
using clustersim::Policy;
using clustersim::SchedulerConfig;

SchedulerConfig
fuzzCluster()
{
    SchedulerConfig cfg;
    cfg.num_servers = 16;
    cfg.gpus_per_server = 8;
    cfg.nvlink_fraction = 0.5;
    cfg.record_job_log = false;
    return cfg;
}

/**
 * fuzzCluster() under best-fit placement, PS/Worker -> AllReduce-Local
 * porting and mixed GPU generations, alone and combined: each reaches
 * placement paths the default cluster never takes.
 */
std::vector<std::pair<std::string, SchedulerConfig>>
fuzzClusterVariants()
{
    SchedulerConfig best_fit = fuzzCluster();
    best_fit.placement = clustersim::PlacementStrategy::BestFit;
    SchedulerConfig port = fuzzCluster();
    port.port_ps_to_allreduce = true;
    SchedulerConfig hetero = fuzzCluster();
    hetero.old_gen_fraction = 0.25;
    SchedulerConfig all = best_fit;
    all.port_ps_to_allreduce = true;
    all.old_gen_fraction = 0.25;
    return {{"best-fit", best_fit},
            {"port", port},
            {"hetero", hetero},
            {"best-fit+port+hetero", all}};
}

const std::vector<Policy> &
allPolicies()
{
    static const std::vector<Policy> ps{
        Policy::Fifo, Policy::Backfill, Policy::Spf,
        Policy::SpfPreempt, Policy::Gang};
    return ps;
}

TEST(SchedOracle, GenRequestsAreSeedPureAndOrdered)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    auto a = genRequests(gen, 99, opt, 16);
    auto b = genRequests(gen, 99, opt, 16);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].job.id, b[i].job.id);
        EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
        EXPECT_EQ(a[i].num_steps, b[i].num_steps);
        EXPECT_LE(a[i].job.num_cnodes, 16);
        if (i > 0)
            EXPECT_GT(a[i].submit_time, a[i - 1].submit_time);
    }
    auto c = genRequests(gen, 100, opt, 16);
    bool differs = false;
    for (size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].num_steps != c[i].num_steps;
    EXPECT_TRUE(differs) << "different seeds, identical stream";
}

TEST(SchedOracle, FuzzedStreamsHoldInvariantsUnderEveryPolicy)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 50;
    opt.jobs_per_hour = 600.0; // saturating: queues actually form

    uint64_t base_seed = 7100;
    int count = 6;
    if (const char *env = std::getenv("PAICHAR_SCHED_SEED")) {
        base_seed = std::strtoull(env, nullptr, 10);
        count = 1;
    }
    auto failure = fuzzPolicies(
        gen, base_seed, count, allPolicies(), fuzzCluster(), opt,
        "PAICHAR_SCHED_SEED={seed} ./sched_oracle_test "
        "--gtest_filter='*FuzzedStreams*'");
    if (failure)
        FAIL() << describe(*failure);
}

TEST(SchedOracle, FuzzedStreamsHoldInvariantsUnderClusterVariants)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 50;
    opt.jobs_per_hour = 600.0;

    uint64_t base_seed = 7300;
    int count = 4;
    if (const char *env = std::getenv("PAICHAR_SCHED_SEED")) {
        base_seed = std::strtoull(env, nullptr, 10);
        count = 1;
    }
    for (const auto &[name, cfg] : fuzzClusterVariants()) {
        auto failure = fuzzPolicies(
            gen, base_seed, count, allPolicies(), cfg, opt,
            "PAICHAR_SCHED_SEED={seed} ./sched_oracle_test "
            "--gtest_filter='*ClusterVariants*'");
        if (failure)
            FAIL() << name << ": " << describe(*failure);
    }
}

TEST(SchedOracle, PreemptionHeavyStreamsConserveWork)
{
    // Skewed streams (long medians, high sigma) at a preempt-happy
    // ratio maximize preemption churn; the work-conservation and
    // capacity invariants must survive it.
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 40;
    opt.jobs_per_hour = 900.0;
    opt.steps_median = 500.0;
    opt.steps_sigma = 1.6;
    SchedulerConfig cfg = fuzzCluster();
    cfg.preempt_ratio = 1.5;
    cfg.max_preemptions = 8;
    auto failure =
        fuzzPolicies(gen, 8200, 4, {Policy::SpfPreempt}, cfg, opt,
                     "PAICHAR_SCHED_SEED={seed} ./sched_oracle_test "
                     "--gtest_filter='*PreemptionHeavy*'");
    if (failure)
        FAIL() << describe(*failure);
}

TEST(SchedOracle, DetectsLostAndDuplicatedJobs)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 12;
    auto reqs = genRequests(gen, 5, opt, 16);
    SchedulerConfig cfg = fuzzCluster();
    core::AnalyticalModel model(hw::paiCluster());
    auto out = ClusterScheduler(cfg, model).run(reqs);
    ASSERT_FALSE(checkSchedInvariants(reqs, cfg, out).has_value());

    // Lose a job.
    ClusterOutcome lost = out;
    lost.jobs.pop_back();
    auto msg = checkSchedInvariants(reqs, cfg, lost);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("conservation"), std::string::npos) << *msg;

    // Duplicate a job (and keep counts consistent to get past the
    // conservation gate).
    ClusterOutcome dup = out;
    dup.jobs.back() = dup.jobs.front();
    msg = checkSchedInvariants(reqs, cfg, dup);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("twice"), std::string::npos) << *msg;
}

TEST(SchedOracle, DetectsCausalityAndCapacityViolations)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 12;
    auto reqs = genRequests(gen, 6, opt, 16);
    SchedulerConfig cfg = fuzzCluster();
    core::AnalyticalModel model(hw::paiCluster());
    auto out = ClusterScheduler(cfg, model).run(reqs);
    ASSERT_FALSE(checkSchedInvariants(reqs, cfg, out).has_value());

    // Negative queueing delay.
    ClusterOutcome neg = out;
    neg.jobs.front().start_time =
        neg.jobs.front().submit_time - 1.0;
    auto msg = checkSchedInvariants(reqs, cfg, neg);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("queueing delay"), std::string::npos) << *msg;

    // Capacity overflow: one outcome claims more GPUs than exist.
    ClusterOutcome over = out;
    over.jobs.front().gpus =
        cfg.num_servers * cfg.gpus_per_server + 1;
    msg = checkSchedInvariants(reqs, cfg, over);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("capacity"), std::string::npos) << *msg;
}

TEST(SchedOracle, DetectsWorkLossAndFifoDivergence)
{
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 12;
    auto reqs = genRequests(gen, 7, opt, 16);
    SchedulerConfig cfg = fuzzCluster();
    core::AnalyticalModel model(hw::paiCluster());
    auto out = ClusterScheduler(cfg, model).run(reqs);

    // A job that finished early lost training steps.
    ClusterOutcome short_run = out;
    for (auto &jo : short_run.jobs) {
        if (std::isfinite(jo.finish_time) && jo.num_steps > 1) {
            jo.finish_time =
                jo.start_time + jo.step_s * (jo.num_steps / 2);
            break;
        }
    }
    auto msg = checkSchedInvariants(reqs, cfg, short_run);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("work lost"), std::string::npos) << *msg;

    // FIFO differential: a policy run that rewrote a step count.
    ClusterOutcome tampered = out;
    tampered.jobs.front().num_steps += 1;
    auto diff = checkAgainstFifo(tampered, out);
    ASSERT_TRUE(diff.has_value());
    EXPECT_NE(diff->find("diverge"), std::string::npos) << *diff;
    EXPECT_FALSE(checkAgainstFifo(out, out).has_value());
}

TEST(SchedOracle, DescribeRendersReproducer)
{
    SchedFuzzFailure f;
    f.seed = 42;
    f.policy = Policy::SpfPreempt;
    f.message = "capacity exceeded";
    f.stream_jobs = 50;
    JobGenerator gen;
    SchedStreamOptions opt;
    opt.num_jobs = 2;
    f.shrunk = genRequests(gen, 1, opt, 16);
    f.repro = "PAICHAR_SCHED_SEED=42 ./sched_oracle_test";
    std::string text = describe(f);
    EXPECT_NE(text.find("seed:    42"), std::string::npos);
    EXPECT_NE(text.find("spf-preempt"), std::string::npos);
    EXPECT_NE(text.find("capacity exceeded"), std::string::npos);
    EXPECT_NE(text.find("shrunk to 2"), std::string::npos);
    EXPECT_NE(text.find("PAICHAR_SCHED_SEED=42"), std::string::npos);
}

} // namespace
} // namespace paichar::testkit
