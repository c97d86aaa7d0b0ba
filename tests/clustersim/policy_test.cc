/**
 * @file
 * Per-policy behavior of the prediction-driven scheduler layer
 * (DESIGN.md Sec 13): SPF ordering, EASY reservations, gang
 * restrictions, preemption/restart work conservation, heterogeneous
 * generations and fragmentation-aware placement. The cross-policy
 * invariants live in the sched_oracle fuzz suite; these tests pin
 * the *distinguishing* behavior of each policy on hand-built
 * streams. `ctest -L sched`.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "clustersim/scheduler.h"
#include "hw/units.h"
#include "obs/obs.h"
#include "testkit/sched_oracle.h"
#include "trace/synthetic_cluster.h"

namespace paichar::clustersim {
namespace {

using workload::ArchType;
using workload::TrainingJob;

TrainingJob
makeJob(int64_t id, ArchType arch, int cnodes, double flops = 7.7e12)
{
    TrainingJob j;
    j.id = id;
    j.arch = arch;
    j.num_cnodes = cnodes;
    j.features.batch_size = 32;
    j.features.flop_count = flops; // 7.7e12 -> ~1 s steps on Table I
    j.features.comm_bytes = arch == ArchType::OneWorkerOneGpu
                                ? 0.0
                                : 100 * hw::kMB;
    j.features.dense_weight_bytes = 100 * hw::kMB;
    return j;
}

JobRequest
request(TrainingJob job, double submit, int64_t steps)
{
    return JobRequest{std::move(job), submit, steps};
}

SchedulerConfig
oneServer()
{
    SchedulerConfig cfg;
    cfg.num_servers = 1;
    cfg.gpus_per_server = 8;
    cfg.nvlink_fraction = 1.0;
    return cfg;
}

const JobOutcome &
byId(const ClusterOutcome &out, int64_t id)
{
    auto it = std::find_if(
        out.jobs.begin(), out.jobs.end(),
        [&](const JobOutcome &jo) { return jo.job_id == id; });
    EXPECT_NE(it, out.jobs.end()) << "job " << id << " missing";
    return *it;
}

class PolicyTest : public ::testing::Test
{
  protected:
    PolicyTest() : model_(hw::paiCluster()) {}
    core::AnalyticalModel model_;
};

TEST_F(PolicyTest, SpfStartsShortestPredictedFirst)
{
    // Cluster busy until ~100 s; a long and a short 8-GPU job queue
    // behind it. FIFO starts the earlier (long) one first; SPF
    // starts the predicted-shorter one first.
    auto occupant = makeJob(1, ArchType::AllReduceLocal, 8);
    auto long_job = makeJob(2, ArchType::AllReduceLocal, 8);
    auto short_job = makeJob(3, ArchType::AllReduceLocal, 8);
    std::vector<JobRequest> reqs{request(occupant, 0.0, 100),
                                 request(long_job, 1.0, 1000),
                                 request(short_job, 2.0, 10)};

    SchedulerConfig fifo_cfg = oneServer();
    fifo_cfg.policy = Policy::Fifo;
    auto fifo = ClusterScheduler(fifo_cfg, model_).run(reqs);
    EXPECT_LT(byId(fifo, 2).start_time, byId(fifo, 3).start_time);

    SchedulerConfig spf_cfg = oneServer();
    spf_cfg.policy = Policy::Spf;
    auto spf = ClusterScheduler(spf_cfg, model_).run(reqs);
    EXPECT_LT(byId(spf, 3).start_time, byId(spf, 2).start_time);
    // And the reordering pays: mean wait strictly improves.
    EXPECT_LT(spf.mean_wait, fifo.mean_wait);
}

TEST_F(PolicyTest, EasyBackfillRespectsHeadReservation)
{
    // occupant holds 7/8 GPUs until ~100 s; the 8-GPU head must wait
    // for it. A 1-GPU job predicted to run ~1000 s would delay the
    // head's reserved start: greedy backfill admits it, EASY must
    // not. A 1-GPU job predicted to run ~10 s fits the window.
    auto occupant = makeJob(1, ArchType::AllReduceLocal, 7);
    auto head = makeJob(2, ArchType::AllReduceLocal, 8);
    auto big_small = makeJob(3, ArchType::OneWorkerOneGpu, 1);
    auto tiny = makeJob(4, ArchType::OneWorkerOneGpu, 1);
    std::vector<JobRequest> reqs{request(occupant, 0.0, 100),
                                 request(head, 1.0, 100),
                                 request(big_small, 2.0, 1000),
                                 request(tiny, 3.0, 10)};

    SchedulerConfig greedy_cfg = oneServer();
    greedy_cfg.policy = Policy::Backfill; // no predictor: greedy
    auto greedy = ClusterScheduler(greedy_cfg, model_).run(reqs);
    EXPECT_DOUBLE_EQ(byId(greedy, 3).start_time, 2.0);

    SchedulerConfig easy_cfg = oneServer();
    easy_cfg.policy = Policy::Backfill;
    easy_cfg.predictor = [](const TrainingJob &, int64_t,
                            double model_run_s) {
        return model_run_s;
    };
    auto easy = ClusterScheduler(easy_cfg, model_).run(reqs);
    // The 1000-step job would overrun the head's reservation: it
    // must now wait for the head.
    EXPECT_GE(byId(easy, 3).start_time, byId(easy, 2).start_time);
    // The 10-step job finishes inside the reservation: unchanged.
    EXPECT_DOUBLE_EQ(byId(easy, 4).start_time, 3.0);
    // EASY never delays the head past its greedy start.
    EXPECT_LE(byId(easy, 2).start_time,
              byId(greedy, 2).start_time + 1e-9);
}

TEST_F(PolicyTest, GangOnlyBackfillsSingleGpuJobs)
{
    // occupant holds 6/8 GPUs; the head needs all 8. Both a 2-GPU
    // job and a 1-GPU job would fit the free GPUs and finish well
    // inside the reservation -- but gang scheduling keeps distributed
    // jobs in arrival order, so only the 1-GPU job may backfill.
    auto occupant = makeJob(1, ArchType::AllReduceLocal, 6);
    auto head = makeJob(2, ArchType::AllReduceLocal, 8);
    auto multi = makeJob(3, ArchType::OneWorkerMultiGpu, 2);
    auto single = makeJob(4, ArchType::OneWorkerOneGpu, 1);
    std::vector<JobRequest> reqs{request(occupant, 0.0, 100),
                                 request(head, 1.0, 100),
                                 request(multi, 2.0, 5),
                                 request(single, 3.0, 5)};

    SchedulerConfig gang_cfg = oneServer();
    gang_cfg.policy = Policy::Gang;
    auto gang = ClusterScheduler(gang_cfg, model_).run(reqs);
    EXPECT_GE(byId(gang, 3).start_time, byId(gang, 2).start_time);
    EXPECT_DOUBLE_EQ(byId(gang, 4).start_time, 3.0);

    // Control: EASY backfill without the gang restriction admits the
    // 2-GPU job immediately.
    SchedulerConfig easy_cfg = oneServer();
    easy_cfg.policy = Policy::Backfill;
    easy_cfg.predictor = [](const TrainingJob &, int64_t,
                            double model_run_s) {
        return model_run_s;
    };
    auto easy = ClusterScheduler(easy_cfg, model_).run(reqs);
    EXPECT_DOUBLE_EQ(byId(easy, 3).start_time, 2.0);
}

TEST_F(PolicyTest, PreemptionRestartsFromLastCompletedStep)
{
    // A 1000-step job occupies the server; a 10-step job arrives at
    // t=5. Its predicted remaining (995 steps) is far beyond
    // preempt_ratio x 10, so the short job preempts, runs, and the
    // victim restarts from its last completed step.
    auto long_job = makeJob(1, ArchType::AllReduceLocal, 8);
    auto short_job = makeJob(2, ArchType::AllReduceLocal, 8);
    double step = model_.stepTime(long_job);
    std::vector<JobRequest> reqs{request(long_job, 0.0, 1000),
                                 request(short_job, 5.0 * step, 10)};

    SchedulerConfig cfg = oneServer();
    cfg.policy = Policy::SpfPreempt;
    auto out = ClusterScheduler(cfg, model_).run(reqs);
    const JobOutcome &victim = byId(out, 1);
    const JobOutcome &winner = byId(out, 2);

    EXPECT_EQ(out.preemptions, 1);
    EXPECT_EQ(victim.preemptions, 1);
    ASSERT_EQ(victim.segments.size(), 2u);
    // The short job starts at its submit time (the preemption is
    // immediate) and runs uninterrupted.
    EXPECT_NEAR(winner.start_time, 5.0 * step, 1e-9);
    EXPECT_EQ(winner.preemptions, 0);
    // Work conservation: the victim's occupied seconds cover all
    // 1000 steps and lose at most the one step in flight.
    double run = victim.runSeconds();
    EXPECT_GE(run, 1000.0 * step - 1e-6);
    EXPECT_LE(run, 1001.0 * step + 1e-6);
    // The victim resumes after the winner finishes, not from zero:
    // its finish is within (1000 + short + lost step) of its start.
    EXPECT_LE(victim.finish_time,
              victim.start_time + (1000.0 + 10.0 + 1.0) * step + 1e-6);
}

TEST_F(PolicyTest, PreemptionCountIsCapped)
{
    // Six short jobs arrive in sequence, each individually eligible
    // to preempt the long victim; after max_preemptions the victim
    // becomes unpreemptable and later shorts must queue.
    auto long_job = makeJob(1, ArchType::AllReduceLocal, 8);
    double step = model_.stepTime(long_job);
    std::vector<JobRequest> reqs{request(long_job, 0.0, 2000)};
    for (int i = 0; i < 6; ++i) {
        reqs.push_back(request(
            makeJob(2 + i, ArchType::AllReduceLocal, 8),
            (5.0 + 40.0 * i) * step, 10));
    }
    SchedulerConfig cfg = oneServer();
    cfg.max_preemptions = 3;
    cfg.policy = Policy::SpfPreempt;
    auto out = ClusterScheduler(cfg, model_).run(reqs);
    EXPECT_EQ(byId(out, 1).preemptions, 3);
    EXPECT_EQ(out.preemptions, 3);
}

TEST_F(PolicyTest, SpfNeverRegressesFifoOnHeavyTailTrace)
{
    // The headline claim (Hu et al.): ordering by predicted duration
    // recovers queueing time on a heavy-tailed stream. Generate a
    // saturating lognormal stream and require SPF (and EASY
    // backfill) to beat strict FIFO on mean queueing delay.
    trace::SyntheticClusterGenerator gen(11);
    std::vector<workload::TrainingJob> jobs;
    for (auto &j : gen.generate(250)) {
        j.num_cnodes = std::min(j.num_cnodes, 16);
        jobs.push_back(j);
    }
    auto reqs = poissonRequests(jobs, 900.0, 400.0, 1.4, 4242);
    SchedulerConfig cfg;
    cfg.num_servers = 16;
    cfg.gpus_per_server = 8;
    cfg.nvlink_fraction = 0.5;

    auto runWith = [&](Policy p) {
        SchedulerConfig c = cfg;
        c.policy = p;
        if (p != Policy::Fifo) {
            c.predictor = [](const TrainingJob &, int64_t,
                             double model_run_s) {
                return model_run_s;
            };
        }
        return ClusterScheduler(c, model_).run(reqs);
    };
    auto fifo = runWith(Policy::Fifo);
    auto spf = runWith(Policy::Spf);
    auto easy = runWith(Policy::Backfill);
    ASSERT_GT(fifo.mean_wait, 0.0) << "stream must actually queue";
    EXPECT_LE(spf.mean_wait, fifo.mean_wait);
    EXPECT_LE(easy.mean_wait, fifo.mean_wait + 1e-9);
    // All three complete the same population.
    EXPECT_EQ(spf.jobs.size(), fifo.jobs.size());
    EXPECT_EQ(easy.jobs.size(), fifo.jobs.size());
}

TEST_F(PolicyTest, HeterogeneousGenerationsStretchStepTimes)
{
    // With half the fleet on older generations, the non-NVLink
    // preference lands a 1wng job on the slowest (gen-old, 0.4x)
    // server: its steps stretch by 1/0.4.
    SchedulerConfig cfg;
    cfg.num_servers = 4;
    cfg.gpus_per_server = 8;
    cfg.nvlink_fraction = 0.5;
    cfg.old_gen_fraction = 0.5;
    auto job = makeJob(1, ArchType::OneWorkerMultiGpu, 8);
    auto out = ClusterScheduler(cfg, model_)
                   .run({request(job, 0.0, 100)});
    ASSERT_EQ(out.jobs.size(), 1u);
    double base = model_.stepTime(job);
    EXPECT_NEAR(out.jobs[0].runtime(), 100.0 * base / 0.4, 1e-6);
    EXPECT_NEAR(out.jobs[0].step_s, base / 0.4, 1e-9);

    // Homogeneous control: the same job runs at full speed.
    cfg.old_gen_fraction = 0.0;
    auto flat = ClusterScheduler(cfg, model_)
                    .run({request(job, 0.0, 100)});
    EXPECT_NEAR(flat.jobs[0].runtime(), 100.0 * base, 1e-9);
}

TEST_F(PolicyTest, BestFitPreservesLargeBlocks)
{
    // Two non-NVLink servers. After a 3-GPU and a 6-GPU placement
    // the free GPUs are (5, 2). A 2-GPU job: first-fit fragments the
    // 5-block, best-fit exactly fills the 2-block -- so a later
    // 5-GPU job starts immediately only under best-fit.
    SchedulerConfig cfg;
    cfg.num_servers = 2;
    cfg.gpus_per_server = 8;
    cfg.nvlink_fraction = 0.0;
    std::vector<JobRequest> reqs{
        request(makeJob(1, ArchType::OneWorkerMultiGpu, 3), 0.0, 100),
        request(makeJob(2, ArchType::OneWorkerMultiGpu, 6), 0.0, 100),
        request(makeJob(3, ArchType::OneWorkerMultiGpu, 2), 1.0, 100),
        request(makeJob(4, ArchType::OneWorkerMultiGpu, 5), 2.0, 10)};

    auto first = ClusterScheduler(cfg, model_).run(reqs);
    EXPECT_GT(byId(first, 4).wait(), 0.0);

    cfg.placement = PlacementStrategy::BestFit;
    auto best = ClusterScheduler(cfg, model_).run(reqs);
    EXPECT_DOUBLE_EQ(byId(best, 4).wait(), 0.0);
}

TEST_F(PolicyTest, SpfPlacementAttemptsScaleNearLinearly)
{
    // A saturating stream keeps a queue proportional to its length. A
    // scan that restarts after every placement makes O(jobs x queue)
    // attempts, so doubling the stream about quadruples them; one
    // pass per event charges each shape head once per pass, which
    // stays near-linear.
    obs::Counter &attempts =
        obs::counter("clustersim.placement_attempts");
    testkit::JobGenerator gen;
    auto attemptsFor = [&](int jobs) {
        testkit::SchedStreamOptions opt;
        opt.num_jobs = jobs;
        opt.jobs_per_hour = 2000.0;
        SchedulerConfig cfg;
        cfg.num_servers = 16;
        cfg.gpus_per_server = 8;
        cfg.nvlink_fraction = 0.5;
        cfg.policy = Policy::Spf;
        cfg.record_job_log = false;
        cfg.record_timeline = false;
        auto reqs = testkit::genRequests(gen, 77, opt, cfg.num_servers);
        uint64_t before = attempts.value();
        auto out = ClusterScheduler(cfg, model_).run(reqs);
        EXPECT_GT(out.mean_wait, 0.0) << "stream must saturate";
        return static_cast<double>(attempts.value() - before);
    };
    double n = attemptsFor(1500);
    double n2 = attemptsFor(3000);
    ASSERT_GT(n, 0.0);
    RecordProperty("attempts_ratio", std::to_string(n2 / n));
    EXPECT_LT(n2 / n, 2.5) << n << " -> " << n2 << " attempts";
}

TEST_F(PolicyTest, PolicyNamesRoundTrip)
{
    for (const std::string &name : policyNames()) {
        auto p = policyFromString(name);
        ASSERT_TRUE(p.has_value()) << name;
        EXPECT_EQ(toString(*p), name);
    }
    EXPECT_FALSE(policyFromString("sjf").has_value());
    EXPECT_FALSE(policyFromString("").has_value());
    EXPECT_EQ(policyNames().size(), 5u);
}

} // namespace
} // namespace paichar::clustersim
