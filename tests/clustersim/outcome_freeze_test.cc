/**
 * @file
 * Frozen scheduler outcomes: every JobOutcome of seeded
 * testkit::genRequests streams, digested per configuration and
 * compared against a committed table. The table pins the exact
 * placement decisions (start, finish, GPUs, executed architecture,
 * porting, preemptions and segments, printed with %.17g) of the
 * prediction-driven policies across placement strategy, porting,
 * heterogeneous generations, tie-heavy predictions and
 * preemption-heavy options, so a rewrite of the queue machinery must
 * reproduce the old schedules bit for bit. On a mismatch the test
 * prints the recomputed table. `ctest -L sched`.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "clustersim/scheduler.h"
#include "hw/hardware_config.h"
#include "testkit/sched_oracle.h"

namespace paichar::clustersim {
namespace {

/** FNV-1a 64 over @p text, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Text rendering of one outcome; doubles round-trip via %.17g. */
std::string
renderOutcome(const JobOutcome &jo)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%" PRId64 " %.17g %.17g %.17g %d %d %d %d",
                  jo.job_id, jo.start_time, jo.finish_time, jo.step_s,
                  jo.gpus, static_cast<int>(jo.executed_arch),
                  jo.ported ? 1 : 0, jo.preemptions);
    std::string line = buf;
    for (auto [s, e] : jo.segments) {
        std::snprintf(buf, sizeof(buf), " [%.17g,%.17g)", s, e);
        line += buf;
    }
    return line + "\n";
}

struct FreezeCase
{
    std::string name;
    SchedulerConfig cfg;
    testkit::SchedStreamOptions stream;
};

std::vector<FreezeCase>
freezeCases()
{
    SchedulerConfig base;
    base.num_servers = 16;
    base.gpus_per_server = 8;
    base.nvlink_fraction = 0.5;
    base.record_job_log = false;
    base.record_timeline = false;

    testkit::SchedStreamOptions saturating;
    saturating.num_jobs = 120;
    saturating.jobs_per_hour = 700.0;
    testkit::SchedStreamOptions heavy;
    heavy.num_jobs = 80;
    heavy.jobs_per_hour = 900.0;
    heavy.steps_median = 500.0;
    heavy.steps_sigma = 1.6;

    std::vector<FreezeCase> cases;
    for (Policy p : {Policy::Spf, Policy::SpfPreempt}) {
        for (bool best_fit : {false, true}) {
            for (bool port : {false, true}) {
                for (double hetero : {0.0, 0.25}) {
                    SchedulerConfig cfg = base;
                    cfg.policy = p;
                    cfg.placement = best_fit
                                        ? PlacementStrategy::BestFit
                                        : PlacementStrategy::FirstFit;
                    cfg.port_ps_to_allreduce = port;
                    cfg.old_gen_fraction = hetero;
                    std::string name =
                        toString(p) +
                        (best_fit ? "/best-fit" : "/first-fit") +
                        (port ? "/port1" : "/port0") +
                        (hetero > 0.0 ? "/hetero0.25" : "/hetero0");
                    cases.push_back({name, cfg, saturating});
                    if (p == Policy::SpfPreempt) {
                        // Preemption-heavy: a preempt-happy ratio and
                        // a generous cap on skewed, long streams.
                        cfg.preempt_ratio = 1.5;
                        cfg.max_preemptions = 8;
                        cases.push_back({name + "/heavy", cfg, heavy});
                    }
                }
            }
        }
    }
    // Coarse predictions put many queued jobs on the same key, so the
    // arrival-order tie-break decides the order.
    for (Policy p : {Policy::Spf, Policy::SpfPreempt}) {
        SchedulerConfig cfg = base;
        cfg.policy = p;
        cfg.port_ps_to_allreduce = true;
        cfg.predictor = [](const workload::TrainingJob &, int64_t,
                           double model_run_s) {
            return std::ceil(model_run_s / 600.0) * 600.0;
        };
        cases.push_back({toString(p) + "/coarse-ties", cfg, saturating});
    }
    // The non-SPF policies share the placement layer.
    for (Policy p : {Policy::Fifo, Policy::Backfill, Policy::Gang}) {
        for (bool best_fit : {false, true}) {
            SchedulerConfig cfg = base;
            cfg.policy = p;
            cfg.placement = best_fit ? PlacementStrategy::BestFit
                                     : PlacementStrategy::FirstFit;
            cfg.port_ps_to_allreduce = true;
            cfg.old_gen_fraction = 0.25;
            cases.push_back({toString(p) +
                                 (best_fit ? "/best-fit" : "/first-fit"),
                             cfg, saturating});
        }
    }
    return cases;
}

/** Features a case's streams actually exercised. */
struct Exercised
{
    int64_t preemptions = 0;
    int64_t ported = 0;
    double mean_wait = 0.0;
};

/** Digest of every outcome of @p c over three seeded streams. */
uint64_t
digest(const FreezeCase &c, Exercised *ex)
{
    testkit::JobGenerator gen;
    core::AnalyticalModel model(hw::paiCluster());
    uint64_t h = 14695981039346656037ull;
    for (uint64_t seed : {31u, 32u, 33u}) {
        auto reqs =
            testkit::genRequests(gen, seed, c.stream, c.cfg.num_servers);
        ClusterOutcome out = ClusterScheduler(c.cfg, model).run(reqs);
        ex->preemptions += out.preemptions;
        ex->ported += out.ported_jobs;
        ex->mean_wait += out.mean_wait;
        h = fnv1a(h, "seed " + std::to_string(seed) + " unplaceable " +
                         std::to_string(out.unplaceable_jobs) + "\n");
        for (const JobOutcome &jo : out.jobs)
            h = fnv1a(h, renderOutcome(jo));
    }
    return h;
}

// Recorded on the sort-and-restart SPF scan before the one-pass
// rewrite; the rewrite must reproduce every schedule exactly.
const std::map<std::string, uint64_t> kFrozen = {
    {"spf/first-fit/port0/hetero0", 0xc3b06eb4ff7e4323ull},
    {"spf/first-fit/port0/hetero0.25", 0xf552a6e624d0d894ull},
    {"spf/first-fit/port1/hetero0", 0x46b7a27e43fd4e39ull},
    {"spf/first-fit/port1/hetero0.25", 0x366352690d897d14ull},
    {"spf/best-fit/port0/hetero0", 0xdee58cdb6cf5d7fdull},
    {"spf/best-fit/port0/hetero0.25", 0x93d2eca3405d7494ull},
    {"spf/best-fit/port1/hetero0", 0x86851cb15e76dc03ull},
    {"spf/best-fit/port1/hetero0.25", 0x2a14fb951393b29dull},
    {"spf-preempt/first-fit/port0/hetero0", 0x73de3dbb27711853ull},
    {"spf-preempt/first-fit/port0/hetero0/heavy", 0x8e71eb47639a7814ull},
    {"spf-preempt/first-fit/port0/hetero0.25", 0xf07870d53defa836ull},
    {"spf-preempt/first-fit/port0/hetero0.25/heavy", 0x7c3c9287c78f334cull},
    {"spf-preempt/first-fit/port1/hetero0", 0x165c0f2a16334a89ull},
    {"spf-preempt/first-fit/port1/hetero0/heavy", 0xf23f0487f64a1ae9ull},
    {"spf-preempt/first-fit/port1/hetero0.25", 0x90bfdbbc08f1f80full},
    {"spf-preempt/first-fit/port1/hetero0.25/heavy", 0x587396c0a80f4e95ull},
    {"spf-preempt/best-fit/port0/hetero0", 0x8fd344b566f75f6dull},
    {"spf-preempt/best-fit/port0/hetero0/heavy", 0x96b7328c5adbbd94ull},
    {"spf-preempt/best-fit/port0/hetero0.25", 0xd07be795e6268e15ull},
    {"spf-preempt/best-fit/port0/hetero0.25/heavy", 0xb728641397091e49ull},
    {"spf-preempt/best-fit/port1/hetero0", 0x0f6ab8e7fd123c7eull},
    {"spf-preempt/best-fit/port1/hetero0/heavy", 0xa63190250ed58560ull},
    {"spf-preempt/best-fit/port1/hetero0.25", 0x15a533cf3cd2cf91ull},
    {"spf-preempt/best-fit/port1/hetero0.25/heavy", 0x99c7772563e0a5deull},
    {"spf/coarse-ties", 0x0d6b14174430df06ull},
    {"spf-preempt/coarse-ties", 0x2e1ced859c5d94adull},
    {"fifo/first-fit", 0x24b5265004ce181eull},
    {"fifo/best-fit", 0x947549b5b299ed86ull},
    {"backfill/first-fit", 0x51d281120fd256d0ull},
    {"backfill/best-fit", 0xf8b4fb2c9f69044aull},
    {"gang/first-fit", 0x0fb47c255feeb408ull},
    {"gang/best-fit", 0x7be1c54c1368adf7ull},
};

TEST(OutcomeFreeze, PolicyOutcomesMatchFrozenDigests)
{
    std::string table;
    int mismatches = 0;
    for (const FreezeCase &c : freezeCases()) {
        Exercised ex;
        uint64_t d = digest(c, &ex);
        // A digest only freezes what the stream reaches: queues must
        // form, and the preemption and porting paths must fire.
        EXPECT_GT(ex.mean_wait, 0.0) << c.name;
        if (c.cfg.policy == Policy::SpfPreempt) {
            EXPECT_GT(ex.preemptions, 0) << c.name;
        }
        if (c.cfg.port_ps_to_allreduce) {
            EXPECT_GT(ex.ported, 0) << c.name;
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      c.name.c_str(), d);
        table += line;
        auto it = kFrozen.find(c.name);
        if (it == kFrozen.end() || it->second != d) {
            ++mismatches;
            ADD_FAILURE() << c.name << ": digest changed";
        }
    }
    EXPECT_EQ(mismatches, 0) << "recomputed table:\n" << table;
}

} // namespace
} // namespace paichar::clustersim
