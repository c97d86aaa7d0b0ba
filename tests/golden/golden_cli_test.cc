/**
 * @file
 * Golden-snapshot tests for the CLI surface (`ctest -L golden`).
 *
 * Each test drives cli::run() in-process and byte-compares stdout
 * against a committed snapshot under tests/golden/goldens/. Every
 * invocation runs under --threads 1, 2 and 8 and must produce
 * identical bytes first (the runtime determinism contract), then
 * match the snapshot exactly.
 *
 * To (re-)record after an intentional output change:
 *   PAICHAR_UPDATE_GOLDENS=1 ctest -L golden
 * then review the snapshot diff like any other code change. A missing
 * snapshot is a hard failure, never a skip.
 *
 * The fixture chdirs into a scratch directory and uses fixed relative
 * file names, so paths echoed in CLI output are byte-stable across
 * machines.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "testkit/golden.h"

namespace paichar::testkit {
namespace {

namespace fs = std::filesystem;

class GoldenCliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        previous_dir_ = fs::current_path();
        scratch_ = fs::temp_directory_path() /
                   ("paichar_golden_" + std::to_string(::getpid()));
        fs::create_directories(scratch_);
        fs::current_path(scratch_);

        // A fixed synthetic trace all snapshot commands consume.
        std::ostringstream out, err;
        int code = cli::run({"generate", "--jobs", "400", "--seed",
                             "20190601", "--out", "golden_trace.csv"},
                            out, err);
        ASSERT_EQ(code, 0) << err.str();
    }

    void
    TearDown() override
    {
        fs::current_path(previous_dir_);
        fs::remove_all(scratch_);
    }

    void
    expectGolden(const std::string &name,
                 const std::vector<std::string> &args,
                 std::vector<std::string> artifact_files = {})
    {
        GoldenOptions opts;
        opts.dir = PAICHAR_GOLDEN_DIR;
        opts.artifact_files = std::move(artifact_files);
        GoldenResult r = checkGolden(name, args, opts);
        EXPECT_TRUE(r.ok) << r.message;
        if (r.updated)
            std::cout << "[golden] " << r.message << "\n";
    }

  private:
    fs::path previous_dir_;
    fs::path scratch_;
};

TEST_F(GoldenCliTest, Generate)
{
    expectGolden("generate", {"generate", "--jobs", "50", "--seed", "7"});
}

TEST_F(GoldenCliTest, Characterize)
{
    expectGolden("characterize", {"characterize", "golden_trace.csv"});
}

// The scheduler fans its predictions out over the thread pool, so
// every --threads count must be byte-identical before it may match
// the golden.
TEST_F(GoldenCliTest, Schedule)
{
    expectGolden("schedule",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120"});
}

// Policy matrix: each scheduling policy snapshot runs under every
// --threads count and must stay byte-identical before it may match
// its golden — the policy layer (queue reordering, reservations,
// preemption, gang admission) may not leak scheduling
// nondeterminism into results.

TEST_F(GoldenCliTest, ScheduleFifo)
{
    expectGolden("schedule_fifo",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--policy", "fifo"});
}

TEST_F(GoldenCliTest, ScheduleSpf)
{
    expectGolden("schedule_spf",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--policy", "spf",
                  "--compare-fifo", "1"});
}

// spf-preempt exercises the stale-completion check and the
// restart-from-last-step path; determinism here means preemption
// decisions are identical at every thread count.
TEST_F(GoldenCliTest, ScheduleSpfPreempt)
{
    expectGolden("schedule_spf_preempt",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--policy", "spf-preempt"});
}

TEST_F(GoldenCliTest, ScheduleGang)
{
    expectGolden("schedule_gang",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--policy", "gang", "--hetero",
                  "0.25", "--placement", "best-fit"});
}

TEST_F(GoldenCliTest, Sweep)
{
    expectGolden("sweep", {"sweep", "golden_trace.csv"});
}

TEST_F(GoldenCliTest, Project)
{
    expectGolden("project", {"project", "golden_trace.csv"});
}

TEST_F(GoldenCliTest, Convert)
{
    expectGolden("convert", {"convert", "golden_trace.csv",
                             "golden_trace.paib", "--trace-format",
                             "bin"});
}

// Two case-study `plan` snapshots: a Conv-heavy model (channel/filter
// split dimension) and a transformer (sub-graph partition dimension).
// The planner fans candidate evaluation out over the thread pool, so
// these double as determinism checks on the search pipeline.

TEST_F(GoldenCliTest, PlanResnet50)
{
    expectGolden("plan_resnet50", {"plan", "resnet50", "--top", "6"});
}

TEST_F(GoldenCliTest, PlanBertJson)
{
    expectGolden("plan_bert_json",
                 {"plan", "bert", "--top", "6", "--format", "json"});
}

// Serving-fleet snapshots: the fleet is a single-threaded totally
// ordered event loop, so its output must be byte-identical at every
// --threads count like every other subcommand.

TEST_F(GoldenCliTest, Serve)
{
    expectGolden("serve",
                 {"serve", "resnet50", "--qps", "400", "--requests",
                  "5000"});
}

TEST_F(GoldenCliTest, ServeFleet)
{
    expectGolden("serve_fleet",
                 {"serve", "resnet50", "--servers", "4", "--routing",
                  "p2c", "--batching", "continuous", "--arrival",
                  "diurnal", "--qps", "2500", "--admit", "48",
                  "--requests", "8000"});
}

// Long enough (60k requests at 1800 qps is ~33 s of arrivals) for
// scaled-up servers to clear the 10 s provisioning lag and serve.
TEST_F(GoldenCliTest, ServeAutoscale)
{
    expectGolden("serve_autoscale",
                 {"serve", "resnet50", "--autoscale", "1",
                  "--arrival", "bursty", "--qps", "1800",
                  "--requests", "60000"});
}

TEST_F(GoldenCliTest, Capacity)
{
    expectGolden("capacity",
                 {"capacity", "resnet50", "--qps", "3000",
                  "--slo-ms", "40", "--requests", "8000"});
}

// Timeline exports are held to the same determinism bar as stdout:
// the harness byte-compares the written CSV across every --threads
// count and against its own snapshot.

TEST_F(GoldenCliTest, ScheduleTimeline)
{
    expectGolden("schedule_timeline",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--timeline", "schedule_tl.csv",
                  "--timeline-interval", "60"}, {"schedule_tl.csv"});
}

// Preemption leaves stale completions behind: they still count in the
// timeline's sim.events series, and every restart adds to the job's
// placement_attempts in the job log. This pins both.
TEST_F(GoldenCliTest, ScheduleSpfPreemptTimeline)
{
    expectGolden("schedule_spf_preempt_timeline",
                 {"schedule", "golden_trace.csv", "--servers", "48",
                  "--rate", "120", "--policy", "spf-preempt",
                  "--timeline", "sched_pre_tl.csv",
                  "--timeline-interval", "60", "--job-log",
                  "sched_pre.jsonl"},
                 {"sched_pre_tl.csv", "sched_pre.jsonl"});
}

// The SLO-driven autoscaler under bursty load, with the fleet-size
// trajectory (inference.fleet.servers_up) recorded as a timeline
// series — the windowed-p99 feed closing ROADMAP item 2's loop.
TEST_F(GoldenCliTest, ServeSloTimeline)
{
    expectGolden("serve_slo_timeline",
                 {"serve", "resnet50", "--autoscale", "slo",
                  "--slo-ms", "10", "--arrival", "bursty", "--qps",
                  "1800", "--requests", "60000", "--timeline",
                  "serve_tl.csv", "--timeline-interval", "5"},
                 {"serve_tl.csv"});
}

// The capacity search's probes record nothing: the timeline holds
// only the final run at the size the search found.
TEST_F(GoldenCliTest, CapacityTimeline)
{
    expectGolden("capacity_timeline",
                 {"capacity", "resnet50", "--qps", "3000", "--slo-ms",
                  "40", "--requests", "8000", "--timeline",
                  "cap_tl.csv", "--timeline-interval", "1"},
                 {"cap_tl.csv"});
}

} // namespace
} // namespace paichar::testkit
