/**
 * @file
 * Tests for the paichar CLI (driven through the library entry point).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "cli/cli.h"

namespace paichar::cli {
namespace {

struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
runCli(std::vector<std::string> args)
{
    std::ostringstream out, err;
    int code = run(args, out, err);
    return {code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsageAndFails)
{
    auto r = runCli({});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds)
{
    auto r = runCli({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("paichar"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails)
{
    auto r = runCli({"frobnicate"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, FlagWithoutValueFails)
{
    auto r = runCli({"generate", "--jobs"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("expects a value"), std::string::npos);
}

TEST(CliTest, NonNumericFlagValueFails)
{
    auto r = runCli({"generate", "--jobs", "abc"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("expects a number"), std::string::npos);
    EXPECT_NE(r.err.find("--jobs"), std::string::npos);
    EXPECT_NE(r.err.find("abc"), std::string::npos);
}

TEST(CliTest, TrailingGarbageInFlagValueFails)
{
    auto r = runCli({"generate", "--jobs", "10x"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("expects a number"), std::string::npos);
}

TEST(CliTest, ThreadsFlagRejectsNonPositiveValues)
{
    auto r = runCli({"generate", "--jobs", "10", "--threads", "0"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--threads"), std::string::npos);

    auto bad = runCli({"generate", "--jobs", "10", "--threads", "x"});
    EXPECT_EQ(bad.code, 1);
}

TEST(CliTest, ThreadCountDoesNotChangeOutput)
{
    auto a = runCli({"generate", "--jobs", "200", "--seed", "11",
                     "--threads", "1"});
    auto b = runCli({"generate", "--jobs", "200", "--seed", "11",
                     "--threads", "4"});
    EXPECT_EQ(a.code, 0);
    EXPECT_EQ(b.code, 0);
    EXPECT_EQ(a.out, b.out);
}

TEST(CliTest, GenerateToStdout)
{
    auto r = runCli({"generate", "--jobs", "10", "--seed", "5"});
    EXPECT_EQ(r.code, 0);
    // Header + 10 rows.
    EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 11);
    EXPECT_NE(r.out.find("id,arch,num_cnodes"), std::string::npos);
}

TEST(CliTest, GenerateIsSeedDeterministic)
{
    auto a = runCli({"generate", "--jobs", "50", "--seed", "9"});
    auto b = runCli({"generate", "--jobs", "50", "--seed", "9"});
    auto c = runCli({"generate", "--jobs", "50", "--seed", "10"});
    EXPECT_EQ(a.out, b.out);
    EXPECT_NE(a.out, c.out);
}

class CliWithTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process: ctest -j runs each test in its own
        // process, and a shared path would let one test's TearDown
        // delete the trace another test is reading.
        path_ = testing::TempDir() + "/paichar_cli_trace_" +
                std::to_string(::getpid()) + ".csv";
        auto r = runCli({"generate", "--jobs", "2000", "--seed",
                         "42", "--out", path_});
        ASSERT_EQ(r.code, 0) << r.err;
        ASSERT_NE(r.out.find("wrote 2000 jobs"), std::string::npos);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(CliWithTraceTest, CharacterizeSummarizesTrace)
{
    auto r = runCli({"characterize", path_});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("PS/Worker"), std::string::npos);
    EXPECT_NE(r.out.find("cNode-level breakdown"), std::string::npos);
}

TEST_F(CliWithTraceTest, ConvertRoundTripsThroughBinary)
{
    std::string bin_path = path_ + ".paib";
    std::string back_path = path_ + ".back.csv";

    // Output format is inferred from the .paib extension.
    auto to_bin = runCli({"convert", path_, bin_path});
    ASSERT_EQ(to_bin.code, 0) << to_bin.err;
    EXPECT_NE(to_bin.out.find("(bin)"), std::string::npos);

    auto to_csv = runCli(
        {"convert", bin_path, back_path, "--trace-format", "csv"});
    ASSERT_EQ(to_csv.code, 0) << to_csv.err;
    EXPECT_NE(to_csv.out.find("2000 jobs"), std::string::npos);

    // Binary traces feed every analysis command transparently.
    auto ch = runCli({"characterize", bin_path});
    EXPECT_EQ(ch.code, 0) << ch.err;
    auto ch_csv = runCli({"characterize", path_});
    EXPECT_EQ(ch.out, ch_csv.out);

    std::remove(bin_path.c_str());
    std::remove(back_path.c_str());
}

TEST_F(CliWithTraceTest, ConvertRejectsBadFormatAndMissingArgs)
{
    auto bad_fmt = runCli({"convert", path_, path_ + ".x",
                           "--trace-format", "parquet"});
    EXPECT_EQ(bad_fmt.code, 1);
    EXPECT_NE(bad_fmt.err.find("--trace-format"), std::string::npos);

    auto missing = runCli({"convert", path_});
    EXPECT_EQ(missing.code, 1);
    EXPECT_NE(missing.err.find("convert expects"), std::string::npos);

    auto nofile = runCli({"convert", "/nonexistent.csv", "/tmp/x"});
    EXPECT_EQ(nofile.code, 1);
    EXPECT_NE(nofile.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, GenerateBinaryRequiresOut)
{
    auto r = runCli({"generate", "--jobs", "5", "--trace-format",
                     "bin"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, GenerateBinaryWritesLoadableTrace)
{
    std::string path = testing::TempDir() + "/paichar_cli_bin_" +
                       std::to_string(::getpid()) + ".paib";
    auto w = runCli({"generate", "--jobs", "100", "--seed", "3",
                     "--trace-format", "bin", "--out", path});
    ASSERT_EQ(w.code, 0) << w.err;
    EXPECT_NE(w.out.find("bin"), std::string::npos);
    auto r = runCli({"characterize", path});
    EXPECT_EQ(r.code, 0) << r.err;
    std::remove(path.c_str());
}

TEST_F(CliWithTraceTest, ProjectReportsSpeedups)
{
    auto r = runCli({"project", path_});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("AllReduce-Local"), std::string::npos);
    EXPECT_NE(r.out.find("mean speedup"), std::string::npos);

    auto rc = runCli(
        {"project", path_, "--target", "AllReduce-Cluster"});
    EXPECT_EQ(rc.code, 0);
    EXPECT_NE(rc.out.find("AllReduce-Cluster"), std::string::npos);
}

TEST_F(CliWithTraceTest, ProjectRejectsBadTarget)
{
    auto r = runCli({"project", path_, "--target", "warp"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown architecture"), std::string::npos);
}

TEST_F(CliWithTraceTest, SweepPrintsTableIiiGrid)
{
    auto r = runCli({"sweep", path_});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("Ethernet"), std::string::npos);
    EXPECT_NE(r.out.find("GPU_memory"), std::string::npos);
}

TEST_F(CliWithTraceTest, MissingTraceFileFails)
{
    auto r = runCli({"characterize", "/nonexistent.csv"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, AdviseRecommendsPearlForEmbeddingModel)
{
    auto r = runCli({"advise", "--flops", "3.3e11", "--mem",
                     "2.6e10", "--input", "1.2e6", "--comm", "3e9",
                     "--dense-weights", "2e8", "--embedding-weights",
                     "5.4e10", "--cnodes", "8"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("recommendation: PEARL"), std::string::npos);
}

TEST(CliTest, AdviseRequiresDemands)
{
    auto r = runCli({"advise", "--flops", "1e12"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("requires"), std::string::npos);
}

TEST(CliTest, DiagnoseCaseStudyModel)
{
    auto r = runCli({"diagnose", "resnet50"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("verdict: compute-bound"),
              std::string::npos);
    EXPECT_NE(r.out.find("best measured plan:"), std::string::npos);
}

TEST(CliTest, DiagnoseUnknownModelFails)
{
    auto r = runCli({"diagnose", "alexnet"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown model"), std::string::npos);
}

TEST(CliTest, DiagnoseWithoutModelFails)
{
    auto r = runCli({"diagnose"});
    EXPECT_EQ(r.code, 1);
}

TEST(CliTest, PlanRanksCandidatesAndPicksBest)
{
    auto r = runCli({"plan", "gcn", "--top", "4"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("=== plan: GCN"), std::string::npos);
    EXPECT_NE(r.out.find("default on PEARL"), std::string::npos);
    EXPECT_NE(r.out.find("simulated"), std::string::npos);
    EXPECT_NE(r.out.find("analytical"), std::string::npos);
    EXPECT_NE(r.out.find("best plan:"), std::string::npos);
}

TEST(CliTest, PlanJsonOutputIsWellFormed)
{
    auto r = runCli({"plan", "gcn", "--top", "2", "--format",
                     "json"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out.rfind("{\"model\":\"GCN\"", 0), 0u) << r.out;
    EXPECT_NE(r.out.find("\"evaluator\":\"simulated\""),
              std::string::npos);
    EXPECT_NE(r.out.find("\"best\":\""), std::string::npos);
}

TEST(CliTest, PlanRejectsNonNumericTop)
{
    // --top runs through Args::numFlag: exact existing error shape.
    auto r = runCli({"plan", "gcn", "--top", "many"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("error: flag --top expects a number, "
                         "got 'many'"),
              std::string::npos)
        << r.err;
}

TEST(CliTest, PlanRejectsNonNumericBeam)
{
    auto r = runCli({"plan", "gcn", "--search", "beam", "--beam",
                     "wide"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("error: flag --beam expects a number, "
                         "got 'wide'"),
              std::string::npos)
        << r.err;
}

TEST(CliTest, PlanValidatesFlagDomains)
{
    auto top = runCli({"plan", "gcn", "--top", "-1"});
    EXPECT_EQ(top.code, 1);
    EXPECT_NE(top.err.find("--top expects a non-negative integer"),
              std::string::npos);
    auto beam = runCli({"plan", "gcn", "--beam", "0"});
    EXPECT_EQ(beam.code, 1);
    EXPECT_NE(beam.err.find("--beam expects a positive integer"),
              std::string::npos);
    auto search = runCli({"plan", "gcn", "--search", "dfs"});
    EXPECT_EQ(search.code, 1);
    EXPECT_NE(search.err.find("--search expects exhaustive or beam"),
              std::string::npos);
    auto fmt = runCli({"plan", "gcn", "--format", "yaml"});
    EXPECT_EQ(fmt.code, 1);
    EXPECT_NE(fmt.err.find("--format expects table or json"),
              std::string::npos);
}

TEST(CliTest, PlanPassesFilterRestrictsDimensions)
{
    auto r = runCli({"plan", "gcn", "--passes", "mixed-precision"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("MP on PEARL"), std::string::npos);
    EXPECT_EQ(r.out.find("XLA"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("acc4"), std::string::npos) << r.out;

    auto bad = runCli({"plan", "gcn", "--passes", "loop-unroll"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("unknown pass 'loop-unroll'"),
              std::string::npos);
}

TEST(CliTest, PlanUnknownModelFails)
{
    auto r = runCli({"plan", "vgg"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown model"), std::string::npos);
    auto none = runCli({"plan"});
    EXPECT_EQ(none.code, 1);
    EXPECT_NE(none.err.find("plan expects a model name"),
              std::string::npos);
}

TEST(CliTest, ServeReportsLatencyAndCapacity)
{
    auto r = runCli({"serve", "bert", "--qps", "30", "--max-batch",
                     "4"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("p99"), std::string::npos);
    EXPECT_NE(r.out.find("max QPS"), std::string::npos);
}

TEST(CliTest, ServeUnknownModelFails)
{
    auto r = runCli({"serve", "vgg"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown model"), std::string::npos);
}

TEST(CliTest, ServeFleetFlagsAreHonored)
{
    auto r = runCli({"serve", "resnet50", "--servers", "3",
                     "--routing", "least-queue", "--batching",
                     "continuous", "--arrival", "bursty", "--admit",
                     "32", "--qps", "4000", "--requests", "5000"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("3 servers"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("least-queue"), std::string::npos);
    EXPECT_NE(r.out.find("continuous"), std::string::npos);
    EXPECT_NE(r.out.find("bursty"), std::string::npos);
    EXPECT_NE(r.out.find("admitted"), std::string::npos);
    // Multi-server runs drop the single-server SLO search line.
    EXPECT_EQ(r.out.find("max QPS"), std::string::npos);
}

TEST(CliTest, ServeRejectsUnknownRouting)
{
    auto r = runCli({"serve", "resnet50", "--routing", "random"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--routing"), std::string::npos) << r.err;
}

// Values the fleet layer itself rejects (by throwing) must come back
// as CLI errors, not an uncaught-exception abort.
TEST(CliTest, ServeAndCapacitySurfaceFleetValidationAsErrors)
{
    for (const auto &args : std::vector<std::vector<std::string>>{
             {"serve", "resnet50", "--qps", "0"},
             {"serve", "resnet50", "--max-batch", "0"},
             {"serve", "resnet50", "--requests", "0"},
             {"capacity", "resnet50", "--qps", "3000", "--requests",
              "50"}}) {
        auto r = runCli(args);
        EXPECT_EQ(r.code, 1) << args[0];
        EXPECT_NE(r.err.find("error: "), std::string::npos)
            << args[0] << ": " << r.err;
    }
}

TEST(CliTest, CapacityReportsServersNeeded)
{
    auto r = runCli({"capacity", "resnet50", "--qps", "3000",
                     "--slo-ms", "40", "--requests", "8000"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("servers needed:"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("p99"), std::string::npos);
}

TEST(CliTest, CapacityUnattainableSloSaysSo)
{
    auto r = runCli({"capacity", "resnet50", "--qps", "100",
                     "--slo-ms", "0.0001", "--max-servers", "4",
                     "--requests", "2000"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("not attainable"), std::string::npos)
        << r.out;
}

TEST(CliTest, CapacityExpectsModel)
{
    auto r = runCli({"capacity"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("capacity expects a model name"),
              std::string::npos);
}

TEST_F(CliWithTraceTest, ScheduleReportsQueueingMetrics)
{
    auto r = runCli({"schedule", path_, "--servers", "32",
                     "--nvlink-frac", "0.5", "--port", "1"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("scheduled 2000 jobs"), std::string::npos);
    EXPECT_NE(r.out.find("GPU utilization"), std::string::npos);
    EXPECT_NE(r.out.find("ported jobs"), std::string::npos);
    EXPECT_NE(r.out.find("policy: backfill"), std::string::npos);
}

TEST_F(CliWithTraceTest, ScheduleRejectsUnknownPolicyListingValidSet)
{
    auto r = runCli({"schedule", path_, "--policy", "lottery"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--policy"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("lottery"), std::string::npos) << r.err;
    // The error enumerates every valid choice.
    for (const char *name :
         {"fifo", "backfill", "spf", "spf-preempt", "gang"})
        EXPECT_NE(r.err.find(name), std::string::npos)
            << "missing " << name << " in: " << r.err;
}

TEST_F(CliWithTraceTest, ScheduleRejectsUnknownPredictorAndPlacement)
{
    auto r = runCli({"schedule", path_, "--predictor", "oracle"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--predictor"), std::string::npos) << r.err;
    for (const char *name : {"model", "quantile", "linear", "none"})
        EXPECT_NE(r.err.find(name), std::string::npos)
            << "missing " << name << " in: " << r.err;

    auto p = runCli({"schedule", path_, "--placement", "random"});
    EXPECT_EQ(p.code, 1);
    EXPECT_NE(p.err.find("--placement"), std::string::npos) << p.err;
    EXPECT_NE(p.err.find("best-fit"), std::string::npos) << p.err;
}

TEST_F(CliWithTraceTest, ScheduleRejectsPredictionDrivenWithoutPredictor)
{
    for (const char *policy : {"spf", "spf-preempt", "gang"}) {
        auto r = runCli({"schedule", path_, "--policy", policy,
                         "--predictor", "none"});
        EXPECT_EQ(r.code, 1) << policy;
        EXPECT_NE(r.err.find("prediction-driven"), std::string::npos)
            << policy << ": " << r.err;
    }
    // Plain backfill degrades gracefully to greedy skip-ahead.
    auto ok = runCli({"schedule", path_, "--policy", "backfill",
                      "--predictor", "none"});
    EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST_F(CliWithTraceTest, ScheduleHistoryPredictorsRequireHistory)
{
    for (const char *pred : {"quantile", "linear"}) {
        auto r = runCli({"schedule", path_, "--predictor", pred});
        EXPECT_EQ(r.code, 1) << pred;
        EXPECT_NE(r.err.find("--history"), std::string::npos)
            << pred << ": " << r.err;
    }
    auto bad = runCli({"schedule", path_, "--predictor", "quantile",
                       "--history", "/nonexistent/h.jsonl"});
    EXPECT_EQ(bad.code, 1);
    auto q = runCli({"schedule", path_, "--quantile", "1.5"});
    EXPECT_EQ(q.code, 1);
    EXPECT_NE(q.err.find("--quantile"), std::string::npos) << q.err;
}

TEST_F(CliWithTraceTest, ScheduleRejectsOutOfRangeInputsBeforeWork)
{
    // These used to die on assert() (or run undefined under NDEBUG).
    const std::vector<std::vector<std::string>> bad{
        {"--rate", "0"},        {"--rate", "nan"},
        {"--rate", "-1"},       {"--servers", "0"},
        {"--nvlink-frac", "2"}, {"--nvlink-frac", "nan"}};
    for (const auto &flags : bad) {
        std::vector<std::string> argv{"schedule", path_, "--policy",
                                      "spf"};
        argv.insert(argv.end(), flags.begin(), flags.end());
        auto r = runCli(argv);
        EXPECT_EQ(r.code, 1) << flags[0] << " " << flags[1];
        EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
    // Validation runs before the trace is even read.
    auto r = runCli({"schedule", "/nonexistent/trace.csv", "--rate",
                     "0"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("jobs_per_hour"), std::string::npos) << r.err;
}

TEST_F(CliWithTraceTest, ScheduleCompareFifoReportsDelta)
{
    auto r = runCli({"schedule", path_, "--servers", "24", "--rate",
                     "400", "--policy", "spf", "--compare-fifo",
                     "1"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("vs fifo:"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("policy: spf"), std::string::npos);
}

} // namespace
} // namespace paichar::cli
