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

TEST(CliTest, GenerateRejectsNonPositiveOrFractionalJobCount)
{
    for (const char *jobs : {"-5", "0", "2.5", "inf", "nan", "1e300"}) {
        auto r = runCli({"generate", "--jobs", jobs});
        EXPECT_EQ(r.code, 1) << jobs;
        EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << jobs << ": " << r.err;
        EXPECT_NE(r.err.find("--jobs"), std::string::npos) << jobs;
        EXPECT_TRUE(r.out.empty()) << jobs;
    }

    // Nothing is generated: no output file appears.
    std::string path = ::testing::TempDir() + "paichar_cli_neg_jobs.paib";
    std::remove(path.c_str());
    auto r = runCli({"generate", "--jobs", "-5", "--out", path});
    EXPECT_EQ(r.code, 1);
    EXPECT_TRUE(r.out.empty());
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
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

TEST(CliTest, ConvertRejectsCountsAboveInt32)
{
    // paib stores num_cnodes and num_ps as int32; a wider CSV value
    // used to wrap on the way in and come out of convert altered.
    std::string dir = testing::TempDir() + "/paichar_cli_wide_" +
                      std::to_string(::getpid());
    const std::string header =
        "id,arch,num_cnodes,num_ps,batch_size,flop_count,"
        "mem_access_bytes,input_bytes,comm_bytes,embedding_comm_bytes,"
        "dense_weight_bytes,embedding_weight_bytes\n";
    struct Case
    {
        const char *row;
        const char *error;
    };
    for (Case c : {Case{"0,PS/Worker,2147483648,1,32,1,1,1,0,0,10,0",
                        "error: line 2: bad num_cnodes '2147483648'\n"},
                   Case{"0,PS/Worker,4294967297,1,32,1,1,1,0,0,10,0",
                        "error: line 2: bad num_cnodes '4294967297'\n"},
                   Case{"0,PS/Worker,2,4294967296,32,1,1,1,0,0,10,0",
                        "error: line 2: bad num_ps '4294967296'\n"}}) {
        std::string in = dir + ".csv", out = dir + ".paib";
        std::FILE *f = std::fopen(in.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs((header + c.row + "\n").c_str(), f);
        std::fclose(f);
        std::remove(out.c_str());
        auto r = runCli({"convert", in, out});
        EXPECT_EQ(r.code, 1);
        EXPECT_EQ(r.err, c.error);
        EXPECT_TRUE(r.out.empty());
        EXPECT_NE(::access(out.c_str(), F_OK), 0)
            << "convert wrote " << out;
        std::remove(in.c_str());
    }
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

// A bad SLO is a usage error caught before any simulation runs, so
// nothing reaches stdout.
TEST(CliTest, ServeRejectsNonPositiveSloBeforeSimulating)
{
    for (const char *slo : {"-1", "0", "nan", "inf"}) {
        auto r = runCli({"serve", "bert", "--slo-ms", slo});
        EXPECT_EQ(r.code, 1) << slo;
        EXPECT_NE(r.err.find("error: flag --slo-ms"), std::string::npos)
            << slo << ": " << r.err;
        EXPECT_TRUE(r.out.empty()) << slo << ": " << r.out;
    }
    auto r = runCli({"capacity", "bert", "--slo-ms", "-1"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("error: flag --slo-ms"), std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(CliTest, RemovedShardsFlagIsRejected)
{
    auto r = runCli({"generate", "--jobs", "5", "--shards", "1"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("error: --shards was removed: the event "
                         "engine is a single queue"),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
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

// The table rejects what it does not know before any trace is read or
// any stdout is written; these typos used to run silently.
TEST_F(CliWithTraceTest, UnknownFlagsFailBeforeWork)
{
    auto r = runCli({"schedule", path_, "--polcy", "spf"});
    EXPECT_EQ(r.code, 1);
    EXPECT_EQ(r.err.rfind("error: unknown flag --polcy for schedule", 0),
              0u)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;

    auto t = runCli({"characterize", path_, "--thread", "4"});
    EXPECT_EQ(t.code, 1);
    EXPECT_NE(t.err.find("unknown flag --thread"), std::string::npos)
        << t.err;
    EXPECT_TRUE(t.out.empty());

    auto extra = runCli({"characterize", path_, path_});
    EXPECT_EQ(extra.code, 1);
    EXPECT_NE(extra.err.find("characterize expects a trace file"),
              std::string::npos)
        << extra.err;
}

TEST(CliTest, CommandHelpListsItsFlags)
{
    auto r = runCli({"schedule", "--help"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_TRUE(r.err.empty()) << r.err;
    EXPECT_EQ(r.out.rfind("usage: paichar schedule TRACE", 0), 0u)
        << r.out;
    for (const char *flag : {"--policy", "--predictor", "--compare-fifo"})
        EXPECT_NE(r.out.find(flag), std::string::npos) << flag;

    auto tl = runCli({"obs", "timeline", "diff", "--help"});
    EXPECT_EQ(tl.code, 0);
    EXPECT_NE(tl.out.find("--tolerance"), std::string::npos) << tl.out;

    // The top-level usage lists every command and the global flags.
    auto top = runCli({"--help"});
    for (const char *text : {"capacity MODEL", "obs timeline TIMELINE",
                             "--threads N", "--metrics[=FILE]"})
        EXPECT_NE(top.out.find(text), std::string::npos) << text;
}

// Each of these used to reach an assert (SIGABRT) or an undefined
// double-to-int cast; now the flag table rejects it before any work.
TEST(CliTest, OutOfRangeFlagsFailBeforeWork)
{
    const std::vector<std::string> advise{
        "advise", "--flops", "1e12", "--mem", "1e9", "--input", "1e6",
        "--comm", "1e8"};
    std::vector<std::vector<std::string>> bad;
    for (const char *v : {"0", "-1", "nan", "1e10"})
        bad.push_back({"--cnodes", v});
    for (const char *v : {"0", "nan"})
        bad.push_back({"--gpu-mem", v});
    for (auto flags : bad) {
        auto argv = advise;
        argv.insert(argv.end(), flags.begin(), flags.end());
        auto r = runCli(argv);
        EXPECT_EQ(r.code, 1) << flags[0] << " " << flags[1];
        EXPECT_EQ(r.err.rfind("error: flag " + flags[0], 0), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
    for (const auto &argv : std::vector<std::vector<std::string>>{
             {"plan", "gcn", "--beam", "1e10"},
             {"plan", "gcn", "--gpu-mem", "nan"},
             {"serve", "bert", "--requests", "1e30"},
             {"capacity", "bert", "--max-servers", "0"},
             {"generate", "--jobs", "5", "--seed", "-1"},
             {"generate", "--jobs", "5", "--threads", "1.5"},
             {"obs", "top", "x.jsonl", "--limit", "2.5"}}) {
        auto r = runCli(argv);
        EXPECT_EQ(r.code, 1) << argv[2];
        EXPECT_EQ(r.err.rfind("error: flag ", 0), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << argv[0] << ": " << r.out;
    }
}

TEST_F(CliWithTraceTest, BinaryFlagsTakeOnlyZeroOrOne)
{
    for (const char *flag : {"--port", "--compare-fifo"}) {
        auto r = runCli({"schedule", path_, flag, "2"});
        EXPECT_EQ(r.code, 1) << flag;
        EXPECT_NE(r.err.find("up to 1"), std::string::npos) << r.err;
        EXPECT_TRUE(r.out.empty());
    }
}

TEST(CliTest, IntFlagsAcceptAnyWholeNumberSpelling)
{
    auto plain = runCli({"generate", "--jobs", "10", "--seed", "5"});
    auto sci = runCli({"generate", "--jobs", "1e1", "--seed", "5.0"});
    ASSERT_EQ(plain.code, 0) << plain.err;
    ASSERT_EQ(sci.code, 0) << sci.err;
    EXPECT_EQ(plain.out, sci.out);
}

// Budgets no plan or architecture fits in, and sizes no vector can
// hold, depend on the model, so they surface from the libraries as
// errors (exit 1) rather than from the table; none may abort.
TEST(CliTest, DataDependentLimitsAreErrorsNotSignals)
{
    auto advise = runCli({"advise", "--flops", "1e12", "--mem", "1e9",
                          "--input", "1e6", "--comm", "1e8",
                          "--gpu-mem", "2.5"});
    EXPECT_EQ(advise.code, 1);
    EXPECT_NE(advise.err.find("error: ArchitectureAdvisor: no "
                              "architecture fits"),
              std::string::npos)
        << advise.err;

    for (const char *mem : {"2.5", "1e9"}) {
        for (const char *search : {"exhaustive", "beam"}) {
            auto r = runCli({"plan", "gcn", "--gpu-mem", mem, "--search",
                             search});
            EXPECT_EQ(r.code, 1) << mem << " " << search;
            EXPECT_NE(r.err.find("baseline does not fit"),
                      std::string::npos)
                << r.err;
            EXPECT_TRUE(r.out.empty()) << r.out;
        }
    }

    // Larger than any vector: the fleet's reserve() throws
    // length_error without allocating.
    auto serve = runCli({"serve", "bert", "--requests", "1e18"});
    EXPECT_EQ(serve.code, 1);
    EXPECT_EQ(serve.err.rfind("error: ", 0), 0u) << serve.err;
}

} // namespace
} // namespace paichar::cli
