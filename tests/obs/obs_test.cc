/**
 * @file
 * Tests for the paichar::obs observability layer: metric registry
 * semantics, span capture and Chrome-trace export, and the CLI
 * --metrics/--profile integration -- including the contract that
 * observability never perturbs stdout, for any thread count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace paichar::obs {
namespace {

/** Re-enables metric recording even when a test fails mid-way. */
struct EnabledGuard
{
    ~EnabledGuard() { setEnabled(true); }
};

TEST(ObsMetricsTest, CounterAccumulatesAndResets)
{
    Counter &c = counter("test.counter_basic");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetricsTest, LookupReturnsTheSameInstance)
{
    Counter &a = counter("test.counter_identity");
    Counter &b = counter("test.counter_identity");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(b.value(), 7u);
}

TEST(ObsMetricsTest, KindMismatchThrows)
{
    counter("test.kind_clash");
    EXPECT_THROW(gauge("test.kind_clash"), std::logic_error);
    EXPECT_THROW(histogram("test.kind_clash"), std::logic_error);
}

TEST(ObsMetricsTest, GaugeTracksLevelAndPeak)
{
    Gauge &g = gauge("test.gauge_basic");
    g.add(3);
    g.add(4);
    g.add(-5);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.peak(), 7);
    g.set(100);
    EXPECT_EQ(g.value(), 100);
    EXPECT_EQ(g.peak(), 100);
    g.reset();
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.peak(), 0);
}

TEST(ObsMetricsTest, HistogramStatsAreExactWhereDocumented)
{
    Histogram &h = histogram("test.hist_basic");
    for (double v : {1.0, 2.0, 3.0, 100.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 106.0);
    EXPECT_DOUBLE_EQ(h.mean(), 26.5);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    // Quantiles are bucketed: the answer is the power-of-two upper
    // bound of the bucket holding the quantile, never below the true
    // value's bucket.
    EXPECT_GE(h.quantile(1.0), 100.0);
    EXPECT_LE(h.quantile(0.0), 1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(ObsMetricsTest, GaugeSetRatchetsPeakButNeverLowersIt)
{
    // set() documents peak-ratchet semantics: the peak follows the
    // highest level ever set, and a later lower set() moves the
    // value without touching the peak.
    Gauge &g = gauge("test.gauge_set_ratchet");
    g.set(10);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.peak(), 10);
    g.set(12);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.peak(), 12);
    // A negative level never drags the peak below zero (peak starts
    // at 0 and only ratchets up).
    g.reset();
    g.set(-4);
    EXPECT_EQ(g.value(), -4);
    EXPECT_EQ(g.peak(), 0);
}

TEST(ObsMetricsTest, GaugeRaiseKeepsTheMaximumInAnyOrder)
{
    // Raises commute: the level ends at the largest value raised, in
    // either order, and a lower raise moves neither level nor peak.
    Gauge &a = gauge("test.gauge_raise_a");
    Gauge &b = gauge("test.gauge_raise_b");
    a.raise(7);
    a.raise(3);
    b.raise(3);
    b.raise(7);
    for (Gauge *g : {&a, &b}) {
        EXPECT_EQ(g->value(), 7);
        EXPECT_EQ(g->peak(), 7);
    }
}

TEST(ObsMetricsTest, EmptyHistogramQuantileIsNaNAndEmptyIsTrue)
{
    Histogram &h = histogram("test.hist_empty_quantile");
    EXPECT_TRUE(h.empty());
    // NaN, not a silent 0.0: callers must check empty() first, and
    // the renderers print '-' for empty histograms.
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
    h.observe(4.0);
    EXPECT_FALSE(h.empty());
    EXPECT_FALSE(std::isnan(h.quantile(0.5)));
    h.reset();
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(ObsMetricsTest, SummaryRendersDashesForEmptyHistograms)
{
    histogram("test.hist_render_empty");
    std::string s = renderMetricsSummary();
    auto pos = s.find("test.hist_render_empty");
    ASSERT_NE(pos, std::string::npos);
    auto line_end = s.find('\n', pos);
    std::string line = s.substr(pos, line_end - pos);
    EXPECT_NE(line.find("count 0"), std::string::npos) << line;
    EXPECT_NE(line.find("mean - p50 - p95 - max -"),
              std::string::npos)
        << line;
}

TEST(ObsMetricsTest, HistogramMaxHandlesNegativeObservations)
{
    Histogram &h = histogram("test.hist_negative");
    h.observe(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.max(), -5.0);
    h.observe(-2.0);
    EXPECT_DOUBLE_EQ(h.max(), -2.0);
}

TEST(ObsMetricsTest, HistogramBucketZeroContract)
{
    // Pins the documented bucket contract: bucket i >= 1 covers
    // (2^(i-1), 2^i], bucket 0 is the catch-all for everything <= 1
    // -- including exact zero, negatives and NaN -- so counts always
    // reconcile with count().
    Histogram &h = histogram("test.hist_bucket_zero");
    h.observe(0.0);
    h.observe(0.5);
    h.observe(1.0); // boundary: 1.0 is *inside* bucket 0
    h.observe(-3.0);
    h.observe(std::nan(""));
    EXPECT_EQ(h.bucketCount(0), 5u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);

    // Anything even slightly above 1 leaves bucket 0 for (1, 2].
    h.observe(1.0000001);
    EXPECT_EQ(h.bucketCount(0), 5u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
    // Upper bucket edges are exact powers of two and inclusive.
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(1), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(10), 1024.0);
    h.observe(2.0);
    EXPECT_EQ(h.bucketCount(1), 2u);
}

TEST(ObsMetricsTest, OpenMetricsRenderFollowsTheFormat)
{
    resetMetrics();
    counter("test.om_counter").add(42);
    Gauge &g = gauge("test.om_gauge");
    g.add(5);
    g.add(-3);
    Histogram &h = histogram("test.om_hist");
    h.observe(0.5);
    h.observe(3.0);
    h.observe(3.5);
    std::string om = renderMetricsOpenMetrics();
    // Names sanitized to [a-zA-Z0-9_:]; counters end in _total.
    EXPECT_NE(om.find("# TYPE test_om_counter counter"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_counter_total 42"), std::string::npos);
    // Gauges carry level and a _peak companion.
    EXPECT_NE(om.find("# TYPE test_om_gauge gauge"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_gauge 2"), std::string::npos);
    EXPECT_NE(om.find("test_om_gauge_peak 5"), std::string::npos);
    // Histogram buckets are cumulative with an +Inf closing bucket.
    EXPECT_NE(om.find("# TYPE test_om_hist histogram"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_hist_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_hist_bucket{le=\"4\"} 3"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_hist_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(om.find("test_om_hist_count 3"), std::string::npos);
    EXPECT_NE(om.find("test_om_hist_sum 7"), std::string::npos);
    // Exposition ends with the mandatory EOF marker.
    EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
}

TEST(ObsSpanTest, ProfileJsonEscapesSpanNames)
{
    const char *name = internName(
        std::string("bad \"quoted\\name\"\twith ctrl\x02 caf\xc3\xa9"));
    startProfiling();
    { Span s(name); }
    stopProfiling();
    std::string json = profileToJson();
    // Golden escaped form of the hostile name, embedded verbatim.
    EXPECT_NE(json.find("\"name\":\"bad \\\"quoted\\\\name\\\"\\t"
                        "with ctrl\\u0002 caf\xc3\xa9\""),
              std::string::npos);
    // No raw control bytes or unescaped quotes survive into the JSON.
    EXPECT_EQ(json.find('\x02'), std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(ObsMetricsTest, DisabledRecordingDropsEverything)
{
    EnabledGuard guard;
    Counter &c = counter("test.disabled_counter");
    Gauge &g = gauge("test.disabled_gauge");
    Histogram &h = histogram("test.disabled_hist");
    setEnabled(false);
    EXPECT_FALSE(enabled());
    c.add(5);
    g.add(5);
    h.observe(5.0);
    setEnabled(true);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetricsTest, ConcurrentCountsAreExact)
{
    Counter &c = counter("test.concurrent_counter");
    Histogram &h = histogram("test.concurrent_hist");
    runtime::ThreadPool pool(8);
    constexpr size_t kIters = 20000;
    runtime::parallelFor(&pool, kIters, [&](size_t i) {
        c.add();
        h.observe(static_cast<double>(i % 16));
    });
    EXPECT_EQ(c.value(), kIters);
    EXPECT_EQ(h.count(), kIters);
}

TEST(ObsMetricsTest, ResetMetricsZeroesTheRegistry)
{
    Counter &c = counter("test.reset_all");
    c.add(9);
    resetMetrics();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetricsTest, SummaryRendersSortedWithValues)
{
    counter("test.zz_summary").add(123);
    gauge("test.aa_summary").set(4);
    std::string s = renderMetricsSummary();
    EXPECT_NE(s.find("# paichar metrics"), std::string::npos);
    auto a = s.find("test.aa_summary");
    auto z = s.find("test.zz_summary");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, z); // name-sorted
    EXPECT_NE(s.find("123"), std::string::npos);
}

TEST(ObsSpanTest, ProfileJsonIsChromeTraceShaped)
{
    startProfiling();
    {
        Span outer("test.span_outer", 42);
        Span inner("test.span_inner");
    }
    stopProfiling();
    std::string json = profileToJson();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("test.span_outer"), std::string::npos);
    EXPECT_NE(json.find("test.span_inner"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":42}"),
              std::string::npos);
    // Deterministic merge order: outer opened first, so it sorts
    // first (earlier start, lower sequence number on ties).
    EXPECT_LT(json.find("test.span_outer"),
              json.find("test.span_inner"));
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(ObsSpanTest, SpansOutsideProfilingAreNotCaptured)
{
    startProfiling();
    stopProfiling();
    { Span s("test.span_after_stop"); }
    EXPECT_EQ(profileToJson().find("test.span_after_stop"),
              std::string::npos);
}

TEST(ObsSpanTest, StartProfilingClearsEarlierSessions)
{
    startProfiling();
    { Span s("test.span_session_one"); }
    stopProfiling();
    startProfiling();
    { Span s("test.span_session_two"); }
    stopProfiling();
    std::string json = profileToJson();
    EXPECT_EQ(json.find("test.span_session_one"), std::string::npos);
    EXPECT_NE(json.find("test.span_session_two"), std::string::npos);
}

TEST(ObsSpanTest, WorkerSpansCarryThreadMetadata)
{
    runtime::ThreadPool pool(2);
    startProfiling();
    runtime::parallelFor(&pool, 64, [](size_t) {
        Span s("test.span_worker");
    });
    stopProfiling();
    std::string json = profileToJson();
    EXPECT_NE(json.find("test.span_worker"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(ObsSpanTest, InternNameIsStableAndDeduplicated)
{
    const char *a = internName(std::string("test.interned"));
    const char *b = internName(std::string("test.interned"));
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "test.interned");
}

} // namespace
} // namespace paichar::obs

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

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/**
 * Value of a counter/gauge line in a rendered metrics summary, or
 * uint64_t(-1) if the metric is missing.
 */
uint64_t
metricValue(const std::string &summary, const std::string &name)
{
    std::istringstream lines(summary);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string kind, metric;
        uint64_t value = 0;
        if (fields >> kind >> metric >> value && metric == name)
            return value;
    }
    return static_cast<uint64_t>(-1);
}

class ObsCliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string base = testing::TempDir() + "/paichar_obs_" +
                           std::to_string(::getpid());
        trace_ = base + ".csv";
        metrics_ = base + ".metrics";
        profile_ = base + ".trace.json";
        auto r = runCli({"generate", "--jobs", "5000", "--seed",
                         "42", "--out", trace_});
        ASSERT_EQ(r.code, 0) << r.err;
    }

    void
    TearDown() override
    {
        std::remove(trace_.c_str());
        std::remove(metrics_.c_str());
        std::remove(profile_.c_str());
    }

    std::string trace_, metrics_, profile_;
};

TEST_F(ObsCliTest, MetricsFileCountersMatchTheRun)
{
    obs::resetMetrics();
    auto r = runCli({"characterize", trace_,
                     "--metrics=" + metrics_});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string summary = readFile(metrics_);
    // Every row the parser consumed is a job in the trace.
    EXPECT_EQ(metricValue(summary, "trace.rows_parsed"), 5000u);
    EXPECT_EQ(metricValue(summary, "core.jobs_evaluated"), 5000u);
    EXPECT_GT(metricValue(summary, "trace.bytes_parsed"), 0u);
}

TEST_F(ObsCliTest, BareMetricsFlagWritesSummaryToStderr)
{
    obs::resetMetrics();
    auto plain = runCli({"characterize", trace_});
    auto flagged = runCli({"characterize", trace_, "--metrics"});
    ASSERT_EQ(flagged.code, 0);
    EXPECT_EQ(plain.out, flagged.out);
    EXPECT_NE(flagged.err.find("# paichar metrics"),
              std::string::npos);
    EXPECT_NE(flagged.err.find("trace.rows_parsed"),
              std::string::npos);
}

TEST_F(ObsCliTest, ProfileEmitsChromeTraceWithExpectedSpans)
{
    auto r = runCli({"characterize", trace_, "--threads", "2",
                     "--profile", profile_});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string json = readFile(profile_);
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // The root command span, the parse phase, the model-evaluation
    // phase and the pool's task spans all show up.
    EXPECT_NE(json.find("cli.characterize"), std::string::npos);
    EXPECT_NE(json.find("trace.parse_csv"), std::string::npos);
    EXPECT_NE(json.find("core.model_breakdowns"),
              std::string::npos);
    EXPECT_NE(json.find("runtime.task"), std::string::npos);
}

TEST_F(ObsCliTest, StdoutIsByteIdenticalAcrossThreadsAndObsFlags)
{
    auto baseline = runCli({"characterize", trace_});
    ASSERT_EQ(baseline.code, 0) << baseline.err;
    for (const char *threads : {"1", "2", "8"}) {
        auto plain =
            runCli({"characterize", trace_, "--threads", threads});
        EXPECT_EQ(plain.code, 0);
        EXPECT_EQ(plain.out, baseline.out) << threads << " threads";

        auto observed = runCli({"characterize", trace_, "--threads",
                                threads, "--profile", profile_,
                                "--metrics=" + metrics_});
        EXPECT_EQ(observed.code, 0);
        EXPECT_EQ(observed.out, baseline.out)
            << threads << " threads with --profile/--metrics";
        EXPECT_EQ(observed.err, "");
    }
}

TEST_F(ObsCliTest, EqualsSyntaxAndPairSyntaxAgree)
{
    auto pair = runCli({"generate", "--jobs", "100", "--seed", "7"});
    auto eq = runCli({"generate", "--jobs=100", "--seed=7"});
    ASSERT_EQ(pair.code, 0);
    ASSERT_EQ(eq.code, 0);
    EXPECT_EQ(pair.out, eq.out);
}

TEST_F(ObsCliTest, EmptyProfilePathIsAUsageError)
{
    auto r = runCli({"characterize", trace_, "--profile="});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--profile"), std::string::npos);
}

TEST_F(ObsCliTest, UnwritableMetricsPathFailsWithStrerror)
{
    // /dev/null is a file, so a path *under* it can never be created:
    // the failure must carry the OS reason, not just "cannot write".
    auto r = runCli({"characterize", trace_,
                     "--metrics=/dev/null/sub/m.txt"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("/dev/null/sub"), std::string::npos);
    EXPECT_NE(r.err.find("Not a directory"), std::string::npos)
        << r.err;
}

TEST_F(ObsCliTest, MetricsWriterCreatesMissingParentDirectories)
{
    std::string dir = testing::TempDir() + "/paichar_obs_mkdir_" +
                      std::to_string(::getpid());
    std::string path = dir + "/nested/deep/m.txt";
    auto r = runCli({"characterize", trace_, "--metrics=" + path});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string summary = readFile(path);
    EXPECT_NE(summary.find("# paichar metrics"), std::string::npos);
    std::remove(path.c_str());
    std::filesystem::remove_all(dir);
}

TEST_F(ObsCliTest, OpenMetricsFormatIsSelectable)
{
    obs::resetMetrics();
    auto r = runCli({"characterize", trace_, "--metrics=" + metrics_,
                     "--metrics-format", "openmetrics"});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string om = readFile(metrics_);
    EXPECT_NE(om.find("# TYPE trace_rows_parsed counter"),
              std::string::npos);
    EXPECT_NE(om.find("trace_rows_parsed_total 5000"),
              std::string::npos);
    EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");

    auto bad = runCli({"characterize", trace_,
                       "--metrics-format", "yaml"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("--metrics-format"), std::string::npos);
}

TEST(ObsCliThreadsTest, SimTimeGaugeIsTheSameAtEveryThreadCount)
{
    // diagnose runs the planner, which drains its candidates'
    // simulations in parallel. Each drain raises sim.time_us to its
    // own end, so the gauge reads the latest end at every thread
    // count, not whichever drain happened to finish last.
    std::string metrics = testing::TempDir() + "/paichar_obs_simtime_" +
                          std::to_string(::getpid()) + ".metrics";
    for (const char *model : {"bert", "nmt"}) {
        std::vector<uint64_t> seen;
        for (const char *threads : {"1", "4", "4", "4", "4", "4", "4"}) {
            obs::resetMetrics();
            auto r = runCli({"diagnose", model, "--threads", threads,
                             "--metrics=" + metrics});
            ASSERT_EQ(r.code, 0) << r.err;
            seen.push_back(metricValue(readFile(metrics), "sim.time_us"));
        }
        EXPECT_NE(seen[0], static_cast<uint64_t>(-1)) << model;
        for (size_t i = 1; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], seen[0]) << model << " run " << i;
    }
    std::remove(metrics.c_str());
}

/**
 * CLI fixture for the job-telemetry flags and the `obs` analysis
 * family, on a trace small enough to schedule quickly.
 */
class JobLogCliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = testing::TempDir() + "/paichar_joblog_" +
                std::to_string(::getpid());
        trace_ = base_ + ".csv";
        auto r = runCli({"generate", "--jobs", "60", "--seed",
                         "20180801", "--out", trace_});
        ASSERT_EQ(r.code, 0) << r.err;
    }

    void
    TearDown() override
    {
        std::remove(trace_.c_str());
        for (const std::string &f : cleanup_)
            std::remove(f.c_str());
    }

    std::string
    path(const std::string &suffix)
    {
        std::string p = base_ + suffix;
        cleanup_.push_back(p);
        return p;
    }

    CliResult
    schedule(std::vector<std::string> extra)
    {
        std::vector<std::string> args{"schedule", trace_, "--servers",
                                      "16", "--rate", "400"};
        args.insert(args.end(), extra.begin(), extra.end());
        return runCli(args);
    }

    std::string base_, trace_;
    std::vector<std::string> cleanup_;
};

TEST_F(JobLogCliTest, JobLogEmitsOneSchemaRecordPerJob)
{
    std::string log = path(".jsonl");
    auto r = schedule({"--job-log", log});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string text = readFile(log);
    size_t lines = 0, schemas = 0;
    for (size_t pos = 0;
         (pos = text.find('\n', pos)) != std::string::npos; ++pos)
        ++lines;
    for (size_t pos = 0;
         (pos = text.find("\"schema\":\"paichar.job.v1\"", pos)) !=
         std::string::npos;
         ++pos)
        ++schemas;
    EXPECT_EQ(lines, 60u);
    EXPECT_EQ(schemas, 60u);
    EXPECT_NE(text.find("\"source\":\"clustersim\""),
              std::string::npos);
    EXPECT_NE(text.find("\"pred_step_s\":"), std::string::npos);
    EXPECT_NE(text.find("\"sim_step_s\":"), std::string::npos);
}

TEST_F(JobLogCliTest, JobLogIsByteIdenticalAcrossThreadCounts)
{
    std::string log1 = path(".t1.jsonl");
    std::string log8 = path(".t8.jsonl");
    auto r1 = schedule({"--threads", "1", "--job-log", log1});
    auto r8 = schedule({"--threads", "8", "--job-log", log8});
    ASSERT_EQ(r1.code, 0) << r1.err;
    ASSERT_EQ(r8.code, 0) << r8.err;
    EXPECT_EQ(readFile(log1), readFile(log8));
}

TEST_F(JobLogCliTest, StdoutUnchangedByJobTelemetryFlags)
{
    auto plain = schedule({});
    ASSERT_EQ(plain.code, 0) << plain.err;
    auto flagged = schedule({"--job-log", path(".jsonl"),
                             "--job-trace", path(".trace.json")});
    ASSERT_EQ(flagged.code, 0) << flagged.err;
    EXPECT_EQ(flagged.out, plain.out);
    EXPECT_EQ(flagged.err, "");
}

TEST_F(JobLogCliTest, JobTraceIsChromeTraceShaped)
{
    std::string trace_json = path(".trace.json");
    auto r = schedule({"--job-trace", trace_json});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string json = readFile(trace_json);
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("server-"), std::string::npos);
    EXPECT_NE(json.find("phase.Tc"), std::string::npos);
}

TEST_F(JobLogCliTest, ObsReportAndTopReadTheLogBack)
{
    std::string log = path(".jsonl");
    ASSERT_EQ(schedule({"--job-log", log}).code, 0);

    auto report = runCli({"obs", "report", log});
    ASSERT_EQ(report.code, 0) << report.err;
    EXPECT_NE(report.out.find("# paichar obs report (job log)"),
              std::string::npos);
    EXPECT_NE(report.out.find("jobs 60"), std::string::npos);
    EXPECT_NE(report.out.find("phase shares (mean):"),
              std::string::npos);

    auto top = runCli({"obs", "top", log, "--limit", "5"});
    ASSERT_EQ(top.code, 0) << top.err;
    EXPECT_NE(top.out.find("# paichar obs top (5 slowest jobs"),
              std::string::npos);
    EXPECT_NE(top.out.find("phase totals:"), std::string::npos);

    // top requires a job log, not a metrics dump.
    std::string metrics = path(".metrics");
    ASSERT_EQ(schedule({"--metrics=" + metrics}).code, 0);
    auto bad = runCli({"obs", "top", metrics});
    EXPECT_EQ(bad.code, 1);
}

TEST_F(JobLogCliTest, ObsDiffGatesOnToleranceWithExitTwo)
{
    std::string log_a = path(".a.jsonl");
    std::string log_b = path(".b.jsonl");
    ASSERT_EQ(schedule({"--job-log", log_a}).code, 0);
    ASSERT_EQ(schedule({"--job-log", log_b}).code, 0);

    // Identical runs diff clean at any tolerance.
    auto clean = runCli({"obs", "diff", log_a, log_b,
                         "--tolerance", "0.1"});
    EXPECT_EQ(clean.code, 0) << clean.out;
    EXPECT_NE(clean.out.find("within tolerance"), std::string::npos);

    // A run under observable congestion (fewer servers) moves the
    // queueing scalars far past a tight gate: exit 2, not 1.
    std::string log_c = path(".c.jsonl");
    auto r = runCli({"schedule", trace_, "--servers", "4", "--rate",
                     "400", "--job-log", log_c});
    ASSERT_EQ(r.code, 0) << r.err;
    auto gate = runCli({"obs", "diff", log_a, log_c,
                        "--tolerance", "0.5"});
    EXPECT_EQ(gate.code, 2) << gate.out;
    EXPECT_NE(gate.out.find("REGRESSION:"), std::string::npos);
    EXPECT_NE(gate.out.find("VIOLATION"), std::string::npos);

    // Usage errors stay exit 1, distinct from the regression signal.
    EXPECT_EQ(runCli({"obs", "diff", log_a}).code, 1);
    EXPECT_EQ(runCli({"obs", "diff", log_a, log_b, "--tolerance",
                      "-5"})
                  .code,
              1);
    EXPECT_EQ(runCli({"obs", "report", base_ + ".missing"}).code, 1);
}

TEST_F(JobLogCliTest, DiagnoseRecordsTestbedJobsWithSkew)
{
    std::string log = path(".diag.jsonl");
    auto r = runCli({"diagnose", "resnet50", "--job-log", log});
    ASSERT_EQ(r.code, 0) << r.err;
    std::string text = readFile(log);
    EXPECT_NE(text.find("\"source\":\"testbed\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"ResNet50\""),
              std::string::npos);
    // The testbed measures, the model predicts: skew is a real
    // nonzero recorded quantity here.
    EXPECT_NE(text.find("\"skew_pct\":"), std::string::npos);
    EXPECT_EQ(text.find("\"skew_pct\":0,"), std::string::npos);
    EXPECT_EQ(text.find("\"skew_pct\":0\n"), std::string::npos);
}

} // namespace
} // namespace paichar::cli
