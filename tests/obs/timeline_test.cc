/**
 * @file
 * Tests for the sim-time timeline telemetry layer: window semantics
 * (half-open, boundary events belong to the next window), the three
 * probe kinds, the process-wide lifecycle, CSV/JSON export and
 * round-trip, the `obs timeline` report/scalars, and the CLI
 * --timeline integration.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "obs/analyze.h"
#include "obs/timeline.h"

namespace paichar::obs {
namespace {

std::vector<TimelineRow>
rowsFor(const Timeline &tl, const std::string &series)
{
    std::vector<TimelineRow> out;
    for (const TimelineRow &r : tl.rows()) {
        if (r.series == series)
            out.push_back(r);
    }
    return out;
}

TEST(TimelineTest, IntervalMustBePositiveAndFinite)
{
    EXPECT_THROW(Timeline(0.0), std::invalid_argument);
    EXPECT_THROW(Timeline(-1.0), std::invalid_argument);
    EXPECT_THROW(Timeline(std::nan("")), std::invalid_argument);
    EXPECT_THROW(
        Timeline(std::numeric_limits<double>::infinity()),
        std::invalid_argument);
    EXPECT_NO_THROW(Timeline(0.25));
}

TEST(TimelineTest, KindMismatchThrowsLogicError)
{
    Timeline tl(1.0);
    tl.level("probe");
    EXPECT_THROW(tl.rate("probe"), std::logic_error);
    EXPECT_THROW(tl.quantile("probe"), std::logic_error);
    // Same-kind lookup returns the identical probe.
    EXPECT_EQ(&tl.level("probe"), &tl.level("probe"));
}

TEST(TimelineTest, EmptyRunEmitsNoRows)
{
    Timeline tl(10.0);
    tl.finalize();
    EXPECT_TRUE(tl.rows().empty());
    // Finalize is idempotent.
    tl.finalize();
    EXPECT_TRUE(tl.rows().empty());
}

TEST(TimelineTest, RateEmitsPerWindowDeltasIncludingZeros)
{
    Timeline tl(10.0);
    Timeline::Rate &r = tl.rate("events");
    tl.advanceTo(1.0);
    r.add(3.0);
    tl.advanceTo(12.0); // closes [0,10)
    r.add(2.0);
    tl.advanceTo(35.0); // closes [10,20) and [20,30)
    r.add(1.0);
    tl.finalize();

    auto rows = rowsFor(tl, "events");
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_DOUBLE_EQ(rows[0].end_s, 10.0);
    EXPECT_DOUBLE_EQ(rows[0].value, 3.0);
    EXPECT_DOUBLE_EQ(rows[1].end_s, 20.0);
    EXPECT_DOUBLE_EQ(rows[1].value, 2.0);
    // The empty middle window still emits (a zero rate is data).
    EXPECT_DOUBLE_EQ(rows[2].end_s, 30.0);
    EXPECT_DOUBLE_EQ(rows[2].value, 0.0);
    EXPECT_DOUBLE_EQ(rows[3].end_s, 40.0);
    EXPECT_DOUBLE_EQ(rows[3].value, 1.0);
}

TEST(TimelineTest, BoundaryEventBelongsToTheNextWindow)
{
    Timeline tl(10.0);
    Timeline::Rate &r = tl.rate("events");
    // An event at exactly t = 10 closes [0,10) first: the add lands
    // in [10,20).
    tl.advanceTo(10.0);
    r.add();
    tl.finalize();

    auto rows = rowsFor(tl, "events");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].end_s, 10.0);
    EXPECT_DOUBLE_EQ(rows[0].value, 0.0);
    EXPECT_DOUBLE_EQ(rows[1].end_s, 20.0);
    EXPECT_DOUBLE_EQ(rows[1].value, 1.0);
}

TEST(TimelineTest, LevelIsLastSetWinsAndEmitsFromFirstSet)
{
    Timeline tl(10.0);
    Timeline::Level &l = tl.level("depth");
    // Window [0,10) never sees a set: no row for it.
    tl.advanceTo(12.0);
    l.set(4.0);
    l.set(7.0); // last set before the close wins
    tl.advanceTo(25.0);
    tl.finalize();

    auto rows = rowsFor(tl, "depth");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[0].end_s, 20.0);
    EXPECT_DOUBLE_EQ(rows[0].value, 7.0);
    // Piecewise-constant: the level persists into later windows.
    EXPECT_DOUBLE_EQ(rows[1].end_s, 30.0);
    EXPECT_DOUBLE_EQ(rows[1].value, 7.0);
}

TEST(TimelineTest, QuantileEmitsCountAlwaysPercentilesWhenNonEmpty)
{
    Timeline tl(10.0);
    Timeline::Quantile &q = tl.quantile("lat");
    tl.advanceTo(1.0);
    for (int i = 1; i <= 100; ++i)
        q.observe(static_cast<double>(i));
    tl.advanceTo(25.0);
    tl.finalize();

    auto counts = rowsFor(tl, "lat.count");
    auto p50 = rowsFor(tl, "lat.p50");
    auto p99 = rowsFor(tl, "lat.p99");
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_DOUBLE_EQ(counts[0].value, 100.0);
    EXPECT_DOUBLE_EQ(counts[1].value, 0.0);
    EXPECT_DOUBLE_EQ(counts[2].value, 0.0);
    // Percentile rows exist only for the window that saw samples --
    // an empty window has no quantile, and NaN never reaches the
    // export layer.
    ASSERT_EQ(p50.size(), 1u);
    EXPECT_DOUBLE_EQ(p50[0].value, 50.0);
    ASSERT_EQ(p99.size(), 1u);
    EXPECT_DOUBLE_EQ(p99[0].value, 99.0);
}

TEST(TimelineTest, FinalizeFlushesThePartialTrailingWindow)
{
    Timeline tl(10.0);
    Timeline::Rate &r = tl.rate("events");
    tl.advanceTo(3.0);
    r.add(5.0);
    tl.finalize(); // time never reached 10, but the add must land

    auto rows = rowsFor(tl, "events");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_DOUBLE_EQ(rows[0].end_s, 10.0);
    EXPECT_DOUBLE_EQ(rows[0].value, 5.0);
}

TEST(TimelineTest, AdvanceToIsMonotone)
{
    Timeline tl(10.0);
    Timeline::Rate &r = tl.rate("events");
    tl.advanceTo(15.0);
    // Going backwards is ignored, not an error (a caller may
    // re-announce an already-passed horizon).
    tl.advanceTo(5.0);
    r.add();
    tl.finalize();
    auto rows = rowsFor(tl, "events");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[1].end_s, 20.0);
    EXPECT_DOUBLE_EQ(rows[1].value, 1.0);
}

TEST(TimelineTest, NearestRankQuantile)
{
    EXPECT_TRUE(std::isnan(nearestRankQuantile({}, 0.5)));
    EXPECT_DOUBLE_EQ(nearestRankQuantile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(nearestRankQuantile({7.0}, 1.0), 7.0);
    // Unsorted input; nearest-rank on n=4: p50 -> rank 2.
    EXPECT_DOUBLE_EQ(
        nearestRankQuantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(
        nearestRankQuantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
    // q is clamped.
    EXPECT_DOUBLE_EQ(nearestRankQuantile({1.0, 2.0}, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(nearestRankQuantile({1.0, 2.0}, -1.0), 1.0);
}

TEST(TimelineTest, CsvRoundTripsThroughLoadTimelineCsv)
{
    Timeline tl(5.0);
    Timeline::Rate &r = tl.rate("a.rate");
    Timeline::Level &l = tl.level("b.level");
    tl.advanceTo(1.0);
    r.add(2.5);
    l.set(3.0);
    tl.advanceTo(11.0);
    r.add(1.0);
    tl.finalize();

    std::string csv = tl.renderCsv();
    EXPECT_NE(csv.find("# paichar timeline v1 interval_s 5"),
              std::string::npos);
    TimelineData data = loadTimelineCsv(csv);
    ASSERT_TRUE(data.ok) << data.error;
    EXPECT_DOUBLE_EQ(data.interval_s, 5.0);
    ASSERT_EQ(data.series.count("a.rate"), 1u);
    ASSERT_EQ(data.series.count("b.level"), 1u);
    const auto &rate_pts = data.series.at("a.rate");
    ASSERT_EQ(rate_pts.size(), 3u);
    EXPECT_DOUBLE_EQ(rate_pts[0].first, 5.0);
    EXPECT_DOUBLE_EQ(rate_pts[0].second, 2.5);
    EXPECT_DOUBLE_EQ(rate_pts[2].first, 15.0);
    EXPECT_DOUBLE_EQ(rate_pts[2].second, 1.0);
}

TEST(TimelineTest, LoadTimelineCsvRejectsMalformedInput)
{
    EXPECT_FALSE(loadTimelineCsv("").ok);
    EXPECT_FALSE(loadTimelineCsv("not a timeline\n").ok);
    // Magic but no header.
    EXPECT_FALSE(
        loadTimelineCsv("# paichar timeline v1 interval_s 5\n").ok);
    // Bad value field, with a line number in the error.
    TimelineData bad = loadTimelineCsv(
        "# paichar timeline v1 interval_s 5\n"
        "end_s,series,value\n"
        "5,a,xyz\n");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("line 3"), std::string::npos)
        << bad.error;
}

TEST(TimelineTest, JsonExportCarriesSchemaAndSeries)
{
    Timeline tl(5.0);
    tl.rate("x");
    tl.advanceTo(6.0);
    tl.rate("x").add(2.0);
    tl.finalize();
    std::string json = tl.renderJson();
    EXPECT_NE(json.find("\"schema\":\"paichar.timeline.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"interval_s\":5"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"x\""), std::string::npos);
}

TEST(TimelineTest, ReportAndScalars)
{
    Timeline tl(5.0);
    Timeline::Rate &r = tl.rate("jobs");
    tl.advanceTo(1.0);
    r.add(4.0);
    tl.advanceTo(6.0);
    r.add(8.0);
    tl.finalize();

    TimelineData data = loadTimelineCsv(tl.renderCsv());
    ASSERT_TRUE(data.ok);
    std::string report = renderTimelineReport(data);
    EXPECT_NE(report.find("jobs"), std::string::npos);
    EXPECT_NE(report.find("spark"), std::string::npos);

    RunData scalars = timelineScalars(data);
    EXPECT_EQ(scalars.kind, RunData::Kind::Metrics);
    EXPECT_DOUBLE_EQ(scalars.scalars.at("jobs.mean"), 6.0);
    EXPECT_DOUBLE_EQ(scalars.scalars.at("jobs.max"), 8.0);
    EXPECT_DOUBLE_EQ(scalars.scalars.at("jobs.last"), 8.0);
    EXPECT_DOUBLE_EQ(scalars.scalars.at("jobs.rows"), 2.0);
}

TEST(TimelineLifecycleTest, StartStopAndSuspend)
{
    EXPECT_FALSE(timelineActive());
    uint64_t gen_before = timelineGeneration();
    startTimeline(10.0);
    EXPECT_TRUE(timelineActive());
    EXPECT_GT(timelineGeneration(), gen_before);
    ASSERT_NE(timeline(), nullptr);
    {
        TimelineSuspend suspend;
        EXPECT_FALSE(timelineActive());
        // Nested suspension restores to the suspended state.
        {
            TimelineSuspend inner;
            EXPECT_FALSE(timelineActive());
        }
        EXPECT_FALSE(timelineActive());
    }
    EXPECT_TRUE(timelineActive());

    timeline()->advanceTo(1.0);
    timeline()->rate("lifecycle.r").add();
    stopTimeline();
    EXPECT_FALSE(timelineActive());
    // The finalized timeline stays readable after stop.
    ASSERT_NE(timeline(), nullptr);
    EXPECT_FALSE(timeline()->rows().empty());
    EXPECT_FALSE(renderTimelineCsv().empty());
    EXPECT_FALSE(renderTimelineJson().empty());

    startTimeline(5.0); // a restart discards the old rows
    EXPECT_TRUE(timeline()->rows().empty());
    stopTimeline();
}

TEST(TimelineLifecycleTest, StartTimelineValidatesInterval)
{
    EXPECT_THROW(startTimeline(0.0), std::invalid_argument);
    EXPECT_THROW(startTimeline(-5.0), std::invalid_argument);
    // A failed start must not activate recording.
    EXPECT_FALSE(timelineActive());
}

// ---------------------------------------------------------------------------
// CLI integration
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string
readAll(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    return std::move(buf).str();
}

struct ScratchDir
{
    fs::path dir;
    ScratchDir()
    {
        dir = fs::temp_directory_path() /
              ("paichar_tl_test_" + std::to_string(::getpid()));
        fs::create_directories(dir);
    }
    ~ScratchDir() { fs::remove_all(dir); }
};

TEST(TimelineCliTest, ServeWritesTimelineAndObsTimelineReads)
{
    ScratchDir scratch;
    fs::path csv = scratch.dir / "tl.csv";

    std::ostringstream out, err;
    int code = cli::run({"serve", "resnet50", "--requests", "2000",
                         "--qps", "800", "--timeline", csv.string(),
                         "--timeline-interval", "1"},
                        out, err);
    ASSERT_EQ(code, 0) << err.str();
    std::string text = readAll(csv);
    EXPECT_NE(text.find("# paichar timeline v1 interval_s 1"),
              std::string::npos);
    EXPECT_NE(text.find("inference.fleet.latency_us.p99"),
              std::string::npos);

    // The report verb reads it back and renders stats + sparkline.
    std::ostringstream rout, rerr;
    code = cli::run({"obs", "timeline", csv.string()}, rout, rerr);
    EXPECT_EQ(code, 0) << rerr.str();
    EXPECT_NE(rout.str().find("inference.fleet.arrivals"),
              std::string::npos);

    // --plot renders a full-size series plot.
    std::ostringstream pout, perr;
    code = cli::run({"obs", "timeline", csv.string(), "--plot",
                     "inference.fleet.arrivals"},
                    pout, perr);
    EXPECT_EQ(code, 0) << perr.str();
    EXPECT_NE(pout.str().find("[window end, seconds]"),
              std::string::npos);

    // An unknown series is an error.
    std::ostringstream uout, uerr;
    code = cli::run({"obs", "timeline", csv.string(), "--plot",
                     "no.such.series"},
                    uout, uerr);
    EXPECT_EQ(code, 1);
}

// diagnose drains the testbed's event queue to completion while the
// timeline records, then runs the planner, whose simulations on pool
// workers stay out of the timeline. Same rows at every thread count.
TEST(TimelineCliTest, DiagnoseRecordsTestbedEventsAtAnyThreadCount)
{
    ScratchDir scratch;
    std::string first;
    for (const char *threads : {"1", "4"}) {
        fs::path csv = scratch.dir / (std::string("tl") + threads);
        std::ostringstream out, err;
        int code = cli::run({"diagnose", "resnet50", "--threads",
                             threads, "--timeline", csv.string(),
                             "--timeline-interval", "0.05"},
                            out, err);
        ASSERT_EQ(code, 0) << err.str();
        std::string text = readAll(csv);
        EXPECT_NE(text.find(",sim.events,"), std::string::npos) << text;
        if (first.empty())
            first = text;
        else
            EXPECT_EQ(text, first) << "--threads " << threads;
    }
}

TEST(TimelineCliTest, TimelineDiffExitsTwoOnRegression)
{
    ScratchDir scratch;
    fs::path a = scratch.dir / "a.csv";
    fs::path b = scratch.dir / "b.csv";
    std::ofstream(a) << "# paichar timeline v1 interval_s 5\n"
                        "end_s,series,value\n"
                        "5,s,10\n10,s,10\n";
    std::ofstream(b) << "# paichar timeline v1 interval_s 5\n"
                        "end_s,series,value\n"
                        "5,s,10\n10,s,20\n";

    std::ostringstream out1, err1;
    int same = cli::run(
        {"obs", "timeline", "diff", a.string(), a.string()}, out1,
        err1);
    EXPECT_EQ(same, 0) << err1.str();

    std::ostringstream out2, err2;
    int worse = cli::run({"obs", "timeline", "diff", a.string(),
                          b.string(), "--tolerance", "5"},
                         out2, err2);
    EXPECT_EQ(worse, 2) << out2.str();
}

TEST(TimelineCliTest, BadIntervalFlagFailsCleanly)
{
    ScratchDir scratch;
    fs::path csv = scratch.dir / "tl.csv";
    std::ostringstream out, err;
    int code = cli::run({"serve", "resnet50", "--requests", "100",
                         "--timeline", csv.string(),
                         "--timeline-interval", "0"},
                        out, err);
    EXPECT_EQ(code, 1);
    EXPECT_NE(err.str().find("interval"), std::string::npos)
        << err.str();
    EXPECT_FALSE(fs::exists(csv));
}

TEST(TimelineCliTest, JsonExtensionSelectsJsonFormat)
{
    ScratchDir scratch;
    fs::path json = scratch.dir / "tl.json";
    std::ostringstream out, err;
    int code = cli::run({"serve", "resnet50", "--requests", "500",
                         "--timeline", json.string()},
                        out, err);
    ASSERT_EQ(code, 0) << err.str();
    EXPECT_NE(readAll(json).find("\"schema\":\"paichar.timeline.v1\""),
              std::string::npos);
}

} // namespace
} // namespace paichar::obs
