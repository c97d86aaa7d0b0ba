/**
 * @file
 * Tests for CSV trace serialization: round trips, header validation,
 * and malformed-input rejection with useful errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "stats/rng.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

namespace paichar::trace {
namespace {

using workload::TrainingJob;

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    SyntheticClusterGenerator gen(99);
    auto jobs = gen.generate(500);
    ParseResult r = fromCsv(toCsv(jobs));
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.jobs.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const auto &a = jobs[i], &b = r.jobs[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.arch, b.arch);
        EXPECT_EQ(a.num_cnodes, b.num_cnodes);
        EXPECT_EQ(a.num_ps, b.num_ps);
        EXPECT_DOUBLE_EQ(a.features.batch_size, b.features.batch_size);
        EXPECT_DOUBLE_EQ(a.features.flop_count, b.features.flop_count);
        EXPECT_DOUBLE_EQ(a.features.mem_access_bytes,
                         b.features.mem_access_bytes);
        EXPECT_DOUBLE_EQ(a.features.input_bytes,
                         b.features.input_bytes);
        EXPECT_DOUBLE_EQ(a.features.comm_bytes, b.features.comm_bytes);
        EXPECT_DOUBLE_EQ(a.features.embedding_comm_bytes,
                         b.features.embedding_comm_bytes);
        EXPECT_DOUBLE_EQ(a.features.dense_weight_bytes,
                         b.features.dense_weight_bytes);
        EXPECT_DOUBLE_EQ(a.features.embedding_weight_bytes,
                         b.features.embedding_weight_bytes);
    }
}

TEST(TraceIoTest, EmptyTraceRoundTrips)
{
    ParseResult r = fromCsv(toCsv({}));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.jobs.empty());
}

TEST(TraceIoTest, RejectsEmptyInput)
{
    ParseResult r = fromCsv("");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("empty"), std::string::npos);
}

TEST(TraceIoTest, RejectsWrongHeader)
{
    ParseResult r = fromCsv("id,foo,bar\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("header"), std::string::npos);
}

TEST(TraceIoTest, RejectsWrongFieldCount)
{
    std::string csv = toCsv({});
    csv += "1,1w1g,1\n";
    ParseResult r = fromCsv(csv);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 2"), std::string::npos);
    EXPECT_NE(r.error.find("fields"), std::string::npos);
}

TEST(TraceIoTest, RejectsUnknownArchitecture)
{
    std::string csv = toCsv({});
    csv += "1,warp-drive,1,0,32,1,1,1,0,0,10,0\n";
    ParseResult r = fromCsv(csv);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("warp-drive"), std::string::npos);
}

TEST(TraceIoTest, RejectsBadNumbers)
{
    std::string csv = toCsv({});
    csv += "1,1w1g,1,0,32,not_a_number,1,1,0,0,10,0\n";
    ParseResult r = fromCsv(csv);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("not_a_number"), std::string::npos);
}

TEST(TraceIoTest, RejectsInvalidFeatures)
{
    std::string csv = toCsv({});
    // embedding_comm_bytes > comm_bytes violates the invariant.
    csv += "1,PS/Worker,4,1,32,1,1,1,5,10,10,0\n";
    ParseResult r = fromCsv(csv);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("validation"), std::string::npos);
}

TEST(TraceIoTest, RejectsNonPositiveCnodes)
{
    std::string csv = toCsv({});
    csv += "1,1w1g,0,0,32,1,1,1,0,0,10,0\n";
    ParseResult r = fromCsv(csv);
    EXPECT_FALSE(r.ok);
}

TEST(TraceIoTest, SkipsBlankLinesAndHandlesCrLf)
{
    SyntheticClusterGenerator gen(7);
    auto jobs = gen.generate(3);
    std::string csv = toCsv(jobs);
    // Convert to CRLF and add a trailing blank line.
    std::string crlf;
    for (char c : csv) {
        if (c == '\n')
            crlf += "\r\n";
        else
            crlf += c;
    }
    crlf += "\r\n";
    ParseResult r = fromCsv(crlf);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.jobs.size(), 3u);
}

TEST(TraceIoTest, FileRoundTrip)
{
    SyntheticClusterGenerator gen(11);
    auto jobs = gen.generate(50);
    std::string path = testing::TempDir() + "/paichar_trace_test.csv";
    ASSERT_TRUE(writeTraceFile(path, jobs, TraceFormat::Csv));
    StoreResult r = readTraceStore(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(toCsv(r.store.materialize()), toCsv(jobs));
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileReportsError)
{
    StoreResult r = readTraceStore("/nonexistent/paichar.csv");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(TraceIoTest, RejectsCountsOutsideInt32)
{
    // The paib columns are int32: a wider count used to wrap on the
    // way in ("4294967297" read as 1 cNode).
    const std::string header = toCsv({});
    for (const char *cnodes : {"2147483648", "4294967297",
                               "9223372036854775807"}) {
        ParseResult r = fromCsv(header + "1,1w1g," + cnodes +
                                ",0,32,1,1,1,0,0,10,0\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, std::string("line 2: bad num_cnodes '") +
                               cnodes + "'");
    }
    for (const char *ps : {"2147483648", "4294967296"}) {
        ParseResult r = fromCsv(header + "1,PS/Worker,2," + ps +
                                ",32,1,1,1,0,0,10,0\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error,
                  std::string("line 2: bad num_ps '") + ps + "'");
    }
    ParseResult max = fromCsv(
        header + "1,PS/Worker,2147483647,2147483647,32,1,1,1,0,0,10,0\n");
    ASSERT_TRUE(max.ok) << max.error;
    EXPECT_EQ(max.jobs[0].num_cnodes, 2147483647);
    EXPECT_EQ(max.jobs[0].num_ps, 2147483647);
}

TEST(TraceIoTest, FuzzedMutationsNeverCrash)
{
    // Randomly corrupt a valid trace: the parser must either accept
    // (if the mutation is benign) or fail with a line-numbered error;
    // it must never crash or return half-parsed junk silently.
    SyntheticClusterGenerator gen(21);
    std::string base = toCsv(gen.generate(20));
    stats::Rng rng(22);
    const std::string garbage = ",;x@#\n-e+.\t";
    for (int trial = 0; trial < 500; ++trial) {
        std::string mutated = base;
        int edits = static_cast<int>(rng.uniformInt(1, 5));
        for (int e = 0; e < edits; ++e) {
            auto pos = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(
                                      mutated.size() - 1)));
            mutated[pos] = garbage[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(garbage.size() - 1)))];
        }
        ParseResult r = fromCsv(mutated);
        if (!r.ok) {
            EXPECT_FALSE(r.error.empty());
        } else {
            // Accepted traces must be fully valid.
            for (const auto &j : r.jobs)
                EXPECT_TRUE(j.features.valid());
        }
    }
}

TEST(TraceIoTest, ExtremeRowsRenderUntruncated)
{
    // Regression for the old snprintf-into-512-bytes writer, which
    // silently truncated any row that outgrew its stack buffer. The
    // worst-case row — extreme id/counts and max-magnitude doubles —
    // must survive a full round trip bit for bit.
    TrainingJob j;
    j.id = std::numeric_limits<int64_t>::min();
    j.arch = workload::ArchType::Pearl;
    j.num_cnodes = std::numeric_limits<int>::max();
    j.num_ps = std::numeric_limits<int>::max();
    j.features.batch_size = std::numeric_limits<double>::max();
    j.features.flop_count = std::numeric_limits<double>::max();
    j.features.mem_access_bytes = std::numeric_limits<double>::max();
    j.features.input_bytes = std::numeric_limits<double>::max();
    j.features.comm_bytes = std::numeric_limits<double>::max();
    j.features.embedding_comm_bytes =
        std::numeric_limits<double>::max();
    j.features.dense_weight_bytes =
        std::numeric_limits<double>::denorm_min();
    j.features.embedding_weight_bytes =
        std::numeric_limits<double>::max();
    ASSERT_TRUE(j.features.valid());

    std::string csv = toCsv({j});
    // Every row must end in a newline: a truncated render would lose
    // trailing fields or the terminator.
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.back(), '\n');

    ParseResult r = fromCsv(csv);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_EQ(r.jobs[0].id, j.id);
    EXPECT_EQ(r.jobs[0].num_cnodes, j.num_cnodes);
    EXPECT_EQ(r.jobs[0].num_ps, j.num_ps);
    EXPECT_EQ(r.jobs[0].features.comm_bytes, j.features.comm_bytes);
    EXPECT_EQ(r.jobs[0].features.dense_weight_bytes,
              j.features.dense_weight_bytes);
    EXPECT_EQ(csv, toCsv(r.jobs));
}

TEST(TraceIoTest, ShortestFormattingRoundTripsExactDoubles)
{
    // The writer emits the shortest decimal that parses back to the
    // same bits; spot-check classic troublemakers.
    for (double v : {0.1, 1.0 / 3.0, 2.2250738585072011e-308,
                     9007199254740993.0, 1e22, 1.7e308}) {
        TrainingJob j;
        j.num_cnodes = 1;
        j.features.batch_size = 1.0;
        j.features.flop_count = v;
        ASSERT_TRUE(j.features.valid());
        ParseResult r = fromCsv(toCsv({j}));
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.jobs.size(), 1u);
        EXPECT_EQ(r.jobs[0].features.flop_count, v);
    }
}

TEST(ArchFromStringTest, RoundTripsAllNames)
{
    for (workload::ArchType a : workload::kAllArchTypes) {
        auto back = workload::archFromString(workload::toString(a));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, a);
    }
    EXPECT_FALSE(workload::archFromString("nope").has_value());
}

} // namespace
} // namespace paichar::trace
