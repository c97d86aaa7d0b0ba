/**
 * @file
 * The rejection text of every trace-loader error class, frozen in
 * full. Each CSV case is checked through fromCsv() and through
 * readTraceStore() on a file; each paib case through readTraceStore()
 * on a file. Both run on 1- and 4-thread pools, so neither the
 * loader's internals nor the thread count may change a message.
 *
 * Runs under `ctest -L trace`.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "paib_forge.h"
#include "runtime/thread_pool.h"
#include "trace/binary_trace.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

namespace paichar::trace {
namespace {

using workload::TrainingJob;

/** Write @p bytes to a temp file unique to this process. */
std::string
writeFreezeFile(const std::string &name, const std::string &bytes)
{
    std::string path = testing::TempDir() + "/" +
                       std::to_string(::getpid()) + "_" + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty()) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
    return path;
}

class TraceErrorFreezeTest : public testing::Test
{
  protected:
    /** @p csv must fail with exactly @p error, in memory and on disk. */
    void expectCsvError(const std::string &csv, const std::string &error)
    {
        std::string path = writeFreezeFile("freeze.csv", csv);
        for (runtime::ThreadPool *pool : {&p1_, &p4_}) {
            SCOPED_TRACE("threads " + std::to_string(pool->size()));
            ParseResult r = fromCsv(csv, pool);
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.error, error);
            StoreResult s = readTraceStore(path, pool);
            EXPECT_FALSE(s.ok);
            EXPECT_EQ(s.error, error);
        }
        std::remove(path.c_str());
    }

    /** @p bytes on disk must fail with exactly @p error. */
    void expectFileError(const std::string &bytes,
                         const std::string &error)
    {
        std::string path = writeFreezeFile("freeze.paib", bytes);
        for (runtime::ThreadPool *pool : {&p1_, &p4_}) {
            SCOPED_TRACE("threads " + std::to_string(pool->size()));
            StoreResult s = readTraceStore(path, pool);
            EXPECT_FALSE(s.ok);
            EXPECT_EQ(s.error, error);
        }
        std::remove(path.c_str());
    }

    runtime::ThreadPool p1_{1};
    runtime::ThreadPool p4_{4};
};

const std::string kHeaderLine = toCsv({});

/** The header plus one body line. */
std::string
oneRow(const std::string &row)
{
    return kHeaderLine + row + "\n";
}

TEST_F(TraceErrorFreezeTest, CsvEnvelope)
{
    expectCsvError("", "line 1: empty input");
    expectCsvError("id,foo,bar\n", "line 1: unexpected header");
    expectCsvError("id,foo,bar", "line 1: unexpected header");
}

TEST_F(TraceErrorFreezeTest, CsvFieldCount)
{
    expectCsvError(oneRow("1,1w1g,1"),
                   "line 2: expected 12 fields, got 3");
    expectCsvError(oneRow("1,1w1g,1,0,32,1,1,1,0,0,10,0,7"),
                   "line 2: expected 12 fields, got 13");
    // A bad count is reported before any bad field on the same line.
    expectCsvError(oneRow("x,warp,1"),
                   "line 2: expected 12 fields, got 3");
    expectCsvError(oneRow("x,1w1g,1,0,32,1,1,1,0,0,10,0,"),
                   "line 2: expected 12 fields, got 13");
}

TEST_F(TraceErrorFreezeTest, CsvIdArchAndCounts)
{
    expectCsvError(oneRow("x1,1w1g,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: bad id 'x1'");
    expectCsvError(oneRow("12abc,1w1g,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: bad id '12abc'");
    expectCsvError(
        oneRow("99999999999999999999,1w1g,1,0,32,1,1,1,0,0,10,0"),
        "line 2: bad id '99999999999999999999'");
    expectCsvError(oneRow(",1w1g,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: bad id ''");
    expectCsvError(oneRow("1,warp-drive,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: unknown architecture 'warp-drive'");
    expectCsvError(oneRow("1,,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: unknown architecture ''");
    expectCsvError(oneRow("1,ps/worker,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: unknown architecture 'ps/worker'");
    for (const char *cnodes : {"0", "-3", "2.5", "", "1e2"}) {
        expectCsvError(oneRow(std::string("1,1w1g,") + cnodes +
                              ",0,32,1,1,1,0,0,10,0"),
                       std::string("line 2: bad num_cnodes '") +
                           cnodes + "'");
    }
    for (const char *ps : {"-1", "1.0", "", "x"}) {
        expectCsvError(oneRow(std::string("1,1w1g,1,") + ps +
                              ",32,1,1,1,0,0,10,0"),
                       std::string("line 2: bad num_ps '") + ps + "'");
    }
}

TEST_F(TraceErrorFreezeTest, CsvEachNumericField)
{
    // One distinct bad spelling per feature column, in schema order.
    const std::vector<std::string> good = {"32", "1", "1", "1",
                                           "0",  "0", "10", "0"};
    const std::vector<std::string> bad = {"1e400", "nan", "inf",  "+1",
                                          " 1",    "",    "0x10", "-"};
    for (size_t k = 0; k < good.size(); ++k) {
        std::string row = "1,1w1g,1,0";
        for (size_t i = 0; i < good.size(); ++i)
            row += "," + (i == k ? bad[k] : good[i]);
        SCOPED_TRACE("field " + std::to_string(4 + k));
        expectCsvError(oneRow(row),
                       "line 2: bad numeric field '" + bad[k] + "'");
    }
}

TEST_F(TraceErrorFreezeTest, CsvTrailingJunkAndCarriageReturns)
{
    expectCsvError(oneRow("1,1w1g,1,0,32,1,1,1,0,0,10,0abc"),
                   "line 2: bad numeric field '0abc'");
    expectCsvError(oneRow("1,1w1g,1,0,32,1,1,1,0,0,10,0 "),
                   "line 2: bad numeric field '0 '");
    expectCsvError(oneRow("1,1w1g\r,1,0,32,1,1,1,0,0,10,0"),
                   "line 2: unknown architecture '1w1g\r'");
    expectCsvError(oneRow("1,1w1g,1,0,32\r,1,1,1,0,0,10,0"),
                   "line 2: bad numeric field '32\r'");
    expectCsvError(oneRow("1,1w1g,1,0,32,1,1,1,0,0,10,0\rjunk"),
                   "line 2: bad numeric field '0\rjunk'");
    // One trailing '\r' is a line ending; a second one is junk.
    expectCsvError(oneRow("1,1w1g,1,0,32,1,1,1,0,0,10,0\r\r"),
                   "line 2: bad numeric field '0\r'");
    expectCsvError(kHeaderLine + "1,1w1g,1,0,32,1,1,1,0,0,10,0\r\r",
                   "line 2: bad numeric field '0\r'");
}

TEST_F(TraceErrorFreezeTest, CsvFeatureValidation)
{
    // embedding_comm_bytes > comm_bytes violates the invariant.
    expectCsvError(oneRow("1,PS/Worker,4,1,32,1,1,1,5,10,10,0"),
                   "line 2: features fail validation");
    expectCsvError(oneRow("1,1w1g,1,0,0,1,1,1,0,0,10,0"),
                   "line 2: features fail validation");
    expectCsvError(oneRow("1,1w1g,1,0,32,-1,1,1,0,0,10,0"),
                   "line 2: features fail validation");
}

TEST_F(TraceErrorFreezeTest, CsvLineNumbersCountBlankAndCrlfLines)
{
    // A body well over one 64 KB parse chunk, with LF and CRLF rows
    // and blank LF and CRLF lines mixed in, so a 4-thread parse
    // splits it and must still number lines globally.
    SyntheticClusterGenerator gen(7);
    std::string csv = toCsv(gen.generate(3000, nullptr));
    std::vector<std::string> rows;
    for (size_t pos = csv.find('\n') + 1; pos < csv.size();) {
        size_t nl = csv.find('\n', pos);
        rows.push_back(csv.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_EQ(rows.size(), 3000u);

    const std::string bad_row = "x,1w1g,1,0,32,1,1,1,0,0,10,0";
    struct Case
    {
        size_t row;
        const char *error;
    };
    for (Case c : {Case{5, "line 9: bad id 'x'"},
                   Case{1500, "line 1833: bad id 'x'"},
                   Case{2990, "line 3650: bad id 'x'"}}) {
        std::string text = kHeaderLine;
        for (size_t i = 0; i < rows.size(); ++i) {
            text += i == c.row ? bad_row : rows[i];
            text += i % 11 == 0 ? "\r\n" : "\n";
            if (i % 7 == 0)
                text += "\n";
            if (i % 13 == 0)
                text += "\r\n";
        }
        ASSERT_GT(text.size(), 4 * 64 * 1024u);
        SCOPED_TRACE("bad row " + std::to_string(c.row));
        expectCsvError(text, c.error);
    }
}

/** Ten hand-built jobs, so every forged value below is predictable. */
std::string
freezePaib()
{
    std::vector<TrainingJob> jobs(10);
    for (size_t i = 0; i < jobs.size(); ++i) {
        TrainingJob &j = jobs[i];
        j.id = static_cast<int64_t>(i);
        j.arch = workload::ArchType::PsWorker;
        j.num_cnodes = 4;
        j.num_ps = 1;
        j.features.batch_size = 32;
        j.features.flop_count = 1e9;
        j.features.comm_bytes = 1e6;
        j.features.dense_weight_bytes = 1e6;
    }
    return toBinary(jobs);
}

// Column offsets of freezePaib(): 16-byte header, then ids (8 B),
// archs (1 B), cnodes (4 B), ps (4 B) and 8 feature columns (8 B).
constexpr size_t kJobs = 10;
constexpr size_t kArchCol = 16 + kJobs * 8;
constexpr size_t kCnodeCol = kArchCol + kJobs;
constexpr size_t kPsCol = kCnodeCol + kJobs * 4;
constexpr size_t kFeatureCol = kPsCol + kJobs * 4;

TEST_F(TraceErrorFreezeTest, PaibEnvelope)
{
    const std::string bin = freezePaib();
    ASSERT_EQ(bin.size(), 834u);

    // Without the magic, the bytes are not paib: they parse as CSV.
    std::string no_magic = bin;
    no_magic[0] = 'X';
    expectFileError(no_magic, "line 1: unexpected header");

    expectFileError(bin.substr(0, 10), "truncated paib header");
    expectFileError(bin.substr(0, 4), "truncated paib header");

    std::string version = bin;
    version[4] = 42;
    expectFileError(version, "unsupported paib version 42 (expected 1)");

    std::string huge_count = bin;
    huge_count[15] = 1;
    expectFileError(huge_count,
                    "truncated paib trace: columns for "
                    "72057594037927946 jobs exceed the payload");
    expectFileError(bin.substr(0, bin.size() - 16),
                    "truncated paib trace: columns for 10 jobs "
                    "exceed the payload");

    std::string small_count = bin;
    small_count[8] = 9;
    expectFileError(small_count, "paib size mismatch: expected 753 "
                                 "bytes for 9 jobs, got 834");
    expectFileError(bin + "junk", "paib size mismatch: expected 834 "
                                  "bytes for 10 jobs, got 838");

    std::string flipped = bin;
    flipped[bin.size() / 2] ^= 0x40;
    expectFileError(flipped, "paib checksum mismatch");
}

TEST_F(TraceErrorFreezeTest, PaibRowValues)
{
    const std::string bin = freezePaib();
    expectFileError(forge(bin, kArchCol + 1, 17),
                    "job 1: bad architecture code 17");
    expectFileError(forge(bin, kCnodeCol, 0), "job 0: bad num_cnodes 0");
    expectFileError(forge(bin, kCnodeCol + 9 * 4 + 3, '\x80'),
                    "job 9: bad num_cnodes -2147483644");
    expectFileError(forge(bin, kPsCol + 2 * 4 + 3, '\x80'),
                    "job 2: bad num_ps -2147483647");
    // Flip the sign of job 4's batch size.
    size_t batch_sign = kFeatureCol + 4 * 8 + 7;
    expectFileError(
        forge(bin, batch_sign, static_cast<char>(bin[batch_sign] | 0x80)),
        "job 4: features fail validation");
    // The first bad row wins, whichever column it is in.
    std::string two_bad = forge(bin, kArchCol + 6, 9);
    expectFileError(forge(two_bad, kCnodeCol + 3 * 4, 0),
                    "job 3: bad num_cnodes 0");
}

TEST_F(TraceErrorFreezeTest, MissingFile)
{
    for (runtime::ThreadPool *pool : {&p1_, &p4_}) {
        StoreResult s =
            readTraceStore("/nonexistent/paichar_freeze.csv", pool);
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.error,
                  "cannot open '/nonexistent/paichar_freeze.csv'");
    }
}

TEST_F(TraceErrorFreezeTest, EmptyFile)
{
    expectFileError("", "line 1: empty input");
}

} // namespace
} // namespace paichar::trace
