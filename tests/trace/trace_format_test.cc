/**
 * @file
 * The trace-format contract, exercised property-style: CSV and paib
 * binary round trips are byte-identical across seeds, sizes, every
 * architecture and extreme feature magnitudes; parallel CSV parsing
 * is indistinguishable from serial (jobs and error line numbers
 * alike); malformed binary payloads fail with clean errors; and a
 * trace loads the same from memory, a regular file or a FIFO.
 *
 * Runs under `ctest -L trace`.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "paib_forge.h"
#include "runtime/thread_pool.h"
#include "trace/binary_trace.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

namespace paichar::trace {
namespace {

using workload::ArchType;
using workload::TrainingJob;

void
expectSameJobs(const std::vector<TrainingJob> &a,
               const std::vector<TrainingJob> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
        EXPECT_EQ(a[i].arch, b[i].arch) << "job " << i;
        EXPECT_EQ(a[i].num_cnodes, b[i].num_cnodes) << "job " << i;
        EXPECT_EQ(a[i].num_ps, b[i].num_ps) << "job " << i;
        const auto &fa = a[i].features, &fb = b[i].features;
        EXPECT_EQ(fa.batch_size, fb.batch_size) << "job " << i;
        EXPECT_EQ(fa.flop_count, fb.flop_count) << "job " << i;
        EXPECT_EQ(fa.mem_access_bytes, fb.mem_access_bytes)
            << "job " << i;
        EXPECT_EQ(fa.input_bytes, fb.input_bytes) << "job " << i;
        EXPECT_EQ(fa.comm_bytes, fb.comm_bytes) << "job " << i;
        EXPECT_EQ(fa.embedding_comm_bytes, fb.embedding_comm_bytes)
            << "job " << i;
        EXPECT_EQ(fa.dense_weight_bytes, fb.dense_weight_bytes)
            << "job " << i;
        EXPECT_EQ(fa.embedding_weight_bytes,
                  fb.embedding_weight_bytes)
            << "job " << i;
    }
}

/** The jobs of a trace decoded in memory; a failure fails the test. */
std::vector<TrainingJob>
decodeJobs(std::string bytes)
{
    StoreResult r = parseTrace(std::move(bytes));
    EXPECT_TRUE(r.ok) << r.error;
    return r.store.materialize();
}

/** One job per architecture, pushing every numeric field to an edge. */
std::vector<TrainingJob>
extremeJobs()
{
    std::vector<TrainingJob> jobs;
    constexpr double kEdges[] = {
        0.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        0.1,
        1.0 / 3.0,
        6.02214076e23,
        std::numeric_limits<double>::max(),
    };
    int64_t id = std::numeric_limits<int64_t>::max();
    size_t e = 0;
    auto next = [&] { return kEdges[e++ % std::size(kEdges)]; };
    for (ArchType arch : workload::kAllArchTypes) {
        TrainingJob j;
        j.id = id--;
        j.arch = arch;
        j.num_cnodes = std::numeric_limits<int32_t>::max();
        j.num_ps = std::numeric_limits<int32_t>::max();
        j.features.batch_size =
            std::max(next(), std::numeric_limits<double>::min());
        j.features.flop_count = next();
        j.features.mem_access_bytes = next();
        j.features.input_bytes = next();
        // Invariant: embedding_comm_bytes <= comm_bytes.
        j.features.comm_bytes = std::numeric_limits<double>::max();
        j.features.embedding_comm_bytes = next();
        j.features.dense_weight_bytes = next();
        j.features.embedding_weight_bytes = next();
        EXPECT_TRUE(j.features.valid());
        jobs.push_back(j);
    }
    return jobs;
}

TEST(TraceFormatTest, CsvRoundTripIsByteIdenticalAcrossSeedsAndSizes)
{
    for (uint64_t seed : {1u, 2u, 99u}) {
        for (size_t n : {size_t{0}, size_t{1}, size_t{17},
                         size_t{500}}) {
            SyntheticClusterGenerator gen(seed);
            auto jobs = gen.generate(n, nullptr);
            std::string csv = toCsv(jobs);
            ParseResult r = fromCsv(csv);
            ASSERT_TRUE(r.ok) << r.error;
            expectSameJobs(jobs, r.jobs);
            EXPECT_EQ(csv, toCsv(r.jobs))
                << "seed " << seed << " n " << n;
        }
    }
}

TEST(TraceFormatTest, BinaryRoundTripIsByteIdenticalAcrossSeedsAndSizes)
{
    for (uint64_t seed : {1u, 2u, 99u}) {
        for (size_t n : {size_t{0}, size_t{1}, size_t{17},
                         size_t{500}}) {
            SyntheticClusterGenerator gen(seed);
            auto jobs = gen.generate(n, nullptr);
            std::string bin = toBinary(jobs);
            auto decoded = decodeJobs(bin);
            expectSameJobs(jobs, decoded);
            EXPECT_EQ(bin, toBinary(decoded))
                << "seed " << seed << " n " << n;
        }
    }
}

TEST(TraceFormatTest, AllArchesAndExtremeMagnitudesRoundTripExactly)
{
    auto jobs = extremeJobs();

    std::string csv = toCsv(jobs);
    ParseResult rc = fromCsv(csv);
    ASSERT_TRUE(rc.ok) << rc.error;
    expectSameJobs(jobs, rc.jobs);
    EXPECT_EQ(csv, toCsv(rc.jobs));

    std::string bin = toBinary(jobs);
    auto decoded = decodeJobs(bin);
    expectSameJobs(jobs, decoded);
    EXPECT_EQ(bin, toBinary(decoded));
}

TEST(TraceFormatTest, CsvNumberSpellingIsShortestToCharsForm)
{
    TrainingJob j;
    j.id = 42;
    j.arch = ArchType::PsWorker;
    j.num_cnodes = 4;
    j.num_ps = 2;
    j.features.batch_size = 0.1;
    j.features.flop_count = 1.0 / 3.0;
    j.features.mem_access_bytes = std::numeric_limits<double>::max();
    j.features.input_bytes =
        std::numeric_limits<double>::denorm_min();
    j.features.comm_bytes = 1024.0;
    j.features.embedding_comm_bytes = 0.0;
    j.features.dense_weight_bytes = 1e100;
    j.features.embedding_weight_bytes = 2.5;
    ASSERT_TRUE(j.features.valid());

    // Golden spelling: every double is the shortest to_chars form
    // that round-trips exactly. A %.17g fallback used to respell
    // some of these (e.g. "0.10000000000000001").
    std::string csv = toCsv({j});
    std::string row = csv.substr(csv.find('\n') + 1);
    EXPECT_EQ(row,
              "42,PS/Worker,4,2,0.1,0.3333333333333333,"
              "1.7976931348623157e+308,5e-324,1024,0,1e+100,2.5\n");

    // The spelling is a fixed point: toCsv(fromCsv(x)) == x, byte
    // for byte.
    ParseResult r = fromCsv(csv);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(toCsv(r.jobs), csv);
}

TEST(TraceFormatTest, CsvAndBinaryAgree)
{
    SyntheticClusterGenerator gen(7);
    auto jobs = gen.generate(200, nullptr);
    expectSameJobs(decodeJobs(toCsv(jobs)), decodeJobs(toBinary(jobs)));
}

TEST(TraceFormatTest, ParallelCsvParseMatchesSerial)
{
    SyntheticClusterGenerator gen(20181201);
    auto jobs = gen.generate(20000, nullptr);
    std::string csv = toCsv(jobs);

    ParseResult serial = fromCsv(csv, nullptr);
    ASSERT_TRUE(serial.ok) << serial.error;
    expectSameJobs(jobs, serial.jobs);

    runtime::ThreadPool p2(2), p8(8);
    for (runtime::ThreadPool *pool :
         {static_cast<runtime::ThreadPool *>(&p2), &p8}) {
        ParseResult parallel = fromCsv(csv, pool);
        ASSERT_TRUE(parallel.ok) << parallel.error;
        expectSameJobs(serial.jobs, parallel.jobs);
        EXPECT_EQ(toCsv(serial.jobs), toCsv(parallel.jobs));
    }
}

TEST(TraceFormatTest, ParallelCsvErrorsMatchSerialByteForByte)
{
    SyntheticClusterGenerator gen(3);
    auto jobs = gen.generate(20000, nullptr);
    std::string base = toCsv(jobs);

    // Corrupt one row early, one in the middle and one at the end;
    // every pool size must report the identical first error.
    for (double frac : {0.001, 0.5, 0.999}) {
        std::string csv = base;
        size_t pos = csv.find('\n', static_cast<size_t>(
                                        frac * (csv.size() - 2)));
        ASSERT_NE(pos, std::string::npos);
        csv[pos + 1] = 'x'; // clobber the next row's id digit
        ParseResult serial = fromCsv(csv, nullptr);
        ASSERT_FALSE(serial.ok);
        EXPECT_NE(serial.error.find("line "), std::string::npos);

        runtime::ThreadPool p2(2), p8(8);
        for (runtime::ThreadPool *pool :
             {static_cast<runtime::ThreadPool *>(&p2), &p8}) {
            ParseResult parallel = fromCsv(csv, pool);
            ASSERT_FALSE(parallel.ok);
            EXPECT_EQ(serial.error, parallel.error)
                << "at frac " << frac;
        }
    }
}

TEST(TraceFormatTest, LooksBinaryDetectsMagic)
{
    EXPECT_TRUE(looksBinary(toBinary({})));
    EXPECT_FALSE(looksBinary(""));
    EXPECT_FALSE(looksBinary("PAI"));
    EXPECT_FALSE(looksBinary(toCsv({})));
}

TEST(TraceFormatTest, BinaryRejectsBadMagic)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    bin[0] = 'X';
    StoreResult r = viewBinary(bin, nullptr, nullptr);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsWrongVersion)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    bin[4] = 42; // version little-endian low byte
    StoreResult r = parseTrace(bin);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("version"), std::string::npos);
    EXPECT_NE(r.error.find("42"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsTruncatedColumns)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    StoreResult r = parseTrace(bin.substr(0, bin.size() - 16));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("truncated"), std::string::npos);

    // Header-only truncation.
    StoreResult rh = parseTrace(bin.substr(0, 10));
    EXPECT_FALSE(rh.ok);
    EXPECT_NE(rh.error.find("truncated"), std::string::npos);

    // Trailing garbage is a size mismatch, not a silent accept.
    StoreResult rt = parseTrace(bin + "junk");
    EXPECT_FALSE(rt.ok);
    EXPECT_NE(rt.error.find("mismatch"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsChecksumMismatch)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    bin[bin.size() / 2] ^= 0x40; // flip a bit inside a column
    StoreResult r = parseTrace(bin);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("checksum"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsInvalidJobValues)
{
    // Forged payloads (checksum fixed up) with out-of-range values
    // must fail the per-job validation, never crash.
    SyntheticClusterGenerator gen(5);
    auto jobs = gen.generate(3, nullptr);
    std::string bin = toBinary(jobs);
    size_t arch_col = 16 + jobs.size() * 8; // after the id column

    StoreResult r = parseTrace(forge(bin, arch_col + 1, 17));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("job 1"), std::string::npos);
    EXPECT_NE(r.error.find("architecture"), std::string::npos);

    size_t cnode_col = arch_col + jobs.size();
    StoreResult rc = parseTrace(forge(bin, cnode_col, 0));
    EXPECT_FALSE(rc.ok);
    EXPECT_NE(rc.error.find("num_cnodes"), std::string::npos);
}

TEST(TraceFormatTest, TraceFormatNamesRoundTrip)
{
    EXPECT_EQ(toString(TraceFormat::Csv), "csv");
    EXPECT_EQ(toString(TraceFormat::Binary), "bin");
    EXPECT_EQ(traceFormatFromString("csv"), TraceFormat::Csv);
    EXPECT_EQ(traceFormatFromString("bin"), TraceFormat::Binary);
    EXPECT_FALSE(traceFormatFromString("json").has_value());
}

TEST(TraceFormatTest, ReadTraceStoreAutoDetectsBothFormats)
{
    SyntheticClusterGenerator gen(13);
    auto jobs = gen.generate(64, nullptr);
    std::string csv_path =
        testing::TempDir() + "/paichar_fmt_test.csv";
    std::string bin_path =
        testing::TempDir() + "/paichar_fmt_test.paib";

    ASSERT_TRUE(writeTraceFile(csv_path, jobs, TraceFormat::Csv));
    ASSERT_TRUE(writeTraceFile(bin_path, jobs, TraceFormat::Binary));

    StoreResult rc = readTraceStore(csv_path);
    ASSERT_TRUE(rc.ok) << rc.error;
    expectSameJobs(jobs, rc.store.materialize());

    StoreResult rb = readTraceStore(bin_path);
    ASSERT_TRUE(rb.ok) << rb.error;
    expectSameJobs(jobs, rb.store.materialize());

    std::remove(csv_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(TraceFormatTest, ReadTraceStoreRejectsMissingFileAndDirectory)
{
    StoreResult missing = readTraceStore("/nonexistent/paichar.paib");
    EXPECT_FALSE(missing.ok);
    EXPECT_EQ(missing.error, "cannot open '/nonexistent/paichar.paib'");

    // A directory is no regular file: it takes the read-to-EOF path,
    // which must fail cleanly rather than size a buffer from it.
    std::string dir = testing::TempDir();
    for (int threads : {1, 4}) {
        runtime::ThreadPool pool(threads);
        StoreResult r = readTraceStore(dir, &pool);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, "cannot read '" + dir + "'");
    }
}

// ---------------------------------------------------------------
// One loader, three ways in: parseTrace() on bytes in memory,
// readTraceStore() on a regular file (mapped) and on a FIFO (read to
// EOF). All must accept and reject exactly the same inputs, with
// byte-identical error text, at every pool size.

/**
 * Write @p bytes to a fresh temp file, unique to this process (ctest
 * runs tests of this binary side by side), and return its path.
 */
std::string
writeTemp(const std::string &name, const std::string &bytes)
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

/**
 * Load @p bytes through a FIFO that a writer thread feeds while
 * readTraceStore() reads it, as `paichar characterize <(cat t.csv)`
 * does.
 */
StoreResult
loadThroughFifo(const std::string &bytes, runtime::ThreadPool *pool)
{
    std::string path = testing::TempDir() + "/paichar_fifo_" +
                       std::to_string(::getpid());
    std::remove(path.c_str());
    if (::mkfifo(path.c_str(), 0600) != 0) {
        ADD_FAILURE() << "mkfifo " << path;
        return {};
    }
    std::thread writer([&] {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    });
    StoreResult r = readTraceStore(path, pool);
    writer.join();
    std::remove(path.c_str());
    return r;
}

/** Every way in must load @p bytes identically, at 1 and 4 threads. */
void
expectSameLoad(const std::string &bytes)
{
    std::string path = writeTemp("same_load.trace", bytes);
    StoreResult ref = parseTrace(bytes);
    for (int threads : {1, 4}) {
        runtime::ThreadPool pool(threads);
        for (const StoreResult &r :
             {parseTrace(bytes, &pool), readTraceStore(path, &pool),
              loadThroughFifo(bytes, &pool)}) {
            EXPECT_EQ(r.ok, ref.ok);
            EXPECT_EQ(r.error, ref.error);
            if (ref.ok) {
                expectSameJobs(ref.store.materialize(),
                               r.store.materialize());
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceFormatTest, StoreMatchesFileReaderOnValidInputs)
{
    SyntheticClusterGenerator gen(21);
    // 17 jobs: not a multiple of 8, so every column after the arch
    // bytes is misaligned — the store must still decode exactly.
    // 3000 jobs: a CSV body of several parse chunks and a FIFO
    // payload larger than a pipe buffer.
    for (size_t n : {size_t{0}, size_t{17}, size_t{256},
                     size_t{3000}}) {
        SCOPED_TRACE("n " + std::to_string(n));
        auto jobs = gen.generate(n, nullptr);
        expectSameLoad(toBinary(jobs));
        expectSameLoad(toCsv(jobs));
    }
}

TEST(TraceFormatTest, StoreKeepsPaibColumnarAndCsvOwned)
{
    SyntheticClusterGenerator gen(22);
    auto jobs = gen.generate(33, nullptr);
    std::string bin_path = writeTemp("store_col.paib", toBinary(jobs));
    std::string csv_path = writeTemp("store_col.csv", toCsv(jobs));

    // Mapped, read from a FIFO or handed over in memory, a paib
    // trace stays columnar over its own bytes.
    for (const StoreResult &bin :
         {readTraceStore(bin_path),
          loadThroughFifo(toBinary(jobs), nullptr),
          parseTrace(toBinary(jobs))}) {
        ASSERT_TRUE(bin.ok) << bin.error;
        EXPECT_TRUE(bin.store.columnar());
        expectSameJobs(jobs, bin.store.materialize());
    }

    StoreResult csv = readTraceStore(csv_path);
    ASSERT_TRUE(csv.ok) << csv.error;
    EXPECT_FALSE(csv.store.columnar());

    std::remove(bin_path.c_str());
    std::remove(csv_path.c_str());
}

TEST(TraceFormatTest, StoreRejectionsMatchFileReaderByteForByte)
{
    SyntheticClusterGenerator gen(23);
    auto jobs = gen.generate(24, nullptr);
    std::string bin = toBinary(jobs);

    // Every malformed-paib class.
    expectSameLoad(bin.substr(0, bin.size() - 16));
    expectSameLoad(bin.substr(0, 10));
    expectSameLoad(bin + "junk");
    {
        std::string bad = bin;
        bad[bad.size() / 2] ^= 0x40;
        expectSameLoad(bad);
    }
    {
        std::string bad = bin;
        bad[4] = 42; // unsupported version
        expectSameLoad(bad);
    }
    // Valid envelope, invalid row values (checksum forged back).
    size_t arch_col = 16 + jobs.size() * 8;
    expectSameLoad(forge(bin, arch_col + 2, 17));
    // Malformed CSV, early and past the first parse chunk.
    expectSameLoad("id,arch\nnot,a,trace\n");
    std::string csv = toCsv(gen.generate(3000, nullptr));
    csv[csv.size() - 40] = 'x';
    expectSameLoad(csv);
    expectSameLoad("");
}

TEST(TraceFormatTest, StoreParallelRowValidationMatchesSerial)
{
    SyntheticClusterGenerator gen(24);
    auto jobs = gen.generate(5000, nullptr);
    std::string bin = toBinary(jobs);

    // Invalid rows early, middle and late: the parallel validator
    // must report the *first* bad row, same text as serial.
    size_t cnode_col = 16 + jobs.size() * 9;
    for (size_t row : {size_t{3}, jobs.size() / 2,
                       jobs.size() - 1}) {
        std::string path = writeTemp(
            "store_par.paib",
            forge(bin, cnode_col + row * 4 + 3, /*byte=*/0x80));
        StoreResult serial = readTraceStore(path, nullptr);
        ASSERT_FALSE(serial.ok);
        EXPECT_NE(serial.error.find("job " + std::to_string(row)),
                  std::string::npos)
            << serial.error;
        runtime::ThreadPool p2(2), p8(8);
        for (runtime::ThreadPool *pool :
             {static_cast<runtime::ThreadPool *>(&p2), &p8}) {
            StoreResult parallel = readTraceStore(path, pool);
            ASSERT_FALSE(parallel.ok);
            EXPECT_EQ(serial.error, parallel.error);
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace paichar::trace
