/**
 * @file
 * The trace-format contract, exercised property-style: CSV and paib
 * binary round trips are byte-identical across seeds, sizes, every
 * architecture and extreme feature magnitudes; parallel CSV parsing
 * is indistinguishable from serial (jobs and error line numbers
 * alike); malformed binary payloads fail with clean errors.
 *
 * Runs under `ctest -L trace`.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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
            ParseResult r = fromBinary(bin);
            ASSERT_TRUE(r.ok) << r.error;
            expectSameJobs(jobs, r.jobs);
            EXPECT_EQ(bin, toBinary(r.jobs))
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
    ParseResult rb = fromBinary(bin);
    ASSERT_TRUE(rb.ok) << rb.error;
    expectSameJobs(jobs, rb.jobs);
    EXPECT_EQ(bin, toBinary(rb.jobs));
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
    ParseResult via_csv = fromCsv(toCsv(jobs));
    ParseResult via_bin = fromBinary(toBinary(jobs));
    ASSERT_TRUE(via_csv.ok) << via_csv.error;
    ASSERT_TRUE(via_bin.ok) << via_bin.error;
    expectSameJobs(via_csv.jobs, via_bin.jobs);
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
    ParseResult r = fromBinary(bin);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsWrongVersion)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    bin[4] = 42; // version little-endian low byte
    ParseResult r = fromBinary(bin);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("version"), std::string::npos);
    EXPECT_NE(r.error.find("42"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsTruncatedColumns)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    ParseResult r = fromBinary(bin.substr(0, bin.size() - 16));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("truncated"), std::string::npos);

    // Header-only truncation.
    ParseResult rh = fromBinary(bin.substr(0, 10));
    EXPECT_FALSE(rh.ok);
    EXPECT_NE(rh.error.find("truncated"), std::string::npos);

    // Trailing garbage is a size mismatch, not a silent accept.
    ParseResult rt = fromBinary(bin + "junk");
    EXPECT_FALSE(rt.ok);
    EXPECT_NE(rt.error.find("mismatch"), std::string::npos);
}

TEST(TraceFormatTest, BinaryRejectsChecksumMismatch)
{
    SyntheticClusterGenerator gen(5);
    std::string bin = toBinary(gen.generate(10, nullptr));
    bin[bin.size() / 2] ^= 0x40; // flip a bit inside a column
    ParseResult r = fromBinary(bin);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("checksum"), std::string::npos);
}

/** Mirror of the paib word-folded FNV-1a-64, to forge payloads. */
uint64_t
refChecksum(const std::string &data)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 14695981039346656037ull;
    size_t words = data.size() / 8;
    for (size_t i = 0; i < words; ++i) {
        uint64_t w;
        std::memcpy(&w, data.data() + i * 8, 8);
        h = (h ^ w) * kPrime;
    }
    for (size_t i = words * 8; i < data.size(); ++i)
        h = (h ^ static_cast<unsigned char>(data[i])) * kPrime;
    return h;
}

/** Patch @p body at @p pos with @p byte and append a valid checksum. */
std::string
forge(std::string bin, size_t pos, char byte)
{
    bin[pos] = byte;
    std::string body = bin.substr(0, bin.size() - 8);
    uint64_t sum = refChecksum(body);
    body.append(reinterpret_cast<const char *>(&sum), sizeof sum);
    return body;
}

TEST(TraceFormatTest, BinaryRejectsInvalidJobValues)
{
    // Forged payloads (checksum fixed up) with out-of-range values
    // must fail the per-job validation, never crash.
    SyntheticClusterGenerator gen(5);
    auto jobs = gen.generate(3, nullptr);
    std::string bin = toBinary(jobs);
    size_t arch_col = 16 + jobs.size() * 8; // after the id column

    ParseResult r = fromBinary(forge(bin, arch_col + 1, 17));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("job 1"), std::string::npos);
    EXPECT_NE(r.error.find("architecture"), std::string::npos);

    size_t cnode_col = arch_col + jobs.size();
    ParseResult rc = fromBinary(forge(bin, cnode_col, 0));
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

TEST(TraceFormatTest, ReadTraceFileAutoDetectsBothFormats)
{
    SyntheticClusterGenerator gen(13);
    auto jobs = gen.generate(64, nullptr);
    std::string csv_path =
        testing::TempDir() + "/paichar_fmt_test.csv";
    std::string bin_path =
        testing::TempDir() + "/paichar_fmt_test.paib";

    ASSERT_TRUE(writeTraceFile(csv_path, jobs, TraceFormat::Csv));
    ASSERT_TRUE(writeTraceFile(bin_path, jobs, TraceFormat::Binary));

    ParseResult rc = readTraceFile(csv_path);
    ASSERT_TRUE(rc.ok) << rc.error;
    expectSameJobs(jobs, rc.jobs);

    ParseResult rb = readTraceFile(bin_path);
    ASSERT_TRUE(rb.ok) << rb.error;
    expectSameJobs(jobs, rb.jobs);

    std::remove(csv_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(TraceFormatTest, ReadTraceFileReportsMissingFile)
{
    ParseResult r = readTraceFile("/nonexistent/paichar.paib");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------
// readTraceStore: the zero-copy mmap path. Contract: accepts and
// rejects *exactly* what readTraceFile does, with byte-identical
// error text, while keeping paib traces columnar.

/** Write @p bytes to a fresh temp file and return its path. */
std::string
writeTemp(const std::string &name, const std::string &bytes)
{
    std::string path = testing::TempDir() + "/" + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty()) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
    return path;
}

/** Both readers on one file; errors must agree byte for byte. */
void
expectStoreParity(const std::string &path)
{
    ParseResult file = readTraceFile(path);
    StoreResult store = readTraceStore(path);
    EXPECT_EQ(file.ok, store.ok) << path;
    EXPECT_EQ(file.error, store.error) << path;
    if (file.ok)
        expectSameJobs(file.jobs, store.store.materialize());
}

TEST(TraceFormatTest, StoreMatchesFileReaderOnValidInputs)
{
    SyntheticClusterGenerator gen(21);
    // 17 jobs: not a multiple of 8, so every column after the arch
    // bytes is misaligned — the store must still decode exactly.
    for (size_t n : {size_t{0}, size_t{17}, size_t{256}}) {
        auto jobs = gen.generate(n, nullptr);
        expectStoreParity(writeTemp("store_ok.paib", toBinary(jobs)));
        expectStoreParity(writeTemp("store_ok.csv", toCsv(jobs)));
    }
}

TEST(TraceFormatTest, StoreKeepsPaibColumnarAndCsvOwned)
{
    SyntheticClusterGenerator gen(22);
    auto jobs = gen.generate(33, nullptr);
    std::string bin_path = writeTemp("store_col.paib", toBinary(jobs));
    std::string csv_path = writeTemp("store_col.csv", toCsv(jobs));

    StoreResult bin = readTraceStore(bin_path);
    ASSERT_TRUE(bin.ok) << bin.error;
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(bin.store.columnar());
#endif
    expectSameJobs(jobs, bin.store.materialize());

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

    // Every malformed-paib class the buffered reader rejects.
    expectStoreParity(
        writeTemp("store_trunc.paib", bin.substr(0, bin.size() - 16)));
    expectStoreParity(
        writeTemp("store_hdr.paib", bin.substr(0, 10)));
    expectStoreParity(writeTemp("store_junk.paib", bin + "junk"));
    {
        std::string bad = bin;
        bad[bad.size() / 2] ^= 0x40;
        expectStoreParity(writeTemp("store_sum.paib", bad));
    }
    {
        std::string bad = bin;
        bad[4] = 42; // unsupported version
        expectStoreParity(writeTemp("store_ver.paib", bad));
    }
    // Valid envelope, invalid row values (checksum forged back).
    size_t arch_col = 16 + jobs.size() * 8;
    expectStoreParity(
        writeTemp("store_row.paib", forge(bin, arch_col + 2, 17)));
    // Malformed CSV goes through the same fallback parser.
    expectStoreParity(
        writeTemp("store_bad.csv", "id,arch\nnot,a,trace\n"));

    StoreResult missing = readTraceStore("/nonexistent/paichar.paib");
    ParseResult missing_file =
        readTraceFile("/nonexistent/paichar.paib");
    EXPECT_FALSE(missing.ok);
    EXPECT_EQ(missing.error, missing_file.error);
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
