#include "binary_trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "obs/obs.h"
#include "runtime/parallel.h"

namespace paichar::trace {

using workload::TrainingJob;
using workload::WorkloadFeatures;

// The columns are written and read back with raw memcpy, which is
// only the on-disk little-endian layout on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "paib serialization assumes a little-endian host");

namespace {

/** Feature columns in schema order (shared with the JobStore view). */
constexpr auto &kFeatureColumns = workload::kFeatureColumnOrder;

constexpr size_t kNumFeatures = workload::kNumFeatureColumns;

/** Fixed-size header (magic + version + count) and footer. */
constexpr size_t kHeaderBytes = 4 + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kFooterBytes = sizeof(uint64_t);

/** Serialized bytes per job across all columns. */
constexpr size_t kBytesPerJob = sizeof(int64_t) + sizeof(uint8_t) +
                                2 * sizeof(int32_t) +
                                kNumFeatures * sizeof(double);

/**
 * FNV-1a folded over 8-byte words (byte-at-a-time for the tail):
 * the classic constants, but ~8x the scan rate, which keeps the
 * checksum sweep off the critical path at million-job scale.
 */
uint64_t
checksum(const char *p, size_t n)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 14695981039346656037ull;
    size_t words = n / 8;
    for (size_t i = 0; i < words; ++i) {
        uint64_t w;
        std::memcpy(&w, p + i * 8, 8);
        h = (h ^ w) * kPrime;
    }
    for (size_t i = words * 8; i < n; ++i) {
        h = (h ^ static_cast<unsigned char>(p[i])) * kPrime;
    }
    return h;
}

template <typename T>
void
appendRaw(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
T
readRaw(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

} // namespace

bool
looksBinary(std::string_view data)
{
    return data.size() >= sizeof kBinaryMagic &&
           std::memcmp(data.data(), kBinaryMagic,
                       sizeof kBinaryMagic) == 0;
}

std::string
toBinary(const std::vector<TrainingJob> &jobs)
{
    obs::Span span("trace.serialize_bin",
                   static_cast<int64_t>(jobs.size()));
    const size_t n = jobs.size();
    std::string out;
    out.reserve(kHeaderBytes + n * kBytesPerJob + kFooterBytes);
    out.append(kBinaryMagic, sizeof kBinaryMagic);
    appendRaw(out, kBinaryVersion);
    appendRaw(out, static_cast<uint64_t>(n));

    // One gather pass per column keeps every array contiguous so the
    // loader can read each column in place.
    for (const TrainingJob &j : jobs)
        appendRaw(out, static_cast<int64_t>(j.id));
    for (const TrainingJob &j : jobs)
        appendRaw(out, static_cast<uint8_t>(j.arch));
    for (const TrainingJob &j : jobs)
        appendRaw(out, static_cast<int32_t>(j.num_cnodes));
    for (const TrainingJob &j : jobs)
        appendRaw(out, static_cast<int32_t>(j.num_ps));
    for (double WorkloadFeatures::*col : kFeatureColumns) {
        for (const TrainingJob &j : jobs)
            appendRaw(out, j.features.*col);
    }

    appendRaw(out, checksum(out.data(), out.size()));
    obs::counter("trace.rows_serialized").add(jobs.size());
    obs::counter("trace.bytes_serialized").add(out.size());
    return out;
}

namespace {

/**
 * Check magic, version, size and checksum of @p data and locate the
 * columns. Returns the error text, or empty when the envelope is
 * sound; no row values are inspected (see rowError).
 */
std::string
checkEnvelope(std::string_view data, size_t &count,
              workload::JobColumns &cols)
{
    if (!looksBinary(data))
        return "bad magic: not a paib trace";
    if (data.size() < kHeaderBytes + kFooterBytes)
        return "truncated paib header";

    const char *base = data.data();
    uint32_t version = readRaw<uint32_t>(base + 4);
    if (version != kBinaryVersion) {
        return "unsupported paib version " + std::to_string(version) +
               " (expected " + std::to_string(kBinaryVersion) + ")";
    }
    uint64_t n = readRaw<uint64_t>(base + 8);
    if (n > (data.size() - kHeaderBytes - kFooterBytes) / kBytesPerJob) {
        return "truncated paib trace: columns for " + std::to_string(n) +
               " jobs exceed the payload";
    }
    size_t expected = kHeaderBytes +
                      static_cast<size_t>(n) * kBytesPerJob +
                      kFooterBytes;
    if (data.size() != expected) {
        return "paib size mismatch: expected " +
               std::to_string(expected) + " bytes for " +
               std::to_string(n) + " jobs, got " +
               std::to_string(data.size());
    }

    uint64_t stored = readRaw<uint64_t>(base + data.size() -
                                        kFooterBytes);
    if (stored != checksum(base, data.size() - kFooterBytes))
        return "paib checksum mismatch";

    // Column base pointers in schema order. Columns are packed with
    // no padding, so everything after the uint8 arch array is
    // unaligned whenever n % 8 != 0 -- hence memcpy-only access.
    count = static_cast<size_t>(n);
    const char *p = base + kHeaderBytes;
    cols.ids = p;
    p += count * sizeof(int64_t);
    cols.archs = p;
    p += count * sizeof(uint8_t);
    cols.cnodes = p;
    p += count * sizeof(int32_t);
    cols.ps = p;
    p += count * sizeof(int32_t);
    for (size_t k = 0; k < kNumFeatures; ++k) {
        cols.features[k] = p;
        p += count * sizeof(double);
    }
    return {};
}

/**
 * Check row @p i of sound columns. Returns the empty string when the
 * row is well-formed, else the error text ("job N: ...").
 */
std::string
rowError(const workload::JobColumns &cols, size_t i)
{
    auto rowFail = [i](const std::string &what) {
        return "job " + std::to_string(i) + ": " + what;
    };
    constexpr size_t kNumArch = std::size(workload::kAllArchTypes);
    uint8_t a = readRaw<uint8_t>(cols.archs + i);
    if (a >= kNumArch)
        return rowFail("bad architecture code " + std::to_string(a));
    int32_t num_cnodes =
        readRaw<int32_t>(cols.cnodes + i * sizeof(int32_t));
    if (num_cnodes < 1)
        return rowFail("bad num_cnodes " +
                       std::to_string(num_cnodes));
    int32_t num_ps = readRaw<int32_t>(cols.ps + i * sizeof(int32_t));
    if (num_ps < 0)
        return rowFail("bad num_ps " + std::to_string(num_ps));
    WorkloadFeatures f;
    for (size_t k = 0; k < kNumFeatures; ++k) {
        f.*kFeatureColumns[k] = readRaw<double>(
            cols.features[k] + i * sizeof(double));
    }
    if (!f.valid())
        return rowFail("features fail validation");
    return {};
}

} // namespace

StoreResult
viewBinary(std::string_view data, std::shared_ptr<const void> backing,
           runtime::ThreadPool *pool)
{
    obs::Span span("trace.map_bin", static_cast<int64_t>(data.size()));
    StoreResult r;
    size_t count = 0;
    workload::JobColumns cols;
    r.error = checkEnvelope(data, count, cols);
    if (!r.error.empty())
        return r;

    // Validate rows in place, in parallel. Each range reports its
    // first bad row; the minimum across ranges is the global first
    // bad row, so acceptance AND the reported error are those of a
    // serial pass for every pool size.
    size_t max_chunks = 1;
    if (pool && pool->size() > 1) {
        max_chunks = std::min<size_t>(
            static_cast<size_t>(pool->size()) * 4,
            std::max<size_t>(1, count / 4096));
    }
    auto chunks = runtime::alignedChunks(count, max_chunks,
                                         [](size_t pos) { return pos; });
    std::vector<size_t> first_bad(chunks.size(), count);
    runtime::parallelFor(pool, chunks.size(), [&](size_t c) {
        for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
            if (!rowError(cols, i).empty()) {
                first_bad[c] = i;
                return;
            }
        }
    });
    size_t bad = count;
    for (size_t b : first_bad)
        bad = std::min(bad, b);
    if (bad < count) {
        r.error = rowError(cols, bad);
        return r;
    }

    obs::counter("trace.rows_mapped").add(count);
    obs::counter("trace.bytes_mapped").add(data.size());
    r.ok = true;
    r.store = workload::JobStore::fromColumns(count, cols,
                                              std::move(backing));
    return r;
}

} // namespace paichar::trace
