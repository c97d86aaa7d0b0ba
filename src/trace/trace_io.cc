#include "trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "obs/obs.h"
#include "runtime/parallel.h"
#include "trace/binary_trace.h"
#include "trace/mmap_file.h"

namespace paichar::trace {

using workload::TrainingJob;

namespace {

constexpr std::string_view kHeader =
    "id,arch,num_cnodes,num_ps,batch_size,flop_count,"
    "mem_access_bytes,input_bytes,comm_bytes,embedding_comm_bytes,"
    "dense_weight_bytes,embedding_weight_bytes";

constexpr size_t kFields = 12;

/** Chunks below this size are not worth a pool dispatch. */
constexpr size_t kMinChunkBytes = size_t{64} * 1024;

ParseResult
fail(size_t line_no, const std::string &what)
{
    ParseResult r;
    r.ok = false;
    r.error = "line " + std::to_string(line_no) + ": " + what;
    return r;
}

/**
 * Append @p v in the shortest form that parses back to the exact
 * same double -- always via to_chars, so every number in a CSV row
 * carries the round-trip guarantee (a %.17g fallback used to live
 * here and emitted a *different* spelling for the same value). The
 * 40-byte buffer has headroom over the 24-character worst case of
 * shortest-form doubles, so to_chars cannot fail; the defensive
 * throw keeps the failure mode defined (never a truncated row) if
 * that invariant is ever broken.
 */
void
appendNumber(std::string &out, double v)
{
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    if (res.ec != std::errc())
        throw std::logic_error(
            "toCsv: to_chars overflowed its buffer");
    out.append(buf, res.ptr);
}

void
appendNumber(std::string &out, int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/**
 * Everything one line-aligned chunk of the body produces. Chunks are
 * parsed independently and spliced in index order, so the combined
 * jobs — and the first error's global line number — are identical to
 * a serial scan no matter how many chunks or threads were used.
 */
struct ChunkOutcome
{
    std::vector<TrainingJob> jobs;
    /**
     * Lines consumed: all lines in the chunk (including blank ones),
     * or, when has_error, the 1-based index of the offending line
     * within the chunk.
     */
    size_t lines = 0;
    bool has_error = false;
    /** Error text without the "line N: " prefix. */
    std::string error;
};

/**
 * The row grammar: parse one row by walking a pointer through
 * [p, end), letting from_chars do the delimiting (no field pre-split,
 * no allocation). Returns the position just past the row's line
 * ending, or nullptr with @p bad set to the schema index of the first
 * field that failed (trailing junk counts against the last field),
 * or to kFields when every field parses but the features fail
 * validation.
 *
 * @p end is the chunk end; a scan can only reach a later line of the
 * same chunk through a row with too few fields (architecture names
 * never contain '\n'), and rowError() reports those by their count.
 */
const char *
parseLine(const char *p, const char *end, TrainingJob &j, size_t &bad)
{
    auto failAt = [&bad](size_t field) -> const char * {
        bad = field;
        return nullptr;
    };
    // An integer field in [lo, hi] and its ',' delimiter. The counts
    // stop at int32 max, the width of their paib columns.
    int64_t iv;
    auto intField = [&](int64_t lo, int64_t hi) {
        auto r = std::from_chars(p, end, iv);
        if (r.ec != std::errc() || r.ptr == end || *r.ptr != ',' ||
            iv < lo || iv > hi)
            return false;
        p = r.ptr + 1;
        return true;
    };
    constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

    if (!intField(std::numeric_limits<int64_t>::min(),
                  std::numeric_limits<int64_t>::max()))
        return failAt(0);
    j.id = iv;

    const char *c = static_cast<const char *>(
        std::memchr(p, ',', static_cast<size_t>(end - p)));
    auto arch = c ? workload::archFromString(
                        {p, static_cast<size_t>(c - p)})
                  : std::nullopt;
    if (!arch)
        return failAt(1);
    j.arch = *arch;
    p = c + 1;

    if (!intField(1, kInt32Max))
        return failAt(2);
    j.num_cnodes = static_cast<int>(iv);
    if (!intField(0, kInt32Max))
        return failAt(3);
    j.num_ps = static_cast<int>(iv);

    // Unrolled so each value lands straight in its member instead of
    // through a pointer table the optimizer cannot hoist.
#define PAICHAR_PARSE_FEATURE(member, field, delim)                   \
    {                                                                 \
        auto rd = std::from_chars(p, end, j.features.member);         \
        if (rd.ec != std::errc() ||                                   \
            !std::isfinite(j.features.member))                        \
            return failAt(field);                                     \
        p = rd.ptr;                                                   \
        if (delim) {                                                  \
            if (p == end || *p != ',')                                \
                return failAt(field);                                 \
            ++p;                                                      \
        }                                                             \
    }
    PAICHAR_PARSE_FEATURE(batch_size, 4, true)
    PAICHAR_PARSE_FEATURE(flop_count, 5, true)
    PAICHAR_PARSE_FEATURE(mem_access_bytes, 6, true)
    PAICHAR_PARSE_FEATURE(input_bytes, 7, true)
    PAICHAR_PARSE_FEATURE(comm_bytes, 8, true)
    PAICHAR_PARSE_FEATURE(embedding_comm_bytes, 9, true)
    PAICHAR_PARSE_FEATURE(dense_weight_bytes, 10, true)
    PAICHAR_PARSE_FEATURE(embedding_weight_bytes, 11, false)
#undef PAICHAR_PARSE_FEATURE
    // Row terminator: end of chunk, LF, or CRLF.
    if (p != end) {
        if (*p == '\n') {
            ++p;
        } else if (*p == '\r' && (p + 1 == end || p[1] == '\n')) {
            p += (p + 1 == end) ? 1 : 2;
        } else {
            return failAt(kFields - 1); // extra fields or trailing junk
        }
    }
    if (!j.features.valid())
        return failAt(kFields);
    return p;
}

/**
 * The message for @p line, which parseLine() rejected at field
 * @p bad: a wrong field count comes first, else the failed field is
 * quoted.
 */
std::string
rowError(std::string_view line, size_t bad)
{
    // One trailing '\r' is the CRLF line ending; any other is data.
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    size_t nfields =
        1 + static_cast<size_t>(std::count(line.begin(), line.end(), ','));
    if (nfields != kFields) {
        return "expected " + std::to_string(kFields) + " fields, got " +
               std::to_string(nfields);
    }
    if (bad == kFields)
        return "features fail validation";
    size_t start = 0;
    for (size_t k = 0; k < bad; ++k)
        start = line.find(',', start) + 1;
    std::string_view field =
        line.substr(start, line.find(',', start) - start);
    constexpr const char *kWhat[] = {"bad id", "unknown architecture",
                                     "bad num_cnodes", "bad num_ps"};
    return std::string(bad < std::size(kWhat) ? kWhat[bad]
                                              : "bad numeric field") +
           " '" + std::string(field) + "'";
}

/** Parse body[lo, hi); lo and hi sit on line starts (or at the end). */
ChunkOutcome
parseChunk(std::string_view body, size_t lo, size_t hi)
{
    ChunkOutcome out;
    // Rows are ~90-180 bytes; an 80-byte estimate over-reserves
    // slightly instead of reallocating mid-chunk.
    out.jobs.reserve((hi - lo) / 80 + 1);

    const char *p = body.data() + lo;
    const char *end = body.data() + hi;
    while (p < end) {
        ++out.lines;
        // Blank lines ("" or lone "\r") are skipped but counted.
        if (*p == '\n') {
            ++p;
            continue;
        }
        if (*p == '\r' && (p + 1 == end || p[1] == '\n')) {
            p += (p + 1 == end) ? 1 : 2;
            continue;
        }

        size_t bad = 0;
        if (const char *next =
                parseLine(p, end, out.jobs.emplace_back(), bad)) {
            p = next;
            continue;
        }

        const char *nl = static_cast<const char *>(std::memchr(
            p, '\n', static_cast<size_t>(end - p)));
        out.jobs.pop_back();
        out.has_error = true;
        out.error = rowError(
            {p, static_cast<size_t>((nl ? nl : end) - p)}, bad);
        return out;
    }
    return out;
}

/**
 * The decode step shared by both entry points. A `paib` store reads
 * @p data in place and keeps @p backing alive; CSV parses into an
 * owned store and drops it.
 */
StoreResult
decode(std::string_view data, std::shared_ptr<const void> backing,
       runtime::ThreadPool *pool)
{
    if (looksBinary(data))
        return viewBinary(data, std::move(backing), pool);
    ParseResult parsed = fromCsv(data, pool);
    StoreResult r;
    r.ok = parsed.ok;
    r.error = std::move(parsed.error);
    r.store = workload::JobStore(std::move(parsed.jobs));
    return r;
}

} // namespace

std::string
toString(TraceFormat f)
{
    return f == TraceFormat::Binary ? "bin" : "csv";
}

std::optional<TraceFormat>
traceFormatFromString(std::string_view name)
{
    if (name == "csv")
        return TraceFormat::Csv;
    if (name == "bin")
        return TraceFormat::Binary;
    return std::nullopt;
}

std::string
toCsv(const std::vector<TrainingJob> &jobs)
{
    obs::Span span("trace.serialize_csv",
                   static_cast<int64_t>(jobs.size()));
    std::string out;
    // Typical rows are under 120 bytes; a slight over-reserve means
    // the writer appends into one allocation end to end.
    out.reserve(kHeader.size() + 1 + jobs.size() * 128);
    out += kHeader;
    out += '\n';
    for (const TrainingJob &j : jobs) {
        const auto &f = j.features;
        appendNumber(out, static_cast<int64_t>(j.id));
        out += ',';
        out += workload::toString(j.arch);
        out += ',';
        appendNumber(out, static_cast<int64_t>(j.num_cnodes));
        out += ',';
        appendNumber(out, static_cast<int64_t>(j.num_ps));
        for (double v : {f.batch_size, f.flop_count,
                         f.mem_access_bytes, f.input_bytes,
                         f.comm_bytes, f.embedding_comm_bytes,
                         f.dense_weight_bytes,
                         f.embedding_weight_bytes}) {
            out += ',';
            appendNumber(out, v);
        }
        out += '\n';
    }
    obs::counter("trace.rows_serialized").add(jobs.size());
    obs::counter("trace.bytes_serialized").add(out.size());
    return out;
}

ParseResult
fromCsv(std::string_view text, runtime::ThreadPool *pool)
{
    obs::Span span("trace.parse_csv",
                   static_cast<int64_t>(text.size()));
    static obs::Counter &parse_errors =
        obs::counter("trace.parse_errors");
    if (text.empty()) {
        parse_errors.add();
        return fail(1, "empty input");
    }

    size_t header_end = text.find('\n');
    std::string_view header = header_end == std::string_view::npos
                                  ? text
                                  : text.substr(0, header_end);
    if (!header.empty() && header.back() == '\r')
        header.remove_suffix(1);
    if (header != kHeader) {
        parse_errors.add();
        return fail(1, "unexpected header");
    }

    std::string_view body = header_end == std::string_view::npos
                                ? std::string_view{}
                                : text.substr(header_end + 1);

    // Line-aligned chunks; boundaries never depend on the thread
    // count, and splicing in chunk order makes the thread count
    // unobservable in the output either way.
    size_t max_chunks = 1;
    if (pool && pool->size() > 1) {
        max_chunks = std::min<size_t>(
            static_cast<size_t>(pool->size()) * 4,
            std::max<size_t>(1, body.size() / kMinChunkBytes));
    }
    auto chunks = runtime::alignedChunks(
        body.size(), max_chunks, [&](size_t pos) {
            size_t nl = body.find('\n', pos);
            return nl == std::string_view::npos ? body.size()
                                                : nl + 1;
        });

    std::vector<ChunkOutcome> outcomes(chunks.size());
    runtime::parallelFor(pool, chunks.size(), [&](size_t i) {
        obs::Span chunk_span(
            "trace.parse_chunk",
            static_cast<int64_t>(chunks[i].second -
                                 chunks[i].first));
        outcomes[i] =
            parseChunk(body, chunks[i].first, chunks[i].second);
    });

    // Stitch in chunk order: global line numbers are the header (line
    // 1) plus every line of the preceding chunks.
    size_t line_base = 1;
    size_t total = 0;
    for (const ChunkOutcome &o : outcomes) {
        if (o.has_error) {
            parse_errors.add();
            return fail(line_base + o.lines, o.error);
        }
        line_base += o.lines;
        total += o.jobs.size();
    }
    obs::counter("trace.rows_parsed").add(total);
    obs::counter("trace.bytes_parsed").add(text.size());

    ParseResult r;
    r.ok = true;
    if (outcomes.size() == 1) {
        // Serial path: adopt the chunk's vector instead of copying
        // ~100 MB of jobs through a second allocation.
        r.jobs = std::move(outcomes[0].jobs);
    } else {
        r.jobs.reserve(total);
        for (ChunkOutcome &o : outcomes) {
            r.jobs.insert(r.jobs.end(), o.jobs.begin(),
                          o.jobs.end());
        }
    }
    return r;
}

bool
writeTraceFile(const std::string &path,
               const std::vector<TrainingJob> &jobs,
               TraceFormat format)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    std::string data = format == TraceFormat::Binary ? toBinary(jobs)
                                                     : toCsv(jobs);
    os.write(data.data(),
             static_cast<std::streamsize>(data.size()));
    return static_cast<bool>(os);
}

StoreResult
parseTrace(std::string bytes, runtime::ThreadPool *pool)
{
    auto owned = std::make_shared<const std::string>(std::move(bytes));
    std::string_view data = *owned;
    return decode(data, std::move(owned), pool);
}

StoreResult
readTraceStore(const std::string &path, runtime::ThreadPool *pool)
{
    if (auto mapped = MappedFile::map(path)) {
        auto backing =
            std::make_shared<const MappedFile>(std::move(*mapped));
        return decode(backing->view(), backing, pool);
    }

    // Not a regular file (a pipe), or no mmap on this platform: read
    // to EOF, whatever size the file claims.
    StoreResult r;
    struct Closer
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        r.error = "cannot open '" + path + "'";
        return r;
    }
    std::string bytes;
    char buf[64 * 1024];
    while (size_t n = std::fread(buf, 1, sizeof buf, f.get()))
        bytes.append(buf, n);
    if (std::ferror(f.get())) {
        r.error = "cannot read '" + path + "'";
        return r;
    }
    return parseTrace(std::move(bytes), pool);
}

} // namespace paichar::trace
