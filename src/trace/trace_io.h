/**
 * @file
 * Trace serialization: read/write job populations as CSV or as the
 * `paib` binary columnar format, so the analysis pipeline can run on
 * externally collected traces (the production use case) as well as
 * synthetic ones — at million-job scale.
 *
 * CSV schema (one header line, then one line per job):
 *   id,arch,num_cnodes,num_ps,batch_size,flop_count,
 *   mem_access_bytes,input_bytes,comm_bytes,embedding_comm_bytes,
 *   dense_weight_bytes,embedding_weight_bytes
 *
 * `arch` uses the paper-style names ("1w1g", "PS/Worker", ...); all
 * quantities are plain decimal numbers in base units, written in the
 * shortest form that round-trips the exact double value.
 * `num_cnodes` (at least 1) and `num_ps` (at least 0) must fit in
 * int32, the width of their `paib` columns. Lines end in LF; CRLF
 * input is accepted; blank lines are skipped.
 *
 * Parsing is single-pass and allocation-free per field
 * (std::string_view scanning + std::from_chars) and optionally
 * parallel: the buffer is split into line-aligned chunks parsed
 * concurrently and spliced in index order, so jobs *and* error line
 * numbers are byte-identical to the serial path for any thread count.
 *
 * Every trace enters through one decode step: readTraceStore() for a
 * path, parseTrace() for bytes already in memory. Both detect the
 * binary format (binary_trace.h) by magic and return a JobStore.
 */

#ifndef PAICHAR_TRACE_TRACE_IO_H
#define PAICHAR_TRACE_TRACE_IO_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/job_store.h"
#include "workload/training_job.h"

namespace paichar::runtime {
class ThreadPool;
} // namespace paichar::runtime

namespace paichar::trace {

/** Outcome of parsing a CSV trace into jobs. */
struct ParseResult
{
    bool ok = false;
    /** Human-readable error with a 1-based line number when !ok. */
    std::string error;
    std::vector<workload::TrainingJob> jobs;
};

/** On-disk trace encodings. */
enum class TraceFormat
{
    /** Human-readable CSV (the interchange default). */
    Csv,
    /** `paib` binary columnar (binary_trace.h); 25% smaller, and
        read in place with no text parsing. */
    Binary,
};

/** CLI spelling: "csv" or "bin". */
std::string toString(TraceFormat f);

/** Inverse of toString(TraceFormat); nullopt for unknown names. */
std::optional<TraceFormat> traceFormatFromString(std::string_view name);

/** Serialize jobs to CSV (with header). */
std::string toCsv(const std::vector<workload::TrainingJob> &jobs);

/**
 * Parse a CSV trace; validates header, field count and values.
 *
 * When @p pool is non-null the body is parsed in parallel over
 * line-aligned chunks; the result (jobs and any error message) is
 * byte-identical to the serial path for every pool size.
 */
ParseResult fromCsv(std::string_view text,
                    runtime::ThreadPool *pool = nullptr);

/** Write a trace to a file in @p format; false on I/O failure. */
bool writeTraceFile(const std::string &path,
                    const std::vector<workload::TrainingJob> &jobs,
                    TraceFormat format);

/** Outcome of loading a trace into a JobStore. */
struct StoreResult
{
    bool ok = false;
    /** Human-readable error when !ok: "line N: ..." for CSV, "job N:
        ..." or an envelope message for `paib`, "cannot ..." for I/O. */
    std::string error;
    workload::JobStore store;
};

/**
 * Decode a trace held in memory, auto-detecting the format by magic.
 *
 * `paib` payloads are validated in place (rows in parallel on
 * @p pool) and come back as a columnar store that owns @p bytes, so
 * jobs are assembled on access. Anything else parses as CSV (on
 * @p pool when given) into an owned store. Error text and jobs are
 * the same for every pool size.
 */
StoreResult parseTrace(std::string bytes,
                       runtime::ThreadPool *pool = nullptr);

/**
 * Read a trace file into a JobStore, zero-copy where possible.
 *
 * A regular file is memory-mapped, so a 100M-job `paib` trace costs
 * no per-job heap state: the store borrows the mapping's columns and
 * keeps it alive. Anything that cannot be mapped (a pipe, or every
 * file on a platform without mmap) is read to EOF first. Either way
 * the bytes take the parseTrace() decode step, with the same result
 * and error text. A missing file fails with "cannot open '...'", an
 * unreadable one (a directory) with "cannot read '...'".
 */
StoreResult readTraceStore(const std::string &path,
                           runtime::ThreadPool *pool = nullptr);

} // namespace paichar::trace

#endif // PAICHAR_TRACE_TRACE_IO_H
