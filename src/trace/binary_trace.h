/**
 * @file
 * `paib`: a versioned binary columnar trace format for million-job
 * populations, built for load speed — one read, a checksum sweep, and
 * a bulk copy per column; no text parsing at all.
 *
 * Layout (all integers and doubles little-endian, no padding):
 *
 *   offset 0   char[4]   magic "PAIB"
 *   offset 4   uint32    format version (currently 1)
 *   offset 8   uint64    job count N
 *   offset 16  column arrays, each N elements, in schema order:
 *                int64   id
 *                uint8   arch        (workload::ArchType enum value)
 *                int32   num_cnodes
 *                int32   num_ps
 *                double  batch_size, flop_count, mem_access_bytes,
 *                        input_bytes, comm_bytes,
 *                        embedding_comm_bytes, dense_weight_bytes,
 *                        embedding_weight_bytes
 *   last 8     uint64    FNV-1a-64 (word-folded) over every
 *                        preceding byte
 *
 * Doubles are stored as raw IEEE-754 bits, so the round trip is exact
 * for every finite value (CSV shares this guarantee via shortest
 * round-trip formatting, but `paib` is 25% smaller and needs no text
 * parsing). The columns are read in place: a validated payload
 * becomes a columnar workload::JobStore over the same bytes.
 */

#ifndef PAICHAR_TRACE_BINARY_TRACE_H
#define PAICHAR_TRACE_BINARY_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_io.h"
#include "workload/training_job.h"

namespace paichar::trace {

/** First bytes of every `paib` payload. */
inline constexpr char kBinaryMagic[4] = {'P', 'A', 'I', 'B'};

/** Current (and only) `paib` format version. */
inline constexpr uint32_t kBinaryVersion = 1;

/** True when @p data starts with the `paib` magic. */
bool looksBinary(std::string_view data);

/** Serialize jobs to a `paib` payload. */
std::string toBinary(const std::vector<workload::TrainingJob> &jobs);

/**
 * Validate a `paib` payload and view it as a columnar JobStore.
 * Malformed input — bad magic, unsupported version, truncated
 * columns, checksum mismatch, or invalid job values — yields a clean
 * error, never a crash. Rows are validated in parallel on @p pool,
 * and the first bad row is the one reported, for every pool size.
 * The store reads @p data in place and holds @p backing, which must
 * keep @p data alive.
 */
StoreResult viewBinary(std::string_view data,
                       std::shared_ptr<const void> backing,
                       runtime::ThreadPool *pool);

} // namespace paichar::trace

#endif // PAICHAR_TRACE_BINARY_TRACE_H
