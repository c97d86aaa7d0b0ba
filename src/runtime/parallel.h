/**
 * @file
 * Deterministic parallel-loop helpers over a ThreadPool.
 *
 * Every helper guarantees *bit-identical* results regardless of the
 * thread count, including the serial (no-pool) path:
 *
 *  - parallelFor / parallelMap write each index's result into a
 *    pre-sized slot, so scheduling order cannot change the output;
 *  - parallelReduce splits the range into fixed-size chunks whose
 *    boundaries depend only on the grain (never on the thread count),
 *    accumulates each chunk serially in index order, and combines the
 *    chunk partials in chunk order on the calling thread.
 *
 * Nested calls from inside a pool task run inline (serially) instead
 * of deadlocking on their own pool. Exceptions thrown by loop bodies
 * are captured and rethrown on the calling thread.
 *
 * The process-wide thread count resolves as: setThreadCount() if
 * called with n >= 1, else the PAICHAR_THREADS environment variable,
 * else std::thread::hardware_concurrency(). A count of 1 means no
 * pool at all: globalPool() returns nullptr and every helper runs the
 * plain serial path on the caller.
 */

#ifndef PAICHAR_RUNTIME_PARALLEL_H
#define PAICHAR_RUNTIME_PARALLEL_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace paichar::runtime {

/** std::thread::hardware_concurrency(), clamped to at least 1. */
int hardwareThreads();

/**
 * Override the process-wide thread count (n >= 1). n <= 0 clears the
 * override, falling back to PAICHAR_THREADS / hardware concurrency.
 * Any existing global pool is torn down and lazily rebuilt.
 */
void setThreadCount(int n);

/** The resolved process-wide thread count (always >= 1). */
int threadCount();

/**
 * The process-wide pool, sized to threadCount() workers; nullptr when
 * threadCount() == 1 (callers then take the exact serial path).
 */
ThreadPool *globalPool();

/**
 * Chunk size for deterministic reductions. Fixed so that chunk
 * boundaries -- and therefore floating-point combination order --
 * never depend on the thread count.
 */
inline constexpr size_t kReduceGrain = 1024;

/**
 * Invoke @p chunk(lo, hi) over disjoint ranges covering [0, n) in
 * steps of @p grain. Chunks run concurrently on @p pool (serially
 * inline when pool is null, has one worker, or we are already on a
 * pool thread). Blocks until every chunk completed; rethrows the
 * first captured exception.
 */
void parallelForChunks(ThreadPool *pool, size_t n, size_t grain,
                       const std::function<void(size_t, size_t)> &chunk);

/** Per-index loop over [0, n); body must only touch index-i state. */
void parallelFor(ThreadPool *pool, size_t n,
                 const std::function<void(size_t)> &body);

/**
 * Split [0, n) into at most @p max_chunks contiguous ranges whose
 * interior boundaries are moved forward by @p snap — e.g. to the next
 * record or line start, so each range covers only whole records.
 *
 * @p snap receives a tentative boundary in (0, n) and must return a
 * boundary position in [pos, n]. Boundaries depend only on n,
 * max_chunks and the record layout, never on the thread count, so a
 * caller that processes the ranges and splices the per-range results
 * in order gets output independent of how the ranges were scheduled.
 */
std::vector<std::pair<size_t, size_t>>
alignedChunks(size_t n, size_t max_chunks,
              const std::function<size_t(size_t)> &snap);

/** Map [0, n) through @p fn into a pre-sized vector, slot by index. */
template <typename T, typename Fn>
std::vector<T>
parallelMap(ThreadPool *pool, size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    parallelFor(pool, n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Deterministic reduction: @p chunkFn(lo, hi) maps each fixed-size
 * chunk to a partial accumulator; @p combine folds the partials in
 * chunk order, starting from @p init. Result is bit-identical for
 * every thread count because the chunking depends only on @p grain.
 */
template <typename Acc, typename ChunkFn, typename CombineFn>
Acc
parallelReduce(ThreadPool *pool, size_t n, Acc init, ChunkFn &&chunkFn,
               CombineFn &&combine, size_t grain = kReduceGrain)
{
    if (n == 0)
        return init;
    grain = std::max<size_t>(1, grain);
    size_t chunks = (n + grain - 1) / grain;
    std::vector<Acc> partials(chunks);
    parallelFor(pool, chunks, [&](size_t c) {
        size_t lo = c * grain;
        size_t hi = std::min(n, lo + grain);
        partials[c] = chunkFn(lo, hi);
    });
    Acc acc = std::move(init);
    for (size_t c = 0; c < chunks; ++c)
        acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

} // namespace paichar::runtime

#endif // PAICHAR_RUNTIME_PARALLEL_H
