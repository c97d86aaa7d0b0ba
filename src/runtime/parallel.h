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
 *    chunk partials in chunk order on the calling thread;
 *  - parallelSortByKey is a stable sort: its output is exactly
 *    std::stable_sort by key, so equal elements keep their input
 *    order at every thread count.
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
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
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

/**
 * Run length of parallelSortByKey: each run is radix-sorted as one
 * task, then the runs are merged.
 */
inline constexpr size_t kSortRun = size_t{1} << 15;

/**
 * An order-preserving sort key for a finite double: a < b exactly
 * when doubleSortKey(a) < doubleSortKey(b). A non-negative value gets
 * its sign bit set and a negative one has every bit flipped; -0.0
 * takes +0.0's key, so the two zeros tie, as they compare equal.
 */
inline uint64_t
doubleSortKey(double x)
{
    // Branch-free, as the radix sort computes a key on every pass:
    // x + 0.0 is x except that -0.0 becomes +0.0 (round to nearest),
    // and the mask is all ones for a negative value, else the sign bit.
    uint64_t bits = std::bit_cast<uint64_t>(x + 0.0);
    return bits ^ (-(bits >> 63) | (uint64_t{1} << 63));
}

namespace detail {

struct FreeDeleter
{
    void operator()(void *p) const { std::free(p); }
};

/**
 * Storage for n elements of T that is not zero-filled. new T[n], and
 * so std::make_unique_for_overwrite, would still run std::pair's
 * default constructor, which zeroes both members. malloc creates the
 * elements implicitly, which T's trivial copy constructor and
 * destructor allow.
 */
template <typename T>
std::unique_ptr<T[], FreeDeleter>
uninitializedArray(size_t n)
{
    static_assert(std::is_trivially_copy_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t));
    void *p = std::malloc(std::max<size_t>(n, 1) * sizeof(T));
    if (!p)
        throw std::bad_alloc();
    return std::unique_ptr<T[], FreeDeleter>(static_cast<T *>(p));
}

/**
 * Stable LSD radix sort of v[0, n) by @p key, 8 bits a pass, moving
 * the elements back and forth between v and @p scratch. One pass
 * counts all eight digits; a digit that is the same in every key is
 * skipped. Returns where the sorted elements ended: v or scratch.
 */
template <typename T, typename Key>
T *
radixSortRun(T *v, T *scratch, size_t n, const Key &key)
{
    static_assert(kSortRun <= UINT32_MAX);
    assert(n >= 1 && n <= kSortRun);
    uint32_t count[8][256] = {};
    for (size_t i = 0; i < n; ++i) {
        uint64_t k = key(v[i]);
        for (int d = 0; d < 8; ++d)
            ++count[d][(k >> (8 * d)) & 0xff];
    }
    T *src = v, *dst = scratch;
    for (int d = 0; d < 8; ++d) {
        const int shift = 8 * d;
        uint32_t *pos = count[d];
        if (pos[(key(src[0]) >> shift) & 0xff] == n)
            continue;
        uint32_t sum = 0;
        for (int b = 0; b < 256; ++b)
            sum += std::exchange(pos[b], sum);
        for (size_t i = 0; i < n; ++i)
            dst[pos[(key(src[i]) >> shift) & 0xff]++] = src[i];
        std::swap(src, dst);
    }
    return src;
}

} // namespace detail

/**
 * Stable sort of @p v by the uint64_t @p key(element) on @p pool:
 * the output is exactly std::stable_sort by key, so it is the same at
 * every thread count, with no pool, and nested on a worker.
 *
 * The input is cut into runs of kSortRun elements (boundaries depend
 * only on v.size()), and each run is radix-sorted as one task (see
 * detail::radixSortRun). The runs are then merged pairwise, level by
 * level, with a stable merge. Every merge is split into kSortRun-long
 * slices of its output by merge-path co-ranking, so the last levels
 * -- one or two merges of most of the input -- still spread over the
 * pool. Two runs already in order are copied, not merged. The merge
 * buffer doubles as the runs' radix scratch. Needs T trivially
 * copy-constructible and destructible.
 */
template <typename T, typename Key>
void
parallelSortByKey(ThreadPool *pool, std::vector<T> &v, Key key)
{
    const size_t n = v.size();
    if (n < 2)
        return;
    size_t levels = 0;
    for (size_t width = kSortRun; width < n; width *= 2)
        ++levels;
    auto buf = detail::uninitializedArray<T>(n);
    // Leave the sorted runs where the last merge level writes into v.
    T *runs = levels % 2 ? buf.get() : v.data();
    T *spare = levels % 2 ? v.data() : buf.get();
    parallelForChunks(pool, n, kSortRun, [&](size_t lo, size_t hi) {
        T *out = detail::radixSortRun(v.data() + lo, buf.get() + lo,
                                      hi - lo, key);
        if (out != runs + lo)
            std::copy(out, out + (hi - lo), runs + lo);
    });

    auto less = [&](const T &a, const T &b) { return key(a) < key(b); };
    T *src = runs, *dst = spare;
    for (size_t width = kSortRun; width < n; width *= 2) {
        // Output slice [lo, hi) lies inside one merge of the runs
        // [base, mid) and [mid, end): 2*width is a multiple of
        // kSortRun, so no slice straddles two merges.
        parallelForChunks(pool, n, kSortRun, [&](size_t lo, size_t hi) {
            size_t base = lo / (2 * width) * (2 * width);
            size_t mid = std::min(n, base + width);
            size_t end = std::min(n, base + 2 * width);
            const T *a = src + base, *b = src + mid;
            size_t na = mid - base, nb = end - mid;
            // Runs already in order merge to themselves.
            if (nb == 0 || !less(b[0], a[na - 1])) {
                std::copy(src + lo, src + hi, dst + lo);
                return;
            }
            // Co-rank: how many of the first d merged elements come
            // from run a. A stable merge takes a[i] before b[j] unless
            // b[j] < a[i], so the count is the first i where a[i] no
            // longer precedes b[d-i-1].
            auto corank = [&](size_t d) {
                size_t l = d > nb ? d - nb : 0, h = std::min(d, na);
                while (l < h) {
                    size_t i = l + (h - l) / 2;
                    if (!less(b[d - i - 1], a[i]))
                        l = i + 1;
                    else
                        h = i;
                }
                return l;
            };
            size_t i0 = corank(lo - base), i1 = corank(hi - base);
            size_t j0 = lo - base - i0, j1 = hi - base - i1;
            std::merge(a + i0, a + i1, b + j0, b + j1, dst + lo, less);
        });
        std::swap(src, dst);
    }
}

} // namespace paichar::runtime

#endif // PAICHAR_RUNTIME_PARALLEL_H
