/**
 * @file
 * Indexed fleet state behind FleetSimulator's event loop (DESIGN.md
 * Sec 14): the next completion and the least-loaded routable server,
 * each found in O(log servers) instead of a scan of the fleet. Both
 * break ties exactly as the scans they replace did: the lower server
 * index wins.
 */

#ifndef PAICHAR_INFERENCE_FLEET_INDEX_H
#define PAICHAR_INFERENCE_FLEET_INDEX_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

namespace paichar::inference::detail {

/** A busy server's pending completion. */
struct Completion
{
    double time;
    size_t server;
};

/** Orders a min-heap on (time, server). */
struct CompletesLater
{
    bool
    operator()(const Completion &a, const Completion &b) const
    {
        return a.time > b.time ||
               (a.time == b.time && a.server > b.server);
    }
};

/**
 * Min-heap of busy servers keyed (completion, server). A busy
 * server's completion never moves until it fires, so each busy server
 * holds exactly one entry and no decrease-key is needed; size() is the
 * busy count.
 */
using CompletionHeap =
    std::priority_queue<Completion, std::vector<Completion>,
                        CompletesLater>;

/**
 * Min tree over (load, index) of the servers in service. argmin() is
 * the least-loaded server in service, the lowest index among equal
 * loads; servers out of service are never returned.
 *
 * A node is one word, load in the high half and index in the low
 * half, so the word order is the (load, index) order and the whole
 * tree of a 1024-server fleet fits in 16 KB. A load saturates at
 * 2^32 - 2 requests (a queue that long would need 32 GB of ids).
 */
class LeastLoadTree
{
  public:
    static constexpr size_t kNone = std::numeric_limits<size_t>::max();

    /** Grows to @p n servers; new ones start out of service. */
    void
    resize(size_t n)
    {
        if (n <= leaves_)
            return;
        size_t leaves = leaves_ ? leaves_ : 1;
        while (leaves < n)
            leaves *= 2;
        std::vector<uint64_t> node(2 * leaves);
        for (size_t i = 0; i < leaves; ++i)
            node[leaves + i] =
                i < leaves_ ? node_[leaves_ + i] : key(kOut, i);
        for (size_t k = leaves - 1; k >= 1; --k)
            node[k] = std::min(node[2 * k], node[2 * k + 1]);
        node_ = std::move(node);
        leaves_ = leaves;
    }

    /** Puts server @p i (< the resized size) in service at @p load. */
    void
    set(size_t i, size_t load)
    {
        update(i, std::min<size_t>(load, kOut - 1));
    }

    /** Takes server @p i out of service. */
    void remove(size_t i) { update(i, kOut); }

    /** Least-loaded server in service, or kNone when there is none. */
    size_t
    argmin() const
    {
        if (leaves_ == 0 || (node_[1] >> 32) == kOut)
            return kNone;
        return static_cast<size_t>(node_[1] & 0xffffffffu);
    }

  private:
    static constexpr uint64_t kOut = 0xffffffffu; // load out of service

    static uint64_t
    key(uint64_t load, size_t i)
    {
        return load << 32 | static_cast<uint64_t>(i);
    }

    void
    update(size_t i, uint64_t load)
    {
        size_t k = leaves_ + i;
        node_[k] = key(load, i);
        // Walk up until a node keeps its old minimum: every ancestor
        // above it keeps theirs too.
        for (k /= 2; k >= 1; k /= 2) {
            uint64_t m = std::min(node_[2 * k], node_[2 * k + 1]);
            if (node_[k] == m)
                break;
            node_[k] = m;
        }
    }

    size_t leaves_ = 0; // a power of two once non-empty
    std::vector<uint64_t> node_; // 1-based heap layout; leaves at leaves_
};

} // namespace paichar::inference::detail

#endif // PAICHAR_INFERENCE_FLEET_INDEX_H
