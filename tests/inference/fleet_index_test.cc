/**
 * @file
 * The fleet's indexed state against the scans it replaces
 * (`ctest -L serve`): the completion heap pops equal times lowest
 * server first, and the least-load tree returns the lowest index
 * among the least-loaded Up servers -- never a Provisioning, Draining
 * or Down one -- while the autoscaler grows the fleet.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "inference/fleet_index.h"

namespace paichar::inference::detail {
namespace {

TEST(CompletionHeapTest, EqualTimesPopLowerServerFirst)
{
    CompletionHeap heap;
    heap.push({5.0, 3});
    heap.push({5.0, 1});
    heap.push({2.0, 7});
    heap.push({5.0, 2});
    heap.push({9.0, 0});
    const std::pair<double, size_t> expected[] = {
        {2.0, 7}, {5.0, 1}, {5.0, 2}, {5.0, 3}, {9.0, 0}};
    for (auto [time, server] : expected) {
        ASSERT_FALSE(heap.empty());
        EXPECT_EQ(heap.top().time, time);
        EXPECT_EQ(heap.top().server, server);
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

TEST(CompletionHeapTest, TopMatchesTheServerScan)
{
    // Busy servers re-arm with coarse times, so equal completions
    // are common; the top must be what the (time, server) scan of
    // the fleet picks.
    std::mt19937_64 rng(11);
    constexpr size_t kServers = 37;
    std::vector<double> completion(kServers, -1.0); // -1: idle
    CompletionHeap heap;
    for (int step = 0; step < 20000; ++step) {
        size_t s = rng() % kServers;
        if (completion[s] < 0.0) {
            completion[s] = static_cast<double>(rng() % 16);
            heap.push({completion[s], s});
        }
        if (rng() % 3 == 0 && !heap.empty()) {
            size_t best = kServers;
            for (size_t i = 0; i < kServers; ++i) {
                if (completion[i] >= 0.0 &&
                    (best == kServers ||
                     completion[i] < completion[best]))
                    best = i;
            }
            ASSERT_EQ(heap.top().server, best);
            ASSERT_EQ(heap.top().time, completion[best]);
            completion[best] = -1.0;
            heap.pop();
        }
    }
}

TEST(LeastLoadTreeTest, EmptyAndAllOutOfServiceReturnNone)
{
    LeastLoadTree tree;
    EXPECT_EQ(tree.argmin(), LeastLoadTree::kNone);
    tree.resize(3);
    EXPECT_EQ(tree.argmin(), LeastLoadTree::kNone);
    tree.set(1, 4);
    EXPECT_EQ(tree.argmin(), 1u);
    tree.remove(1);
    EXPECT_EQ(tree.argmin(), LeastLoadTree::kNone);
}

TEST(LeastLoadTreeTest, GrowingKeepsTheOrder)
{
    LeastLoadTree tree;
    tree.resize(3);
    tree.set(0, 2);
    tree.set(1, 1);
    tree.set(2, 1);
    EXPECT_EQ(tree.argmin(), 1u);
    // Appending past the power-of-two capacity keeps every key; the
    // appended servers start out of service (Provisioning).
    tree.resize(5);
    EXPECT_EQ(tree.argmin(), 1u);
    tree.set(4, 1);
    EXPECT_EQ(tree.argmin(), 1u); // equal load: lower index wins
    tree.set(3, 0);
    EXPECT_EQ(tree.argmin(), 3u);
    tree.resize(9);
    EXPECT_EQ(tree.argmin(), 3u);
    tree.remove(3);
    EXPECT_EQ(tree.argmin(), 1u);
    tree.resize(2); // never shrinks
    tree.set(8, 0);
    EXPECT_EQ(tree.argmin(), 8u);
}

TEST(LeastLoadTreeTest, MatchesTheUpServerScanUnderAutoscaling)
{
    // Mirrors the simulator's transitions: servers are appended as
    // Provisioning, come Up at a provision, load changes while Up,
    // and Up servers drain (Draining, later Down). The tree must
    // pick what least-queue's scan over the Up servers in index
    // order picks.
    enum class State
    {
        Up,
        Provisioning,
        Draining,
        Down,
    };
    std::mt19937_64 rng(5);
    std::vector<State> state(4, State::Up);
    std::vector<size_t> load(4, 0);
    LeastLoadTree tree;
    tree.resize(4);
    for (size_t i = 0; i < 4; ++i)
        tree.set(i, 0);
    for (int step = 0; step < 50000; ++step) {
        size_t n = state.size();
        size_t s = rng() % n;
        switch (rng() % 8) {
        case 0: // autoscaler adds a server
            if (n < 300) {
                state.push_back(State::Provisioning);
                load.push_back(0);
                tree.resize(state.size());
            }
            break;
        case 1: // provision lands
            if (state[s] == State::Provisioning) {
                state[s] = State::Up;
                tree.set(s, load[s]);
            }
            break;
        case 2: // drain
            if (state[s] == State::Up) {
                state[s] = rng() % 2 ? State::Draining : State::Down;
                tree.remove(s);
            }
            break;
        case 3:
        case 4: // completion
            if (load[s] > 0) {
                load[s] -= 1 + rng() % load[s];
                if (state[s] == State::Up)
                    tree.set(s, load[s]);
            }
            break;
        default: { // arrival, routed by least-queue
            size_t best = LeastLoadTree::kNone;
            for (size_t i = 0; i < n; ++i) {
                if (state[i] == State::Up &&
                    (best == LeastLoadTree::kNone ||
                     load[i] < load[best]))
                    best = i;
            }
            ASSERT_EQ(tree.argmin(), best) << "step " << step;
            if (best != LeastLoadTree::kNone) {
                ASSERT_EQ(state[best], State::Up);
                ++load[best];
                tree.set(best, load[best]);
            }
            break;
        }
        }
    }
}

} // namespace
} // namespace paichar::inference::detail
