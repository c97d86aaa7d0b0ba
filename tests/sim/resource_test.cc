/**
 * @file
 * Tests for the FIFO rate-limited resource.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/resource.h"

namespace paichar::sim {
namespace {

TEST(ResourceTest, SingleRequestTiming)
{
    EventQueue eq;
    Resource link(eq, "link", 100.0); // 100 units/s
    double start = -1, end = -1;
    link.submit(50.0, [&](SimTime s, SimTime e) {
        start = s;
        end = e;
    });
    eq.run();
    EXPECT_DOUBLE_EQ(start, 0.0);
    EXPECT_DOUBLE_EQ(end, 0.5);
    EXPECT_DOUBLE_EQ(link.busyTime(), 0.5);
    EXPECT_DOUBLE_EQ(link.totalAmount(), 50.0);
    EXPECT_EQ(link.requests(), 1u);
}

TEST(ResourceTest, FifoSerialization)
{
    EventQueue eq;
    Resource link(eq, "link", 10.0);
    std::vector<double> ends;
    for (int i = 0; i < 3; ++i) {
        link.submit(10.0, [&](SimTime, SimTime e) {
            ends.push_back(e);
        });
    }
    eq.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_DOUBLE_EQ(ends[0], 1.0);
    EXPECT_DOUBLE_EQ(ends[1], 2.0);
    EXPECT_DOUBLE_EQ(ends[2], 3.0);
}

TEST(ResourceTest, OverheadChargedPerRequest)
{
    EventQueue eq;
    Resource gpu(eq, "gpu", 1.0, 0.25); // amounts are seconds
    double end = -1;
    gpu.submit(1.0);
    gpu.submit(1.0, [&](SimTime, SimTime e) { end = e; });
    eq.run();
    EXPECT_DOUBLE_EQ(end, 2.5); // 2 * (0.25 + 1.0)
    EXPECT_DOUBLE_EQ(gpu.busyTime(), 2.5);
    EXPECT_DOUBLE_EQ(gpu.totalAmount(), 2.0);
}

TEST(ResourceTest, LateSubmissionStartsAtNow)
{
    EventQueue eq;
    Resource link(eq, "link", 10.0);
    double start2 = -1;
    eq.schedule(5.0, [&] {
        link.submit(10.0, [&](SimTime s, SimTime) { start2 = s; });
    });
    link.submit(10.0); // busy until t=1
    eq.run();
    EXPECT_DOUBLE_EQ(start2, 5.0); // idle gap from 1 to 5
    EXPECT_DOUBLE_EQ(link.busyTime(), 2.0);
}

TEST(ResourceTest, ZeroAmountCompletesAfterOverheadOnly)
{
    EventQueue eq;
    Resource r(eq, "r", 1.0, 0.5);
    double end = -1;
    r.submit(0.0, [&](SimTime, SimTime e) { end = e; });
    eq.run();
    EXPECT_DOUBLE_EQ(end, 0.5);
}

// submit() returns the interval its completion later receives: for
// queued, late (after an idle gap) and zero-amount requests alike.
TEST(ResourceTest, SubmitReturnsItsServiceInterval)
{
    EventQueue eq;
    Resource r(eq, "r", 10.0, 0.5);
    std::vector<ServiceInterval> returned;
    std::vector<ServiceInterval> completed;
    auto submit = [&](double amount) {
        returned.push_back(r.submit(
            amount, [&](SimTime s, SimTime e) {
                completed.push_back({s, e});
            }));
    };
    submit(10.0); // [0, 1.5)
    submit(0.0);  // queued behind it: [1.5, 2)
    eq.schedule(5.0, [&] {
        submit(20.0); // late, after an idle gap: [5, 7.5)
        submit(0.0);  // [7.5, 8)
    });
    eq.run();
    ASSERT_EQ(returned.size(), 4u);
    ASSERT_EQ(completed.size(), 4u);
    for (size_t i = 0; i < returned.size(); ++i) {
        EXPECT_EQ(returned[i].start, completed[i].start) << i;
        EXPECT_EQ(returned[i].end, completed[i].end) << i;
    }
    EXPECT_DOUBLE_EQ(returned[1].start, 1.5);
    EXPECT_DOUBLE_EQ(returned[1].end, 2.0);
    EXPECT_DOUBLE_EQ(returned[2].start, 5.0);
    EXPECT_DOUBLE_EQ(returned[2].end, 7.5);
    EXPECT_DOUBLE_EQ(returned[3].end, 8.0);
    // Without a completion nothing is scheduled.
    ServiceInterval quiet = r.submit(10.0);
    EXPECT_DOUBLE_EQ(quiet.start, 8.0);
    EXPECT_DOUBLE_EQ(quiet.end, 9.5);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(ResourceTest, Utilization)
{
    EventQueue eq;
    Resource r(eq, "r", 10.0);
    r.submit(10.0);
    eq.run();
    EXPECT_DOUBLE_EQ(r.utilization(2.0), 0.5);
}

} // namespace
} // namespace paichar::sim
