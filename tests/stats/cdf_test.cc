/**
 * @file
 * Tests for the weighted empirical CDF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/parallel.h"
#include "stats/cdf.h"
#include "stats/rng.h"

namespace paichar::stats {
namespace {

TEST(WeightedCdfTest, EmptyAndCounts)
{
    WeightedCdf cdf;
    EXPECT_TRUE(cdf.empty());
    EXPECT_EQ(cdf.size(), 0u);
    cdf.add(1.0);
    cdf.add(2.0, 3.0);
    EXPECT_FALSE(cdf.empty());
    EXPECT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf.totalWeight(), 4.0);
}

TEST(WeightedCdfTest, ProbAtOrBelowUnweighted)
{
    WeightedCdf cdf;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        cdf.add(v);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(100.0), 1.0);
}

TEST(WeightedCdfTest, ProbAtOrBelowWeighted)
{
    WeightedCdf cdf;
    cdf.add(1.0, 1.0);
    cdf.add(2.0, 9.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(1.5), 0.1);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(2.0), 1.0);
}

TEST(WeightedCdfTest, QuantilesAndMedian)
{
    WeightedCdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(cdf.median(), 50.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 25.0);
}

TEST(WeightedCdfTest, WeightedQuantile)
{
    WeightedCdf cdf;
    cdf.add(10.0, 1.0);
    cdf.add(20.0, 1.0);
    cdf.add(30.0, 8.0);
    EXPECT_DOUBLE_EQ(cdf.median(), 30.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.1), 10.0);
}

TEST(WeightedCdfTest, MinMaxMean)
{
    WeightedCdf cdf;
    cdf.add(5.0, 1.0);
    cdf.add(-1.0, 1.0);
    cdf.add(3.0, 2.0);
    EXPECT_DOUBLE_EQ(cdf.min(), -1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), (5.0 - 1.0 + 6.0) / 4.0);
}

TEST(WeightedCdfTest, ZeroWeightSamplesDoNotMoveProbability)
{
    WeightedCdf cdf;
    cdf.add(1.0, 0.0);
    cdf.add(2.0, 1.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(1.0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(2.0), 1.0);
}

TEST(WeightedCdfTest, CurveEndpointsAndLength)
{
    WeightedCdf cdf;
    for (double v : {0.0, 1.0, 2.0, 3.0})
        cdf.add(v);
    auto curve = cdf.curve(11);
    ASSERT_EQ(curve.size(), 11u);
    EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
    EXPECT_DOUBLE_EQ(curve.back().first, 3.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(WeightedCdfTest, InsertAfterQueryReSorts)
{
    WeightedCdf cdf;
    cdf.add(2.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(2.0), 1.0);
    cdf.add(1.0);
    EXPECT_DOUBLE_EQ(cdf.probAtOrBelow(1.0), 0.5);
}

using Samples = std::vector<std::pair<double, double>>;

/**
 * @p n samples drawn from a few dozen distinct values with integer
 * weights (1 or a cNode-like count, zeros included), so runs of equal
 * values are long and carry mixed weights -- the shape of the
 * characterizer's CDFs.
 */
Samples
tieHeavySamples(uint64_t seed, size_t n)
{
    Rng rng(seed);
    Samples out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        double value =
            static_cast<double>(rng.uniformInt(0, 40)) / 40.0;
        double weight = rng.bernoulli(0.5)
                            ? 1.0
                            : static_cast<double>(rng.uniformInt(0, 64));
        out.emplace_back(value, weight);
    }
    return out;
}

WeightedCdf
addOneByOne(const Samples &samples)
{
    WeightedCdf cdf;
    for (const auto &[v, w] : samples)
        cdf.add(v, w);
    return cdf;
}

/** Every query agrees bit for bit (mean excluded: see callers). */
void
expectIdenticalQueries(const WeightedCdf &a, const WeightedCdf &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.totalWeight(), b.totalWeight());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (int k = 0; k <= 1000; ++k) {
        double q = k / 1000.0;
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q " << q;
    }
    for (int k = -2; k <= 42; ++k) {
        double x = k / 40.0;
        EXPECT_EQ(a.probAtOrBelow(x), b.probAtOrBelow(x)) << "x " << x;
        EXPECT_EQ(a.probAtOrBelow(x + 0.01), b.probAtOrBelow(x + 0.01))
            << "x " << x + 0.01;
    }
    EXPECT_EQ(a.curve(64), b.curve(64));
}

TEST(WeightedCdfBulkTest, MatchesAddOnTieHeavyIntegerWeights)
{
    // Sizes below, at and above one sort run.
    for (size_t n : {size_t{1}, size_t{1000}, runtime::kSortRun,
                     3 * runtime::kSortRun + 7}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE("n " + std::to_string(n) + " seed " +
                         std::to_string(seed));
            Samples samples = tieHeavySamples(seed, n);
            WeightedCdf added = addOneByOne(samples);
            WeightedCdf bulk(samples);
            // Same insertion order, so the same mean before and
            // after the lazy sort.
            EXPECT_EQ(added.mean(), bulk.mean());
            expectIdenticalQueries(added, bulk);
            EXPECT_EQ(added.mean(), bulk.mean());
        }
    }
}

TEST(WeightedCdfBulkTest, TieOrderCannotChangeAnyQuery)
{
    // With integer weights the cumulative weight at the end of every
    // run of equal values is exact, so any order of the input --
    // and so any order the sort leaves equal values in -- answers
    // every query identically.
    Samples samples = tieHeavySamples(7, 3 * runtime::kSortRun + 7);
    Samples reversed(samples.rbegin(), samples.rend());
    Samples rotated = samples;
    std::rotate(rotated.begin(), rotated.begin() + 12345,
                rotated.end());
    WeightedCdf ref(samples);
    expectIdenticalQueries(ref, WeightedCdf(reversed));
    expectIdenticalQueries(ref, WeightedCdf(rotated));
}

TEST(WeightedCdfBulkTest, MixedSignedZerosMatchAdd)
{
    // -0.0 and +0.0 compare equal, so the sort ties them and keeps
    // them in insertion order: every query, down to the sign of a
    // zero it returns, matches both the add()-built CDF and a
    // reference quantile over std::stable_sort by value.
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    const double values[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0};
    for (size_t n : {size_t{7}, 3 * runtime::kSortRun + 7}) {
        SCOPED_TRACE("n " + std::to_string(n));
        Rng rng(n);
        Samples samples(n);
        for (auto &[value, weight] : samples) {
            value = values[rng.uniformInt(0, 5)];
            weight = static_cast<double>(rng.uniformInt(0, 3));
        }
        samples[0] = {-0.0, 1.0};
        samples[1] = {0.0, 1.0};
        WeightedCdf added = addOneByOne(samples);
        WeightedCdf bulk(samples);
        EXPECT_EQ(added.mean(), bulk.mean());
        expectIdenticalQueries(added, bulk);

        Samples sorted = samples;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<double> cum;
        double acc = 0.0;
        for (const auto &sample : sorted)
            cum.push_back(acc += sample.second);
        for (int k = 0; k <= 100; ++k) {
            double q = k / 100.0;
            size_t idx = static_cast<size_t>(
                std::lower_bound(cum.begin(), cum.end(),
                                 q * bulk.totalWeight()) -
                cum.begin());
            double want = sorted[std::min(idx, n - 1)].first;
            EXPECT_EQ(bits(want), bits(added.quantile(q))) << "q " << q;
            EXPECT_EQ(bits(want), bits(bulk.quantile(q))) << "q " << q;
        }
        EXPECT_EQ(bits(sorted.front().first), bits(bulk.min()));
        EXPECT_EQ(bits(sorted.back().first), bits(bulk.max()));
    }
    // The first zero added comes first.
    EXPECT_TRUE(std::signbit(WeightedCdf(Samples{{-0.0, 1.0}, {0.0, 1.0}})
                                 .min()));
    EXPECT_FALSE(std::signbit(
        WeightedCdf(Samples{{0.0, 1.0}, {-0.0, 1.0}}).min()));
}

TEST(WeightedCdfBulkTest, EmptyBulkCdfBehavesLikeDefault)
{
    WeightedCdf cdf{Samples{}};
    EXPECT_TRUE(cdf.empty());
    EXPECT_EQ(cdf.totalWeight(), 0.0);
    EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
}

TEST(WeightedCdfBulkTest, RejectsWhatAddRejectsWithTheSameMessage)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const auto &[value, weight] :
         Samples{{nan, 1.0}, {inf, 1.0}, {-inf, 1.0}, {1.0, -1.0},
                 {1.0, nan}, {1.0, inf}}) {
        std::string add_msg, bulk_msg;
        try {
            WeightedCdf cdf;
            cdf.add(value, weight);
        } catch (const std::invalid_argument &e) {
            add_msg = e.what();
        }
        try {
            // The bad sample sits after good ones.
            WeightedCdf cdf(Samples{{0.5, 1.0}, {2.0, 3.0}, {value, weight}});
        } catch (const std::invalid_argument &e) {
            bulk_msg = e.what();
        }
        EXPECT_FALSE(add_msg.empty()) << value << " " << weight;
        EXPECT_EQ(add_msg, bulk_msg) << value << " " << weight;
    }
}

/** Property: CDF is monotone and quantile is a left inverse. */
class CdfProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CdfProperty, MonotoneAndInverse)
{
    Rng rng(GetParam());
    WeightedCdf cdf;
    for (int i = 0; i < 500; ++i)
        cdf.add(rng.normal(0.0, 10.0), rng.uniform(0.0, 2.0));

    double prev = -1.0;
    for (double x = cdf.min(); x <= cdf.max(); x += 0.5) {
        double p = cdf.probAtOrBelow(x);
        ASSERT_GE(p, prev);
        ASSERT_GE(p, 0.0);
        ASSERT_LE(p, 1.0);
        prev = p;
    }
    for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        double v = cdf.quantile(q);
        ASSERT_GE(cdf.probAtOrBelow(v), q - 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace paichar::stats
