/**
 * @file
 * Tests for the nearest-rank rule (obs::nearestRank) and its
 * selection-based quantiles (obs::nearestRankQuantiles): against an
 * add()-built unit-weight WeightedCdf, compared with == and by bit
 * pattern, over small, odd, power-of-two-adjacent and random sizes,
 * inputs with many ties, repeated and unordered qs, and qs whose
 * product with n is an exact integer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/timeline.h"
#include "predict/predictor.h"
#include "stats/cdf.h"
#include "stats/rng.h"

namespace paichar::obs {
namespace {

/** @p n samples; with @p ties, drawn from only 9 distinct values. */
std::vector<double>
samplesOf(size_t n, bool ties, stats::Rng &rng)
{
    std::vector<double> v(n);
    for (double &x : v) {
        x = ties ? static_cast<double>(rng.uniformInt(-4, 4)) * 0.25
                 : rng.uniform(-1e3, 1e3);
    }
    return v;
}

/** The qs every size is checked at, plus the q = k/n for which the
 * product q * n is exactly the integer k, and the doubles either side
 * of those. */
std::vector<double>
qsFor(size_t n)
{
    std::vector<double> qs{0.0, 1e-9, 0.5, 0.95, 0.99, 0.999, 1.0};
    const double dn = static_cast<double>(n);
    for (size_t k : {size_t{1}, n / 3, n / 2, n - n / 20, n - 1, n}) {
        double q = static_cast<double>(k) / dn;
        if (k == 0 || q * dn != static_cast<double>(k))
            continue;
        qs.push_back(q);
        qs.push_back(std::nextafter(q, 0.0));
        if (q < 1.0)
            qs.push_back(std::nextafter(q, 1.0));
    }
    return qs;
}

/** Every q of @p qs read three ways -- the selection helper, the
 * one-q form and predict::sortedQuantile -- must equal the unit-weight
 * CDF's quantile by value and by bit pattern. */
void
expectMatchesCdf(const std::vector<double> &samples,
                 const std::vector<double> &qs)
{
    stats::WeightedCdf cdf;
    for (double x : samples)
        cdf.add(x);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> got = nearestRankQuantiles(samples, qs);
    ASSERT_EQ(got.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
        double want = cdf.quantile(qs[i]);
        SCOPED_TRACE(testing::Message()
                     << "n=" << samples.size() << " q=" << qs[i]);
        EXPECT_EQ(got[i], want);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want));
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      nearestRankQuantile(samples, qs[i])),
                  std::bit_cast<uint64_t>(want));
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      predict::sortedQuantile(sorted, qs[i])),
                  std::bit_cast<uint64_t>(want));
    }
}

TEST(NearestRankTest, MatchesUnitWeightCdfAtFixedSizes)
{
    stats::Rng rng(20181201);
    for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{1000}, size_t{1001}, (size_t{1} << 15) + 3}) {
        for (bool ties : {false, true})
            expectMatchesCdf(samplesOf(n, ties, rng), qsFor(n));
    }
}

TEST(NearestRankTest, MatchesUnitWeightCdfAtRandomSizes)
{
    stats::Rng rng(7);
    for (int i = 0; i < 8; ++i) {
        auto n = static_cast<size_t>(rng.uniformInt(1, 100000));
        expectMatchesCdf(samplesOf(n, i % 2 == 1, rng), qsFor(n));
    }
}

TEST(NearestRankTest, RepeatedAndUnorderedQs)
{
    stats::Rng rng(11);
    for (size_t n : {size_t{1}, size_t{5}, size_t{1001}}) {
        for (bool ties : {false, true}) {
            expectMatchesCdf(samplesOf(n, ties, rng),
                             {1.0, 0.5, 0.5, 0.99, 0.0, 1.0, 0.5,
                              0.999, 0.95, 0.0});
        }
    }
}

TEST(NearestRankTest, AllEqualSamples)
{
    expectMatchesCdf(std::vector<double>(1000, 3.5), qsFor(1000));
}

TEST(NearestRankTest, RankRule)
{
    EXPECT_EQ(nearestRank(0.5, 0), 0u);
    EXPECT_EQ(nearestRank(0.0, 10), 1u);
    EXPECT_EQ(nearestRank(1e-9, 10), 1u);
    EXPECT_EQ(nearestRank(0.5, 10), 5u);
    EXPECT_EQ(nearestRank(0.51, 10), 6u);
    EXPECT_EQ(nearestRank(1.0, 10), 10u);
    // q is clamped into [0, 1].
    EXPECT_EQ(nearestRank(-3.0, 10), 1u);
    EXPECT_EQ(nearestRank(7.0, 10), 10u);
    EXPECT_EQ(nearestRank(std::numeric_limits<double>::infinity(), 10),
              10u);
    EXPECT_THROW(
        nearestRank(std::numeric_limits<double>::quiet_NaN(), 10),
        std::invalid_argument);
}

TEST(NearestRankTest, EmptySamplesAndNanQ)
{
    const std::array<double, 3> qs{0.0, 0.5, 1.0};
    std::vector<double> empty = nearestRankQuantiles({}, qs);
    ASSERT_EQ(empty.size(), 3u);
    for (double v : empty)
        EXPECT_TRUE(std::isnan(v));
    EXPECT_TRUE(nearestRankQuantiles({1.0, 2.0}, {}).empty());
    const std::array<double, 2> nan_q{
        0.5, std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW(nearestRankQuantiles({1.0, 2.0}, nan_q),
                 std::invalid_argument);
    EXPECT_THROW(nearestRankQuantiles({}, nan_q), std::invalid_argument);
}

} // namespace
} // namespace paichar::obs
