/**
 * @file
 * Tests for the weighted empirical CDF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
 * Every query defined over the samples stably sorted by value, each
 * with the cumulative weight through it, and the total summed in
 * insertion order as the CDF sums it.
 */
class SortedReference
{
  public:
    explicit SortedReference(const Samples &samples) : sorted_(samples)
    {
        for (const auto &sample : samples)
            total_ += sample.second;
        std::stable_sort(sorted_.begin(), sorted_.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        double acc = 0.0;
        for (auto &sample : sorted_)
            sample.second = acc += sample.second;
    }

    double total() const { return total_; }
    double min() const { return sorted_.front().first; }
    double max() const { return sorted_.back().first; }

    double
    quantile(double q) const
    {
        auto it = std::lower_bound(
            sorted_.begin(), sorted_.end(), q * total_,
            [](const auto &s, double t) { return s.second < t; });
        return it == sorted_.end() ? sorted_.back().first : it->first;
    }

    double
    probAtOrBelow(double x) const
    {
        auto it = std::upper_bound(
            sorted_.begin(), sorted_.end(), x,
            [](double v, const auto &s) { return v < s.first; });
        if (it == sorted_.begin() || !(total_ > 0.0))
            return 0.0;
        return std::prev(it)->second / total_;
    }

    Samples
    curve(size_t n) const
    {
        Samples out;
        for (size_t i = 0; i < n; ++i) {
            double x = min() + (max() - min()) * static_cast<double>(i) /
                                   static_cast<double>(n - 1);
            out.emplace_back(x, probAtOrBelow(x));
        }
        return out;
    }

    /**
     * Up to @p k distinct values, spread evenly over all of them, each
     * with the cumulative weight through its last sample.
     */
    Samples
    distinctValues(size_t k) const
    {
        Samples all;
        for (size_t i = 0; i < sorted_.size(); ++i) {
            if (i + 1 == sorted_.size() ||
                sorted_[i].first < sorted_[i + 1].first)
                all.push_back(sorted_[i]);
        }
        if (all.size() <= k)
            return all;
        Samples some;
        for (size_t i = 0; i < k; ++i)
            some.push_back(all[i * all.size() / k]);
        return some;
    }

  private:
    Samples sorted_;
    double total_ = 0.0;
};

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
    for (size_t n : {size_t{1}, size_t{1000}, size_t{32768},
                     size_t{98311}}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE("n " + std::to_string(n) + " seed " +
                         std::to_string(seed));
            Samples samples = tieHeavySamples(seed, n);
            WeightedCdf added = addOneByOne(samples);
            WeightedCdf bulk(samples);
            // Same insertion order, so the same mean.
            EXPECT_EQ(added.mean(), bulk.mean());
            expectIdenticalQueries(added, bulk);
            EXPECT_EQ(added.mean(), bulk.mean());
        }
    }
}

TEST(WeightedCdfBulkTest, TieOrderCannotChangeAnyQuery)
{
    // With integer weights the cumulative weight at the end of every
    // run of equal values is exact, so any order of the input answers
    // every query identically.
    Samples samples = tieHeavySamples(7, 98311);
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
    // -0.0 and +0.0 compare equal, so a stable sort ties them and
    // keeps them in insertion order: every query, down to the sign of
    // a zero it returns, matches both the add()-built CDF and a
    // reference quantile over std::stable_sort by value.
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    const double values[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0};
    for (size_t n : {size_t{7}, size_t{98311}}) {
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

        SortedReference ref(samples);
        for (int k = 0; k <= 100; ++k) {
            double q = k / 100.0;
            double want = ref.quantile(q);
            EXPECT_EQ(bits(want), bits(added.quantile(q))) << "q " << q;
            EXPECT_EQ(bits(want), bits(bulk.quantile(q))) << "q " << q;
        }
        EXPECT_EQ(bits(ref.min()), bits(bulk.min()));
        EXPECT_EQ(bits(ref.max()), bits(bulk.max()));
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

TEST(WeightedCdfTest, MeanIsTheSameBeforeAndAfterEveryQuery)
{
    // 1e16 - 1e16 cancels before 1.0 is added; summed in any other
    // order the 1.0 is lost. No query reorders the samples, so mean()
    // keeps insertion order whatever was asked before it.
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    for (double weight : {1.0, 0.5}) {
        SCOPED_TRACE("weight " + std::to_string(weight));
        WeightedCdf cdf;
        cdf.add(1e16, weight);
        cdf.add(-1e16, weight);
        cdf.add(1.0, weight);
        const double mean = cdf.mean();
        EXPECT_EQ(mean, 1.0 / 3.0);
        const std::vector<std::pair<const char *, std::function<void()>>>
            queries = {
                {"median", [&] { cdf.median(); }},
                {"quantile", [&] { cdf.quantile(0.9); }},
                {"probAtOrBelow", [&] { cdf.probAtOrBelow(0.0); }},
                {"min", [&] { cdf.min(); }},
                {"max", [&] { cdf.max(); }},
                {"curve", [&] { cdf.curve(8); }},
            };
        for (const auto &[name, query] : queries) {
            query();
            EXPECT_EQ(bits(mean), bits(cdf.mean())) << "after " << name;
        }
    }
}

/**
 * Every query of a bulk-built CDF over @p samples equals the sorted
 * reference bit for bit: quantile on a grid that includes 0 and 1 and
 * at (and one ulp either side of) the share of weight through each of
 * up to 48 distinct values, probAtOrBelow at and just above those
 * values, min, max and curve(64).
 */
void
expectMatchesReference(const Samples &samples)
{
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    const double inf = std::numeric_limits<double>::infinity();
    WeightedCdf cdf(samples);
    SortedReference ref(samples);
    ASSERT_EQ(ref.total(), cdf.totalWeight());
    EXPECT_EQ(bits(ref.min()), bits(cdf.min()));
    EXPECT_EQ(bits(ref.max()), bits(cdf.max()));
    std::vector<double> qs;
    for (int k = 0; k <= 64; ++k)
        qs.push_back(k / 64.0);
    for (const auto &[value, through] : ref.distinctValues(48)) {
        EXPECT_EQ(ref.probAtOrBelow(value), cdf.probAtOrBelow(value))
            << "x " << value;
        double above = std::nextafter(value, inf);
        EXPECT_EQ(ref.probAtOrBelow(above), cdf.probAtOrBelow(above))
            << "x " << above;
        if (ref.total() > 0.0) {
            double q = through / ref.total();
            qs.push_back(q);
            qs.push_back(std::nextafter(q, 0.0));
            qs.push_back(std::min(1.0, std::nextafter(q, inf)));
        }
    }
    for (double q : qs)
        EXPECT_EQ(bits(ref.quantile(q)), bits(cdf.quantile(q))) << "q " << q;
    EXPECT_EQ(ref.curve(64), cdf.curve(64));
}

// Sizes either side of the 256 samples below which a quantile sorts
// outright, and below (2049), at (32768) and above the size where the
// probe, one sample in 16, reaches its cap of 2048.
const size_t kReferenceSizes[] = {1, 255, 256, 2049, 32768, 98311};

TEST(WeightedCdfReferenceTest, TieHeavyIntegerWeights)
{
    for (size_t n : kReferenceSizes) {
        SCOPED_TRACE("n " + std::to_string(n));
        expectMatchesReference(tieHeavySamples(n, n));
    }
}

TEST(WeightedCdfReferenceTest, ContinuousValuesCnodeWeights)
{
    for (size_t n : kReferenceSizes) {
        SCOPED_TRACE("n " + std::to_string(n));
        Rng rng(n + 11);
        Samples samples(n);
        for (auto &[value, weight] : samples) {
            value = rng.normal(0.0, 10.0);
            weight = std::floor(rng.logNormal(1.0, 1.5));
        }
        expectMatchesReference(samples);
    }
}

TEST(WeightedCdfReferenceTest, MixedSignedZeros)
{
    const double values[] = {-0.0, 0.0, -1.0, 1.0, 0.25};
    for (size_t n : kReferenceSizes) {
        for (int distinct : {2, 5}) {
            SCOPED_TRACE("n " + std::to_string(n) + " distinct " +
                         std::to_string(distinct));
            Rng rng(n + distinct);
            Samples samples(n);
            for (auto &[value, weight] : samples) {
                value = values[rng.uniformInt(0, distinct - 1)];
                weight = static_cast<double>(rng.uniformInt(0, 3));
            }
            expectMatchesReference(samples);
        }
    }
}

TEST(WeightedCdfReferenceTest, ZeroWeights)
{
    for (size_t n : kReferenceSizes) {
        SCOPED_TRACE("n " + std::to_string(n));
        Rng rng(n + 5);
        Samples mostly_zero(n), all_zero(n);
        for (size_t i = 0; i < n; ++i) {
            double value = static_cast<double>(rng.uniformInt(0, 99));
            double weight = rng.bernoulli(0.8)
                                ? 0.0
                                : static_cast<double>(rng.uniformInt(1, 9));
            mostly_zero[i] = {value, weight};
            all_zero[i] = {value, 0.0};
        }
        expectMatchesReference(mostly_zero);
        expectMatchesReference(all_zero);
    }
}

TEST(WeightedCdfReferenceTest, AllValuesEqual)
{
    for (size_t n : kReferenceSizes) {
        SCOPED_TRACE("n " + std::to_string(n));
        Rng rng(n + 3);
        Samples same(n), zeros(n);
        for (size_t i = 0; i < n; ++i) {
            double weight = static_cast<double>(rng.uniformInt(0, 4));
            same[i] = {-7.25, weight};
            zeros[i] = {rng.bernoulli(0.5) ? 0.0 : -0.0, weight};
        }
        expectMatchesReference(same);
        expectMatchesReference(zeros);
    }
}

TEST(WeightedCdfReferenceTest, OneSampleCarriesTheWeight)
{
    // 5000 distinct values; the heavy sample sits at an index the
    // strided probe reads (0, 2500) or skips (1, 4999), and takes the
    // smallest, a middle or the largest value. It carries all the
    // weight, or 50000 against 1 for every other sample, so the
    // probe's bracket misses it and has to move.
    const size_t n = 5000;
    for (size_t pos : {size_t{0}, size_t{1}, size_t{2500}, size_t{4999}}) {
        for (double heavy_value : {-1e9, 0.5, 1e9}) {
            for (double others : {0.0, 1.0}) {
                SCOPED_TRACE("pos " + std::to_string(pos) + " value " +
                             std::to_string(heavy_value) + " others " +
                             std::to_string(others));
                Rng rng(pos);
                Samples samples(n);
                for (size_t i = 0; i < n; ++i) {
                    samples[i] = {static_cast<double>(i) +
                                      rng.uniform(0.0, 0.5) - 2500.0,
                                  others};
                }
                samples[pos] = {heavy_value, 50000.0};
                expectMatchesReference(samples);
            }
        }
    }
}

TEST(WeightedCdfReferenceTest, FewZerosAmongContinuousValues)
{
    // Seven zeros of alternating sign among continuous values, between
    // two probed indices: a quantile that lands on one of them is
    // found inside nested brackets, and its sign depends on the weight
    // of the negative samples before them.
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    for (size_t n : {size_t{2049}, size_t{98311}}) {
        SCOPED_TRACE("n " + std::to_string(n));
        Rng rng(n + 29);
        Samples samples(n);
        for (auto &[value, weight] : samples) {
            value = rng.normal(0.0, 10.0);
            weight = static_cast<double>(rng.uniformInt(1, 3));
        }
        for (size_t k = 0; k < 7; ++k)
            samples[n / 2 + 2 * k + 1].first = k % 2 ? 0.0 : -0.0;
        expectMatchesReference(samples);

        WeightedCdf cdf(samples);
        SortedReference ref(samples);
        double below_zero = 0.0;
        for (const auto &[value, weight] : samples)
            below_zero += value < 0.0 ? weight : 0.0;
        for (double w = 0.5; w < 3.0 * 7; w += 0.5) {
            double q = (below_zero + w) / ref.total();
            EXPECT_EQ(bits(ref.quantile(q)), bits(cdf.quantile(q)))
                << "q " << q;
        }
    }
}

TEST(WeightedCdfReferenceTest, OtherWeightsTakeTheSortedPath)
{
    // Fractional weights, and integer weights whose total reaches
    // 2^53: partial sums depend on their order, so only the sorted
    // order gives the reference's answers.
    Rng rng(17);
    Samples fractional(2049);
    for (auto &[value, weight] : fractional) {
        value = rng.normal(0.0, 10.0);
        weight = rng.uniform(0.0, 2.0);
    }
    expectMatchesReference(fractional);
    // The check has teeth: summed in insertion order, the weight at
    // or below some value differs from the sorted reference.
    SortedReference ref(fractional);
    size_t differ = 0;
    for (const auto &[value, through] : ref.distinctValues(2049)) {
        double acc = 0.0;
        for (const auto &[v, w] : fractional)
            acc += v <= value ? w : 0.0;
        differ += acc != through ? 1 : 0;
    }
    EXPECT_GT(differ, 0u);

    const double big = 9007199254740992.0; // 2^53
    expectMatchesReference(
        Samples{{3.0, 1.0}, {1.0, big}, {2.0, 1.0}, {0.0, 3.0}});
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
