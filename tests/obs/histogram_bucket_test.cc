/**
 * @file
 * Histogram::bucketOf against its definition: bucket i >= 1 covers
 * (2^(i-1), 2^i], bucket 0 everything <= 1 (and NaN), and everything
 * >= 2^62 clamps into the top bucket. The reference walks the bucket
 * edges with ldexp, so it shares no arithmetic with the bit-reading
 * implementation. Covers every power of two from 2^-5 to 2^66 and
 * one ulp either side, the special values, and a million random bit
 * patterns. Histogram::observeBatch is checked against per-value
 * observe: buckets, count and the bits of sum and max must match.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "obs/obs.h"

namespace paichar::obs {
namespace {

int
referenceBucket(double v)
{
    if (!(v > 1.0))
        return 0;
    if (v >= 0x1p62)
        return Histogram::kBuckets - 1;
    int i = 1;
    while (!(v <= std::ldexp(1.0, i)))
        ++i;
    return i;
}

void
expectBucket(double v)
{
    EXPECT_EQ(Histogram::bucketOf(v), referenceBucket(v))
        << "v = " << v << " (bits 0x" << std::hex
        << std::bit_cast<uint64_t>(v) << ")";
}

TEST(HistogramBucketOf, PowersOfTwoAndTheirNeighbours)
{
    for (int e = -5; e <= 66; ++e) {
        double p = std::ldexp(1.0, e);
        expectBucket(p);
        expectBucket(std::nextafter(p, 0.0));
        expectBucket(std::nextafter(p, 1e300));
    }
    // Spot values pin the reference itself.
    EXPECT_EQ(Histogram::bucketOf(2.0), 1);
    EXPECT_EQ(Histogram::bucketOf(std::nextafter(2.0, 3.0)), 2);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 10);
    EXPECT_EQ(Histogram::bucketOf(1025.0), 11);
}

TEST(HistogramBucketOf, SpecialValuesAndTheTopClamp)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double specials[] = {
        0.0,
        -0.0,
        -1.0,
        -kInf,
        kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        1.0,
        std::nextafter(1.0, 2.0),
        0x1p62,
        std::nextafter(0x1p62, 0.0),
        std::nextafter(0x1p62, kInf),
    };
    for (double v : specials)
        expectBucket(v);
    EXPECT_EQ(Histogram::bucketOf(kInf), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketOf(0x1p62), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketOf(std::nextafter(0x1p62, 0.0)),
              Histogram::kBuckets - 2);
    EXPECT_EQ(Histogram::bucketOf(std::nan("")), 0);
}

TEST(HistogramBucketOf, RandomBitPatterns)
{
    std::mt19937_64 rng(20181201);
    // Uniform bit patterns mostly land outside (1, 2^62); every other
    // draw is rescaled into that range so the interior gets equal
    // coverage.
    std::uniform_int_distribution<int> exp(0, 63);
    int mismatches = 0;
    for (int n = 0; n < 1000000 && mismatches < 10; ++n) {
        uint64_t bits = rng();
        if (n % 2) {
            uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
            auto e = static_cast<uint64_t>(1023 + exp(rng) - 1);
            bits = (e << 52) | mantissa;
        }
        double v = std::bit_cast<double>(bits);
        if (Histogram::bucketOf(v) != referenceBucket(v)) {
            ++mismatches;
            expectBucket(v);
        }
    }
    EXPECT_EQ(mismatches, 0);
}

/** Buckets, count and the bits of sum and max of @p a equal @p b's. */
void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    for (int i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(std::bit_cast<uint64_t>(a.sum()),
              std::bit_cast<uint64_t>(b.sum()));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.max()),
              std::bit_cast<uint64_t>(b.max()));
}

TEST(HistogramObserveBatch, MatchesPerValueObserve)
{
    // Zeros of both signs and a negative, then latency-like values
    // over ten orders of magnitude, so the sum's rounding depends on
    // the order of the adds.
    std::vector<double> values = {0.0, -0.0, -2.5, 1e-6};
    std::mt19937_64 rng(20190701);
    std::uniform_real_distribution<double> log_v(-7.0, 3.0);
    for (int i = 0; i < 100000; ++i)
        values.push_back(std::pow(10.0, log_v(rng)));

    constexpr double kScale = 1e6;
    Histogram per_value, batched;
    // A non-empty starting state: the batch folds onto it.
    for (Histogram *h : {&per_value, &batched})
        h->observe(12345.678);
    for (double v : values)
        per_value.observe(v * kScale);
    batched.observeBatch(values, kScale);
    expectSameHistogram(per_value, batched);

    // An empty batch changes nothing.
    batched.observeBatch({}, kScale);
    expectSameHistogram(per_value, batched);

    // Negative-only and NaN-only batches on empty histograms: the max
    // is the first largest value and NaN never wins, as in observe.
    for (std::vector<double> odd :
         {std::vector<double>{-3.0, -1.0, -0.0, 0.0, -2.0},
          std::vector<double>{std::numeric_limits<double>::quiet_NaN(),
                              -5.0}}) {
        Histogram a, b;
        for (double v : odd)
            a.observe(v);
        b.observeBatch(odd);
        expectSameHistogram(a, b);
    }
}

} // namespace
} // namespace paichar::obs
