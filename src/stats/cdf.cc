#include "cdf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace paichar::stats {

namespace {

/**
 * Empty-CDF queries and out-of-domain arguments are real errors in
 * release builds too (a CDF over a filtered job population can
 * legitimately come out empty), so they throw instead of asserting.
 */
[[noreturn]] void
throwEmpty(const char *fn)
{
    throw std::logic_error(std::string("WeightedCdf::") + fn +
                           ": no samples added");
}

void
checkSample(double value, double weight)
{
    requireFiniteSample(value);
    // The comparison is written to reject NaN weights as well.
    if (!(weight >= 0.0) || !std::isfinite(weight)) {
        throw std::invalid_argument(
            "WeightedCdf::add: weight must be finite and >= 0");
    }
}

using Samples = std::vector<std::pair<double, double>>;

/** Orders samples by value alone: -0.0 and +0.0 tie. */
constexpr auto byValue = [](const auto &a, const auto &b) {
    return a.first < b.first;
};

/**
 * Below 2^53 every sum of non-negative integer weights is exact. The
 * first inexact partial sum would round to at least 2^53, and so would
 * every later one.
 */
constexpr double kExactTotal = 9007199254740992.0;

/**
 * selectValue() probes one sample in 16, at most kProbes, and
 * brackets the answer kSpread standard errors either side; it sorts
 * inputs of fewer than 16 * 16 samples outright.
 */
constexpr size_t kProbes = 2048;
constexpr double kSpread = 3.0;

/** @p samples stably sorted by value. */
Samples
stablySorted(Samples samples)
{
    std::stable_sort(samples.begin(), samples.end(), byValue);
    return samples;
}

/**
 * The value at which the cumulative weight of @p samples, stably
 * sorted by value, first reaches @p target (the largest if none does).
 */
double
scanSorted(Samples samples, double target)
{
    samples = stablySorted(std::move(samples));
    double acc = 0.0;
    for (const auto &[value, weight] : samples) {
        if ((acc += weight) >= target)
            return value;
    }
    return samples.back().first;
}

/**
 * scanSorted()'s value without sorting @p samples, for integer weights
 * summing to @p total < 2^53 and 0 < target <= total.
 *
 * A sorted, strided probe brackets the answer: with p the target's
 * share, the probe's own crossing of p has a standard error of
 * sqrt(p(1-p) * sum w^2) in probe weight. One pass sums the weight
 * below the bracket and at its ends and keeps the samples inside it,
 * where the answer is selected the same way. A target outside the
 * bracket moves it that way, doubling its reach.
 */
double
selectValue(const Samples &samples, double total, double target)
{
    const size_t n = samples.size();
    const size_t probes = std::min(kProbes, n / 16);
    if (probes < 16)
        return scanSorted(samples, target);
    Samples probe(probes);
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < probes; ++i) {
        probe[i] = samples[i * n / probes];
        sum += probe[i].second;
        sum_sq += probe[i].second * probe[i].second;
    }
    std::sort(probe.begin(), probe.end(), byValue);
    const double p = target / total;
    const double spread = kSpread * std::sqrt(p * (1.0 - p) * sum_sq);

    // From the last probe short of p * sum - spread to the first that
    // reaches p * sum + spread; position -1 is -inf, `probes` +inf.
    const auto m = static_cast<ptrdiff_t>(probes);
    ptrdiff_t lo = -1, hi = 0;
    double through = 0.0;
    for (ptrdiff_t i = 0; i < m; ++i) {
        through += probe[i].second;
        if (through < p * sum - spread)
            lo = i;
        if (through < p * sum + spread)
            hi = i + 1;
    }
    const double inf = std::numeric_limits<double>::infinity();
    Samples window;
    for (ptrdiff_t step = 2 * (hi - lo);; step *= 2) {
        const double lo_v = lo < 0 ? -inf : probe[lo].first;
        double hi_v = hi >= m ? inf : probe[hi].first;
        // Count samples at an empty bracket's end once: the next
        // double up is above all of them.
        if (hi_v == lo_v)
            hi_v = std::nextafter(hi_v, inf);
        // sums[c]: c = 0 below, 1 at lo, 2 inside, 3 at hi, 4 above.
        // Adding up comparisons does not branch on values that fall
        // either side of the bracket at random.
        double sums[5] = {};
        window.clear();
        for (const auto &sample : samples) {
            const double v = sample.first;
            const int c = (v >= lo_v) + (v > lo_v) + (v >= hi_v) + (v > hi_v);
            sums[c] += sample.second;
            if (c == 2)
                window.push_back(sample);
        }
        const double below = sums[0], before = below + sums[1];
        if (below >= target) {
            hi = lo;
            lo -= step;
        } else if (before >= target) {
            return lo_v;
        } else if (before + sums[2] >= target) {
            // target - before is exact: both are multiples of target's
            // ulp, at most 1 below 2^53. Sorting a window of over half
            // the samples keeps the recursion shrinking.
            return 2 * window.size() > n
                       ? scanSorted(std::move(window), target - before)
                       : selectValue(window, sums[2], target - before);
        } else if (before + sums[2] + sums[3] >= target) {
            return hi_v;
        } else {
            lo = hi;
            hi += step;
        }
    }
}

/**
 * The zero a stable sort of @p samples puts where the cumulative
 * weight reaches @p target: -0.0 and +0.0 tie, so the zeros count in
 * insertion order after the negative samples.
 */
double
crossingZero(const Samples &samples, double target)
{
    double acc = 0.0;
    for (const auto &[value, weight] : samples)
        acc += value < 0.0 ? weight : 0.0;
    for (const auto &[value, weight] : samples) {
        if (value == 0.0 && (acc += weight) >= target)
            return value;
    }
    return 0.0; // unreachable: the zeros carry the weight to target
}

} // namespace

void
requireFiniteSample(double value)
{
    if (!std::isfinite(value)) {
        throw std::invalid_argument(
            "WeightedCdf::add: value must be finite");
    }
}

WeightedCdf::WeightedCdf(std::vector<std::pair<double, double>> samples)
    : samples_(std::move(samples))
{
    for (const auto &[value, weight] : samples_) {
        checkSample(value, weight);
        total_weight_ += weight;
        exact_ = exact_ && weight == std::trunc(weight) &&
                 total_weight_ < kExactTotal;
    }
}

void
WeightedCdf::add(double value, double weight)
{
    checkSample(value, weight);
    samples_.emplace_back(value, weight);
    total_weight_ += weight;
    exact_ = exact_ && weight == std::trunc(weight) &&
             total_weight_ < kExactTotal;
}

double
WeightedCdf::probAtOrBelow(double x) const
{
    if (empty())
        throwEmpty("probAtOrBelow");
    if (!(total_weight_ > 0.0))
        return 0.0;
    // Other weights sum in sorted order. !(x < v) is the sorted
    // path's test, NaN included.
    const Samples sorted = exact_ ? Samples() : stablySorted(samples_);
    double at_or_below = 0.0;
    for (const auto &[v, w] : exact_ ? samples_ : sorted) {
        if (!(x < v))
            at_or_below += w;
    }
    return at_or_below / total_weight_;
}

double
WeightedCdf::quantile(double q) const
{
    if (empty())
        throwEmpty("quantile");
    // Written to reject NaN along with out-of-range q.
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument(
            "WeightedCdf::quantile: q must be in [0, 1]");
    }
    double target = q * total_weight_;
    // The first sorted sample reaches a target of 0.
    if (!(target > 0.0))
        return min();
    if (!exact_)
        return scanSorted(samples_, target);
    double v = selectValue(samples_, total_weight_, target);
    return v == 0.0 ? crossingZero(samples_, target) : v;
}

double
WeightedCdf::mean() const
{
    if (empty())
        throwEmpty("mean");
    double acc = 0.0;
    for (const auto &[v, w] : samples_)
        acc += v * w;
    return total_weight_ > 0.0 ? acc / total_weight_ : 0.0;
}

double
WeightedCdf::min() const
{
    if (empty())
        throwEmpty("min");
    // The first smallest and the last largest, as a stable sort
    // leaves them: -0.0 and +0.0 tie.
    return std::minmax_element(samples_.begin(), samples_.end(), byValue)
        .first->first;
}

double
WeightedCdf::max() const
{
    if (empty())
        throwEmpty("max");
    return std::minmax_element(samples_.begin(), samples_.end(), byValue)
        .second->first;
}

std::vector<std::pair<double, double>>
WeightedCdf::curve(size_t n) const
{
    if (empty())
        throwEmpty("curve");
    if (n < 2) {
        throw std::invalid_argument(
            "WeightedCdf::curve: need at least 2 grid points");
    }
    // One stable sort, then the cumulative weight in sorted order.
    Samples sorted = stablySorted(samples_);
    double acc = 0.0;
    for (auto &sample : sorted)
        sample.second = acc += sample.second;
    double lo = sorted.front().first, hi = sorted.back().first;
    std::vector<std::pair<double, double>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        double x = lo + (hi - lo) * static_cast<double>(i) /
                            static_cast<double>(n - 1);
        auto it = std::upper_bound(
            sorted.begin(), sorted.end(), x,
            [](double v, const auto &s) { return v < s.first; });
        out.emplace_back(x, it == sorted.begin() || !(total_weight_ > 0.0)
                                ? 0.0
                                : std::prev(it)->second / total_weight_);
    }
    return out;
}

} // namespace paichar::stats
