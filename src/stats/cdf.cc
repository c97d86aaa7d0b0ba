#include "cdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/parallel.h"

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
    : samples_(std::move(samples)), sorted_(samples_.empty())
{
    for (const auto &[value, weight] : samples_) {
        checkSample(value, weight);
        total_weight_ += weight;
    }
}

void
WeightedCdf::add(double value, double weight)
{
    checkSample(value, weight);
    samples_.emplace_back(value, weight);
    total_weight_ += weight;
    sorted_ = false;
}

void
WeightedCdf::ensureSorted() const
{
    if (sorted_)
        return;
    // Stable: equal values keep their insertion order (DESIGN.md
    // Sec 6), and -0.0 ties with +0.0 as it compares equal.
    runtime::parallelSortByKey(
        runtime::globalPool(), samples_,
        [](const auto &s) { return runtime::doubleSortKey(s.first); });
    cum_weight_.resize(samples_.size());
    double acc = 0.0;
    for (size_t i = 0; i < samples_.size(); ++i) {
        acc += samples_[i].second;
        cum_weight_[i] = acc;
    }
    sorted_ = true;
}

double
WeightedCdf::probAtOrBelow(double x) const
{
    if (empty())
        throwEmpty("probAtOrBelow");
    ensureSorted();
    // Index of first sample strictly greater than x.
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), x,
        [](double v, const auto &s) { return v < s.first; });
    if (it == samples_.begin())
        return 0.0;
    size_t idx = static_cast<size_t>(it - samples_.begin()) - 1;
    return total_weight_ > 0.0 ? cum_weight_[idx] / total_weight_ : 0.0;
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
    ensureSorted();
    double target = q * total_weight_;
    auto it = std::lower_bound(cum_weight_.begin(), cum_weight_.end(),
                               target);
    if (it == cum_weight_.end())
        return samples_.back().first;
    return samples_[static_cast<size_t>(it - cum_weight_.begin())].first;
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
    ensureSorted();
    return samples_.front().first;
}

double
WeightedCdf::max() const
{
    if (empty())
        throwEmpty("max");
    ensureSorted();
    return samples_.back().first;
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
    ensureSorted();
    double lo = min(), hi = max();
    std::vector<std::pair<double, double>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        double x = lo + (hi - lo) * static_cast<double>(i) /
                            static_cast<double>(n - 1);
        out.emplace_back(x, probAtOrBelow(x));
    }
    return out;
}

} // namespace paichar::stats
