/**
 * @file
 * Empirical (optionally weighted) cumulative distribution functions.
 *
 * The paper reports most collective results as CDFs at two aggregation
 * levels: job-level (each job weighs 1) and cNode-level (each job weighs
 * its number of computation nodes). WeightedCdf covers both.
 */

#ifndef PAICHAR_STATS_CDF_H
#define PAICHAR_STATS_CDF_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace paichar::stats {

/**
 * WeightedCdf::add's value check, for sample sets whose order
 * statistics are read without building a CDF (obs::nearestRankQuantiles).
 * @throws std::invalid_argument with add()'s message unless @p value
 *         is finite.
 */
void requireFiniteSample(double value);

/**
 * An empirical weighted CDF over double-valued samples.
 *
 * Samples are added with a weight (default 1.0), one at a time or in
 * bulk through the vector constructor; queries are valid after at least
 * one sample has been added. No query reorders the samples; each
 * answers as a stable sort by value would, so equal values (-0.0 and
 * +0.0 among them) count in insertion order. With integer weights
 * totalling under 2^53, quantile() selects in a few linear passes and
 * probAtOrBelow() is one pass; other weights, and curve(), read a
 * stably sorted copy.
 *
 * Error handling is real (exceptions), not assert-only: querying an
 * empty CDF throws std::logic_error, and out-of-domain arguments
 * (non-finite samples, negative/NaN weights, q outside [0, 1], curve
 * grids under 2 points) throw std::invalid_argument -- in release
 * builds too.
 */
class WeightedCdf
{
  public:
    WeightedCdf() = default;

    /**
     * Bulk construction: the same CDF as add()-ing every (value,
     * weight) pair of @p samples in order, without copying them.
     * @throws std::invalid_argument with add()'s message at the first
     *         sample add() would reject.
     */
    explicit WeightedCdf(std::vector<std::pair<double, double>> samples);

    /** Add one sample with weight 1. */
    void add(double value) { add(value, 1.0); }

    /**
     * Add one sample with the given non-negative weight.
     * @throws std::invalid_argument if @p value is non-finite or
     *         @p weight is negative, NaN or infinite.
     */
    void add(double value, double weight);

    /** Number of samples added. */
    size_t size() const { return samples_.size(); }

    /** True if no samples have been added. */
    bool empty() const { return samples_.empty(); }

    /** Sum of all weights. */
    double totalWeight() const { return total_weight_; }

    /**
     * P(X <= x): fraction of total weight at or below x.
     * @throws std::logic_error on an empty CDF.
     */
    double probAtOrBelow(double x) const;

    /**
     * Weighted quantile: smallest sample value v such that
     * P(X <= v) >= q.
     * @throws std::logic_error on an empty CDF.
     * @throws std::invalid_argument unless q is in [0, 1].
     */
    double quantile(double q) const;

    /** Convenience: quantile(0.5). */
    double median() const { return quantile(0.5); }

    /**
     * Weighted mean of the samples.
     * @throws std::logic_error on an empty CDF.
     */
    double mean() const;

    /**
     * Smallest sample.
     * @throws std::logic_error on an empty CDF.
     */
    double min() const;

    /**
     * Largest sample.
     * @throws std::logic_error on an empty CDF.
     */
    double max() const;

    /**
     * Evaluate the CDF on a regular grid of n points spanning
     * [min, max]; returns (x, P(X <= x)) pairs. Useful for rendering
     * the paper's CDF figures.
     * @throws std::logic_error on an empty CDF.
     * @throws std::invalid_argument if n < 2.
     */
    std::vector<std::pair<double, double>> curve(size_t n) const;

  private:
    std::vector<std::pair<double, double>> samples_;
    double total_weight_ = 0.0;
    // Every weight is an integer and every partial sum below 2^53.
    bool exact_ = true;
};

} // namespace paichar::stats

#endif // PAICHAR_STATS_CDF_H
