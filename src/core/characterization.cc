#include "characterization.h"

#include <cassert>
#include <utility>

#include "obs/obs.h"

namespace paichar::core {

using workload::ArchType;
using workload::TrainingJob;

namespace {

/**
 * The weighted samples sample(i) of every i in [0, n) with keep(i),
 * in index order, as a CDF. One pass counts the kept indices of each
 * fixed-size chunk; after a prefix sum, a second pass writes each
 * chunk's samples into its own slice of one preallocated vector, so
 * the order is the serial insertion order at every thread count.
 */
template <typename Keep, typename Sample>
stats::WeightedCdf
collectCdf(runtime::ThreadPool *pool, size_t n, Keep &&keep,
           Sample &&sample)
{
    constexpr size_t grain = runtime::kReduceGrain;
    std::vector<size_t> start((n + grain - 1) / grain + 1, 0);
    runtime::parallelForChunks(pool, n, grain, [&](size_t lo, size_t hi) {
        size_t kept = 0;
        for (size_t i = lo; i < hi; ++i)
            kept += keep(i) ? 1 : 0;
        start[lo / grain + 1] = kept;
    });
    for (size_t c = 1; c < start.size(); ++c)
        start[c] += start[c - 1];
    std::vector<std::pair<double, double>> samples(start.back());
    runtime::parallelForChunks(pool, n, grain, [&](size_t lo, size_t hi) {
        size_t out = start[lo / grain];
        for (size_t i = lo; i < hi; ++i) {
            if (keep(i))
                samples[out++] = sample(i);
        }
    });
    return stats::WeightedCdf(std::move(samples));
}

} // namespace

double
Constitution::jobShare(ArchType a) const
{
    if (total_jobs == 0)
        return 0.0;
    auto it = job_counts.find(a);
    return it == job_counts.end()
               ? 0.0
               : static_cast<double>(it->second) /
                     static_cast<double>(total_jobs);
}

double
Constitution::cnodeShare(ArchType a) const
{
    if (total_cnodes == 0)
        return 0.0;
    auto it = cnode_counts.find(a);
    return it == cnode_counts.end()
               ? 0.0
               : static_cast<double>(it->second) /
                     static_cast<double>(total_cnodes);
}

ClusterCharacterizer::ClusterCharacterizer(const AnalyticalModel &model,
                                           std::vector<TrainingJob> jobs,
                                           runtime::ThreadPool *pool)
    : ClusterCharacterizer(model,
                           workload::JobStore(std::move(jobs)), pool)
{
}

ClusterCharacterizer::ClusterCharacterizer(const AnalyticalModel &model,
                                           workload::JobStore jobs,
                                           runtime::ThreadPool *pool)
    : model_(model), jobs_(std::move(jobs)), pool_(pool)
{
    // The model-evaluation hot path: every job's analytical
    // breakdown, computed once up front.
    obs::Span span("core.model_breakdowns",
                   static_cast<int64_t>(jobs_.size()));
    obs::counter("core.jobs_evaluated").add(jobs_.size());
    breakdowns_.resize(jobs_.size());
    runtime::parallelFor(pool_, jobs_.size(), [&](size_t i) {
        breakdowns_[i] = model_.breakdown(jobs_.job(i));
    });
}

const TimeBreakdown &
ClusterCharacterizer::breakdownOf(size_t i) const
{
    assert(i < breakdowns_.size());
    return breakdowns_[i];
}

Constitution
ClusterCharacterizer::constitution() const
{
    Constitution c;
    for (size_t i = 0; i < jobs_.size(); ++i) {
        ArchType arch = jobs_.arch(i);
        int cnodes = jobs_.numCnodes(i);
        ++c.job_counts[arch];
        c.cnode_counts[arch] += cnodes;
        ++c.total_jobs;
        c.total_cnodes += cnodes;
    }
    return c;
}

stats::WeightedCdf
ClusterCharacterizer::cnodeCountCdf(ArchType arch) const
{
    return collectCdf(
        pool_, jobs_.size(),
        [&](size_t i) { return jobs_.arch(i) == arch; },
        [&](size_t i) {
            return std::pair(static_cast<double>(jobs_.numCnodes(i)),
                             1.0);
        });
}

stats::WeightedCdf
ClusterCharacterizer::weightSizeCdf(std::optional<ArchType> arch) const
{
    return collectCdf(
        pool_, jobs_.size(),
        [&](size_t i) { return !arch || jobs_.arch(i) == *arch; },
        [&](size_t i) {
            return std::pair(jobs_.weightBytes(i), 1.0);
        });
}

double
ClusterCharacterizer::levelWeight(size_t i, Level level) const
{
    return level == Level::Job
               ? 1.0
               : static_cast<double>(jobs_.numCnodes(i));
}

std::array<double, 4>
ClusterCharacterizer::avgBreakdown(std::optional<ArchType> arch,
                                   Level level) const
{
    obs::Span span("core.avg_breakdown",
                   static_cast<int64_t>(jobs_.size()));
    struct Partial
    {
        std::array<double, 4> acc{};
        double weight = 0.0;
    };
    Partial p = runtime::parallelReduce(
        pool_, jobs_.size(), Partial{},
        [&](size_t lo, size_t hi) {
            Partial part;
            for (size_t i = lo; i < hi; ++i) {
                if (arch && jobs_.arch(i) != *arch)
                    continue;
                double w = levelWeight(i, level);
                for (size_t c = 0; c < 4; ++c)
                    part.acc[c] +=
                        w * breakdowns_[i].fraction(kAllComponents[c]);
                part.weight += w;
            }
            return part;
        },
        [](Partial a, Partial b) {
            for (size_t c = 0; c < 4; ++c)
                a.acc[c] += b.acc[c];
            a.weight += b.weight;
            return a;
        });
    if (p.weight > 0.0) {
        for (double &v : p.acc)
            v /= p.weight;
    }
    return p.acc;
}

stats::WeightedCdf
ClusterCharacterizer::componentCdf(Component c,
                                   std::optional<ArchType> arch,
                                   Level level) const
{
    obs::Span span("core.component_cdf",
                   static_cast<int64_t>(jobs_.size()));
    return collectCdf(
        pool_, jobs_.size(),
        [&](size_t i) { return !arch || jobs_.arch(i) == *arch; },
        [&](size_t i) {
            return std::pair(breakdowns_[i].fraction(c),
                             levelWeight(i, level));
        });
}

stats::WeightedCdf
ClusterCharacterizer::hwComponentCdf(HwComponent h, Level level) const
{
    return collectCdf(
        pool_, jobs_.size(), [](size_t) { return true; },
        [&](size_t i) {
            return std::pair(breakdowns_[i].hwFraction(h),
                             levelWeight(i, level));
        });
}

} // namespace paichar::core
