/**
 * @file
 * Cluster-level collective-behavior analysis (Sec III): constitution,
 * scale distributions, and execution-time breakdowns at job level and
 * cNode level, exactly as reported in Figs 5-8.
 */

#ifndef PAICHAR_CORE_CHARACTERIZATION_H
#define PAICHAR_CORE_CHARACTERIZATION_H

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/analytical_model.h"
#include "runtime/parallel.h"
#include "stats/cdf.h"
#include "workload/job_store.h"
#include "workload/training_job.h"

namespace paichar::core {

/** Aggregation level for cluster statistics. */
enum class Level
{
    /** Every job weighs 1 (left columns of Figs 5/7, top of Fig 8). */
    Job,
    /** Every job weighs its cNode count (right columns / bottom). */
    CNode,
};

/** Fig 5: how jobs and cNodes split across architectures. */
struct Constitution
{
    std::map<workload::ArchType, int64_t> job_counts;
    std::map<workload::ArchType, int64_t> cnode_counts;
    int64_t total_jobs = 0;
    int64_t total_cnodes = 0;

    /** Share of jobs of the given architecture. */
    double jobShare(workload::ArchType a) const;
    /** Share of cNodes held by jobs of the given architecture. */
    double cnodeShare(workload::ArchType a) const;
};

/**
 * Computes the paper's collective statistics over a job population.
 * Breakdowns are evaluated once with the supplied analytical model and
 * cached; all queries are side-effect free afterwards.
 *
 * Per-job breakdowns and the CDF/average accumulators fan out over
 * the runtime thread pool; every result is bit-identical regardless
 * of the thread count (see runtime/parallel.h).
 */
class ClusterCharacterizer
{
  public:
    /**
     * @param model Analytical model to evaluate every job with; must
     *              outlive the characterizer.
     * @param jobs  The job population (a synthetic or real trace).
     * @param pool  Worker pool for the fan-out paths (nullptr =
     *              serial); must outlive the characterizer.
     */
    ClusterCharacterizer(const AnalyticalModel &model,
                         std::vector<workload::TrainingJob> jobs,
                         runtime::ThreadPool *pool =
                             runtime::globalPool());

    /**
     * Same, over a JobStore — the zero-copy path: a store borrowed
     * from an mmap'd `paib` trace is analyzed without ever
     * materializing a jobs vector.
     */
    ClusterCharacterizer(const AnalyticalModel &model,
                         workload::JobStore jobs,
                         runtime::ThreadPool *pool =
                             runtime::globalPool());

    /** The analyzed jobs (iterable; jobs assemble on access in the
        zero-copy case). */
    const workload::JobStore &jobs() const { return jobs_; }

    /** Cached breakdown of jobs()[i]. */
    const TimeBreakdown &breakdownOf(size_t i) const;

    /** Fig 5: workload constitution. */
    Constitution constitution() const;

    /** Fig 6(a): CDF of the cNode count for one architecture. */
    stats::WeightedCdf cnodeCountCdf(workload::ArchType arch) const;

    /**
     * Fig 6(b): CDF of total model weight size in bytes, optionally
     * restricted to one architecture.
     */
    stats::WeightedCdf
    weightSizeCdf(std::optional<workload::ArchType> arch) const;

    /**
     * Fig 7: average component shares, in kAllComponents order,
     * optionally restricted to one architecture. Job level averages
     * fractions uniformly; cNode level weights jobs by cNode count.
     */
    std::array<double, 4>
    avgBreakdown(std::optional<workload::ArchType> arch,
                 Level level) const;

    /** Fig 8(b-d): CDF of one component's share of step time. */
    stats::WeightedCdf
    componentCdf(Component c, std::optional<workload::ArchType> arch,
                 Level level) const;

    /** Fig 8(a): CDF of one hardware component's share. */
    stats::WeightedCdf hwComponentCdf(HwComponent h, Level level) const;

  private:
    /** Weight of jobs()[i] at @p level. */
    double levelWeight(size_t i, Level level) const;

    const AnalyticalModel &model_;
    workload::JobStore jobs_;
    std::vector<TimeBreakdown> breakdowns_;
    runtime::ThreadPool *pool_;
};

} // namespace paichar::core

#endif // PAICHAR_CORE_CHARACTERIZATION_H
