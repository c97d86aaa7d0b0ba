/**
 * @file
 * Cluster-level job scheduling simulation with a pluggable policy
 * layer.
 *
 * The paper studies jobs one at a time; the platform runs thousands a
 * day on sub-clusters that are only partially NVLink-equipped ("due
 * to cost issue", Sec II-A1). This subsystem closes that loop: a
 * stream of job submissions is placed onto a finite cluster under a
 * queueing policy, each job's running time comes from the analytical
 * model under its actual placement, and the scheduler can optionally
 * *port* eligible PS/Worker jobs to AllReduce-Local when an NVLink
 * server is available — quantifying, at cluster scale, the paper's
 * observation that porting both speeds jobs up and frees resources.
 *
 * The policy layer (DESIGN.md Sec 13) grows the original FIFO
 * scheduler into the prediction-driven family of Hu et al.
 * (arXiv:2109.01313): predicted job durations — from the analytical
 * model or a history-trained `src/predict` estimator — drive
 * shortest-predicted-first ordering, EASY-style reservation backfill,
 * preemption/restart with work conservation, and gang scheduling.
 * Placement can be fragmentation-aware (best-fit) and the fleet can
 * mix hw::GpuGeneration vintages with per-server speed factors.
 *
 * Placement rules follow Table II:
 *  - 1w1g: one GPU on any server;
 *  - 1wng: all GPUs on one server;
 *  - PS/Worker: one GPU on each of n distinct servers;
 *  - AllReduce-Local: n <= 8 GPUs on one NVLink server.
 */

#ifndef PAICHAR_CLUSTERSIM_SCHEDULER_H
#define PAICHAR_CLUSTERSIM_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/analytical_model.h"
#include "workload/training_job.h"

namespace paichar::clustersim {

/** Scheduling policy. */
enum class Policy
{
    /** Strict FCFS: the queue head blocks everything behind it. */
    Fifo,
    /**
     * FCFS with backfill: later jobs may start if the head cannot.
     * Without a predictor the backfill is greedy (any fitting job
     * starts); with one it is EASY-style — a later job may only jump
     * the head when its predicted completion does not delay the
     * head's earliest predicted start.
     */
    Backfill,
    /**
     * Shortest-predicted-first: the queue drains in order of
     * predicted run time (ties by arrival), shorter jobs skipping
     * blocked longer ones. The policy Hu et al. find recovers most
     * FIFO queueing time on heavy-tailed traces.
     */
    Spf,
    /**
     * Spf plus preemption/restart: a much-shorter queued job may
     * preempt the running job with the longest predicted remaining
     * time. Victims are restarted from their last completed step
     * (work conservation — at most one step of work is lost per
     * preemption) and re-queued with their remaining length.
     */
    SpfPreempt,
    /**
     * Gang scheduling: distributed jobs (more than one GPU) start
     * strictly in arrival order with an EASY reservation for the
     * queue head; only single-GPU jobs may backfill, and only when
     * their predicted completion respects the reservation.
     */
    Gang,
};

/** CLI spelling ("fifo", "backfill", "spf", "spf-preempt", "gang"). */
std::string toString(Policy p);

/** Parse a CLI policy name; nullopt for unknown spellings. */
std::optional<Policy> policyFromString(const std::string &name);

/** Every valid CLI policy spelling, for error messages. */
const std::vector<std::string> &policyNames();

/**
 * True when @p p orders or gates its queue by predicted durations
 * (spf, spf-preempt and gang), so it cannot run without predictions.
 */
bool predictionDriven(Policy p);

/** Placement strategy across servers. */
enum class PlacementStrategy
{
    /** First server that fits (scan order), the original behavior. */
    FirstFit,
    /**
     * Fragmentation-aware best-fit: among fitting servers prefer the
     * one leaving the fewest free GPUs behind (then the fastest
     * generation, then scan order), so large contiguous blocks stay
     * available for the 8-GPU gang jobs the paper's skew is made of.
     */
    BestFit,
};

/**
 * Predicted run seconds for a job: (job, training steps, the
 * analytical model's predicted run seconds) -> seconds. A null
 * function means "use the analytical prediction directly".
 * Implementations are typically predict::DurationModel instances
 * bound by the CLI.
 */
using DurationPredictorFn = std::function<double(
    const workload::TrainingJob &, int64_t, double)>;

/** Cluster and policy configuration. */
struct SchedulerConfig
{
    int num_servers = 128;
    int gpus_per_server = 8;
    /** Fraction of servers equipped with NVLink (rounded down). */
    double nvlink_fraction = 0.5;
    Policy policy = Policy::Backfill;
    /** Server-selection strategy for placements. */
    PlacementStrategy placement = PlacementStrategy::FirstFit;
    /**
     * Duration predictor feeding Spf/SpfPreempt ordering, EASY
     * reservations and Gang backfill windows. Null = the analytical
     * model's own prediction for those policies, and plain greedy
     * backfill for Policy::Backfill.
     */
    DurationPredictorFn predictor;
    /**
     * A queued job may preempt only when the victim's predicted
     * remaining time exceeds preempt_ratio x the queued job's
     * predicted run time (> 1 or preemption never terminates).
     */
    double preempt_ratio = 2.0;
    /** Preemptions allowed per job before it becomes unpreemptable. */
    int max_preemptions = 4;
    /**
     * Fraction of servers populated with older hw::paiGenerations()
     * vintages (rounded down, taken from the tail of the server
     * range, never from the NVLink servers' generation flags --
     * older generations are NVLink-less and slower, so jobs placed
     * there run 1/speed longer).
     */
    double old_gen_fraction = 0.0;
    /**
     * Port eligible PS/Worker jobs (models fitting GPU memory, i.e.
     * dense-only in this trace schema) to AllReduce-Local when an
     * NVLink server has capacity (Sec III-C1's projection applied as
     * a live scheduling decision).
     */
    bool port_ps_to_allreduce = false;
    /** Parameter budget per GPU for the porting feasibility check. */
    double gpu_memory_bytes = 32e9;
    /**
     * Emit obs::JobRecord telemetry when a job log is active. The
     * CLI's FIFO comparison run turns this off so the exported log
     * holds exactly one record per job.
     */
    bool record_job_log = true;
    /**
     * Record timeline probes (queue depth, running jobs, free GPUs,
     * arrival/preemption/unplaceable rates) when a timeline is
     * active. Off for the CLI's FIFO comparison run so the exported
     * timeline describes exactly one schedule.
     */
    bool record_timeline = true;
};

/** One submitted job. */
struct JobRequest
{
    workload::TrainingJob job;
    double submit_time = 0.0;
    /** Training length in steps. */
    int64_t num_steps = 1000;
};

/** Outcome of one job. */
struct JobOutcome
{
    int64_t job_id = 0;
    double submit_time = 0.0;
    /** First time the job started running. */
    double start_time = 0.0;
    double finish_time = 0.0;
    /** GPUs occupied while running. */
    int gpus = 0;
    /** Architecture actually executed (after optional porting). */
    workload::ArchType executed_arch =
        workload::ArchType::OneWorkerOneGpu;
    bool ported = false;
    /** Executed per-step seconds (placement- and generation-aware). */
    double step_s = 0.0;
    /** Training length in steps (echo of the request). */
    int64_t num_steps = 0;
    /** Predicted run seconds the policy ordered this job by. */
    double predicted_run_s = 0.0;
    /** Times this job was preempted and restarted. */
    int preemptions = 0;
    /**
     * Running segments [start, end) when the job was preempted at
     * least once (the final segment included); empty for jobs that
     * ran uninterrupted — their only segment is
     * [start_time, finish_time).
     */
    std::vector<std::pair<double, double>> segments;

    double wait() const { return start_time - submit_time; }
    double runtime() const { return finish_time - start_time; }

    /** Seconds actually spent running (sum of segments). */
    double
    runSeconds() const
    {
        if (segments.empty())
            return runtime();
        double total = 0.0;
        for (auto [s, e] : segments)
            total += e - s;
        return total;
    }
};

/** Aggregate outcome of a run. */
struct ClusterOutcome
{
    std::vector<JobOutcome> jobs;
    /** Completion time of the last job. */
    double makespan = 0.0;
    double mean_wait = 0.0;
    double p95_wait = 0.0;
    /** GPU-seconds used / (total GPUs x makespan). */
    double gpu_utilization = 0.0;
    /** Jobs ported to AllReduce-Local. */
    int64_t ported_jobs = 0;
    /** Total preemption events across all jobs. */
    int64_t preemptions = 0;
    /**
     * Submitted jobs the cluster can never host (placeable() false),
     * dropped at admission instead of starving the queue. Also
     * counted in the `clustersim.unplaceable_jobs` obs counter.
     */
    int64_t unplaceable_jobs = 0;
};

/** Simulates job scheduling on a finite cluster. */
class ClusterScheduler
{
  public:
    /**
     * @param cfg   Cluster shape and policy.
     * @param model Analytical model supplying per-step times; its
     *              ClusterSpec must match the per-server hardware.
     * @throws std::invalid_argument when @p cfg is out of range (no
     *         servers or GPUs, a fraction outside [0, 1] or NaN, or
     *         preempt_ratio <= 1), in release builds too.
     */
    ClusterScheduler(const SchedulerConfig &cfg,
                     const core::AnalyticalModel &model);

    /**
     * Run the submission stream to completion.
     * @param requests Submissions; need not be sorted.
     */
    ClusterOutcome run(std::vector<JobRequest> requests) const;

    /** True if the cluster could ever place @p job. */
    bool placeable(const workload::TrainingJob &job) const;

  private:
    SchedulerConfig cfg_;
    const core::AnalyticalModel &model_;
};

/**
 * Turn a job population into a Poisson submission stream with
 * lognormal training lengths.
 *
 * @param jobs           The jobs to submit (in order).
 * @param jobs_per_hour  Mean submission rate.
 * @param steps_median   Median job length in steps.
 * @param steps_sigma    Lognormal sigma of the length.
 * @param seed           Arrival/length randomness seed.
 * @throws std::invalid_argument unless jobs_per_hour is positive and
 *         finite, steps_median >= 1 and steps_sigma >= 0 (NaN is
 *         rejected).
 */
std::vector<JobRequest>
poissonRequests(const std::vector<workload::TrainingJob> &jobs,
                double jobs_per_hour, double steps_median,
                double steps_sigma, uint64_t seed);

} // namespace paichar::clustersim

#endif // PAICHAR_CLUSTERSIM_SCHEDULER_H
