/**
 * @file
 * The simulated testbed: executes one training step of a case-study
 * model on the discrete-event cluster and measures it, playing the
 * role of the paper's 64-server V100 testbed (Sec IV).
 *
 * The measurement path is independent of the analytical model: kernels
 * serialize on each GPU with a per-launch overhead, transfers queue on
 * links, collectives run their phased schedules, and all capacities
 * are derated by the *measured* per-workload efficiencies (Table VI)
 * rather than the uniform 70% assumption. Comparing the two paths
 * reproduces the model-validation experiment (Fig 12).
 */

#ifndef PAICHAR_TESTBED_TRAINING_SIM_H
#define PAICHAR_TESTBED_TRAINING_SIM_H

#include "hw/hardware_config.h"
#include "profiler/run_metadata.h"
#include "workload/model_zoo.h"

namespace paichar::testbed {

/** Simulation options. */
struct SimOptions
{
    /** Raw hardware (defaults to the Sec IV V100 testbed). */
    hw::ClusterSpec cluster = hw::v100Testbed();
    /** Host-side cost per kernel launch (framework overhead). */
    double kernel_launch_overhead = 8e-6;
    /** Software+wire latency per collective phase. */
    double phase_latency = 5e-6;
    /**
     * Host preprocessing throughput in bytes/s applied to the input
     * before the H2D copy; 0 disables it (the testbed case studies
     * pipeline preprocessing away, Sec IV).
     */
    double preprocessing_rate = 0.0;
    /** NVLink mesh links per GPU. */
    int nvlink_links_per_gpu = 6;
    /**
     * PS/Worker jobs: instantiate this many parameter-server hosts
     * and route every worker's Ethernet leg through its shard's PS
     * NIC (Sec VI-A1's partitioning question). 0 keeps the paper's
     * worker-side-only model.
     */
    int num_ps = 0;
    bool model_ps_contention = false;
};

/**
 * Per-step execution shape beyond pure data parallelism (the
 * planner's hybrid-parallelism dimensions).
 */
struct StepOptions
{
    /**
     * Gradient-accumulation micro-batches per step: input load and
     * graph execution repeat this many times before one weight sync.
     */
    int micro_batches = 1;
    /**
     * Model-partition degree (sub-graph or channel/filter split).
     * The weight sync then moves 1/ways of the gradient volume (each
     * GPU owns a parameter shard); the caller passes the already
     * partitioned per-GPU graph.
     */
    int partition_ways = 1;
    /**
     * Per-GPU boundary-activation bytes exchanged over NVLink per
     * step (all micro-batches included); 0 disables the phase.
     */
    double exchange_nvlink_bytes = 0.0;
};

/** Measured decomposition of one simulated training step. */
struct StepResult
{
    /** End-to-end step time (phases are not overlapped, as in the
     * paper's framework). */
    double total_time = 0.0;
    /** Input load phase duration (preprocessing + H2D copy). */
    double data_time = 0.0;
    /** Graph-execution phase duration. */
    double compute_time = 0.0;
    /** Activation-exchange phase duration (partitioned plans). */
    double exchange_time = 0.0;
    /** Weight-synchronization phase duration. */
    double comm_time = 0.0;

    /** Within compute: service seconds of compute-bound kernels. */
    double compute_flops_time = 0.0;
    /** Within compute: service seconds of memory-bound kernels. */
    double compute_mem_time = 0.0;
    /** Within compute: accumulated kernel-launch overhead. */
    double overhead_time = 0.0;

    /** Kernels launched per replica. */
    int num_kernels = 0;
    /** Profiling records for cNode 0 (the Fig 4 raw data). */
    profiler::RunMetadata metadata;
};

/** Drives single-step training simulations. */
class TrainingSimulator
{
  public:
    explicit TrainingSimulator(SimOptions opts = SimOptions{});

    /**
     * Run one step of @p model under its Table IV architecture with
     * its Table VI measured efficiencies.
     */
    StepResult run(const workload::CaseStudyModel &model) const;

    /**
     * Run one step with explicit architecture/scale/efficiencies.
     *
     * @param graph  Step dataflow (executed kernel by kernel).
     * @param f      Per-step demands (input/comm volumes).
     * @param arch   System architecture; decides placement and the
     *               sync strategy.
     * @param num_cnodes Number of replicas.
     * @param eff    Achieved hardware efficiencies.
     */
    StepResult run(const workload::OpGraph &graph,
                   const workload::WorkloadFeatures &f,
                   workload::ArchType arch, int num_cnodes,
                   const workload::EfficiencyProfile &eff) const;

    /**
     * As above, with an explicit execution shape: @p so adds
     * gradient-accumulation micro-batching, a model-partition degree
     * (scaling the weight sync to the per-shard gradient volume) and
     * a per-step NVLink activation-exchange phase. The default
     * StepOptions reproduce the 5-argument overload exactly.
     */
    StepResult run(const workload::OpGraph &graph,
                   const workload::WorkloadFeatures &f,
                   workload::ArchType arch, int num_cnodes,
                   const workload::EfficiencyProfile &eff,
                   const StepOptions &so) const;

    /** The options in use. */
    const SimOptions &options() const { return opts_; }

    /** Multi-step pipelined execution measurement. */
    struct PipelineResult
    {
        /** Steps simulated. */
        int steps = 0;
        /** End-to-end time for all steps. */
        double total_time = 0.0;
        /**
         * Steady-state step period: the interval between consecutive
         * step completions once the pipeline is full. With prefetch
         * and compute/communication overlap this approaches
         * max{Td, Tc, Tw} (the Sec V-B ideal-overlap model) instead
         * of the sum.
         */
        double steady_step_time = 0.0;
        /** The same model's non-overlapped single-step time. */
        double nonoverlap_step_time = 0.0;

        /** Fraction of the sequential step hidden by overlap. */
        double
        hiddenFraction() const
        {
            return nonoverlap_step_time > 0.0
                       ? 1.0 - steady_step_time / nonoverlap_step_time
                       : 0.0;
        }
    };

    /**
     * Simulate @p steps training steps with software pipelining
     * (Sec V-B): input loads prefetch ahead, each replica's compute
     * starts as soon as its data and its previous step's compute are
     * done, and weight sync overlaps with the next step's compute
     * (TicTac/Poseidon-style scheduling). FIFO contention on the
     * host links, GPUs and interconnects yields a steady-state period
     * of ~max{Td, Tc, Tw}.
     *
     * @param gate_on_comm If true, a step's compute additionally
     *        waits for the *previous* step's weight sync (strict
     *        synchronous SGD without layer-wise overlap); the steady
     *        period then approaches max{Td, Tc + Tw}.
     */
    PipelineResult runPipelined(const workload::CaseStudyModel &model,
                                int steps,
                                bool gate_on_comm = false) const;

  private:
    SimOptions opts_;
};

} // namespace paichar::testbed

#endif // PAICHAR_TESTBED_TRAINING_SIM_H
