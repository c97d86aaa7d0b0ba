#include "training_sim.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "collectives/strategy.h"
#include "core/analytical_model.h"
#include "obs/job_log.h"
#include "obs/timeline.h"
#include "sim/topology.h"

namespace paichar::testbed {

using workload::ArchType;
using workload::OpGraph;
using workload::WorkloadFeatures;

TrainingSimulator::TrainingSimulator(SimOptions opts)
    : opts_(std::move(opts))
{
    assert(opts_.kernel_launch_overhead >= 0.0);
    assert(opts_.preprocessing_rate >= 0.0);
}

StepResult
TrainingSimulator::run(const workload::CaseStudyModel &model) const
{
    StepResult result =
        run(model.graph, model.features, model.arch,
            model.num_cnodes, model.measured_efficiency);

    if (obs::jobLogActive()) {
        // One job-log record per measured step: the event-driven
        // measurement as sim_*, the analytical prediction under the
        // paper's uniform assumption as pred_* -- attribution only,
        // the measurement path above stays model-independent.
        obs::JobRecord rec;
        rec.name = model.name;
        rec.source = "testbed";
        rec.arch = workload::toString(model.arch);
        rec.executed_arch = rec.arch;
        rec.num_cnodes = model.num_cnodes;
        rec.gpus = model.num_cnodes;
        rec.num_steps = 1;
        rec.finish_s = result.total_time;
        rec.sim_td_s = result.data_time;
        rec.sim_tc_s = result.compute_time;
        rec.sim_tw_s = result.comm_time;
        rec.sim_step_s = result.total_time;

        workload::TrainingJob job;
        job.arch = model.arch;
        job.num_cnodes = model.num_cnodes;
        job.num_ps =
            model.arch == ArchType::PsWorker
                ? (opts_.num_ps > 0
                       ? opts_.num_ps
                       : std::max(1, model.num_cnodes / 4))
                : 0;
        job.features = model.features;
        core::AnalyticalModel analytical(opts_.cluster);
        // Per-replica case-study estimates fold PCIe contention into
        // the measured efficiencies (Fig 12); keep the paths aligned.
        analytical.setPcieContention(false);
        core::TimeBreakdown pred = analytical.breakdown(job);
        rec.pred_td_s = pred.t_data;
        rec.pred_tc_flops_s = pred.t_comp_flops;
        rec.pred_tc_mem_s = pred.t_comp_mem;
        rec.pred_tw_s = pred.t_weight;
        rec.pred_step_s = pred.total();
        obs::recordJob(std::move(rec));
    }
    return result;
}

StepResult
TrainingSimulator::run(const OpGraph &graph, const WorkloadFeatures &f,
                       ArchType arch, int num_cnodes,
                       const workload::EfficiencyProfile &eff) const
{
    return run(graph, f, arch, num_cnodes, eff, StepOptions{});
}

StepResult
TrainingSimulator::run(const OpGraph &graph, const WorkloadFeatures &f,
                       ArchType arch, int num_cnodes,
                       const workload::EfficiencyProfile &eff,
                       const StepOptions &so) const
{
    assert(num_cnodes >= 1);
    assert(f.valid());
    assert(so.micro_batches >= 1);
    assert(so.partition_ways >= 1);
    assert(so.exchange_nvlink_bytes >= 0.0);
    const int micro = so.micro_batches;

    // --- build the topology for this job's placement ---
    sim::TopologyConfig tc;
    tc.cluster = opts_.cluster;
    tc.efficiency = eff;
    tc.kernel_launch_overhead = opts_.kernel_launch_overhead;
    tc.nvlink_links_per_gpu = opts_.nvlink_links_per_gpu;
    // Centralized local training shares the host PCIe root; other
    // placements use dedicated links (contention is folded into the
    // measured PCIe efficiency, Sec IV).
    tc.shared_pcie = arch == ArchType::OneWorkerMultiGpu;

    const int gps = tc.cluster.server.gpus_per_server;
    bool one_per_server = arch == ArchType::PsWorker;
    bool ps_tier = one_per_server && opts_.model_ps_contention &&
                   opts_.num_ps > 0;
    tc.num_servers = one_per_server
                         ? num_cnodes + (ps_tier ? opts_.num_ps : 0)
                         : (num_cnodes + gps - 1) / gps;

    sim::ClusterSim cluster(tc);
    auto group = one_per_server
                     ? cluster.gpuGroupOnePerServer(num_cnodes)
                     : cluster.gpuGroup(num_cnodes);
    sim::EventQueue &eq = cluster.eventQueue();

    StepResult result;
    result.metadata.meta.arch = arch;
    result.metadata.meta.num_cnodes = num_cnodes;
    result.metadata.meta.num_ps =
        arch == ArchType::PsWorker
            ? (opts_.num_ps > 0 ? opts_.num_ps
                                : std::max(1, num_cnodes / 4))
            : 0;
    result.metadata.meta.batch_size = f.batch_size;

    // --- phase 1: input preprocessing + host->GPU copy ---
    // Micro-batches queue FIFO behind each other on the host links;
    // host preprocessing pipelines one micro-batch ahead.
    sim::SimTime data_end = 0.0;
    {
        double prep = opts_.preprocessing_rate > 0.0
                          ? f.input_bytes / opts_.preprocessing_rate
                          : 0.0;
        size_t waiting = group.size() * static_cast<size_t>(micro);
        for (int m = 0; m < micro; ++m) {
            bool meta = m == 0;
            for (sim::Gpu *gpu : group) {
                eq.scheduleAfter(prep * (m + 1), [&, gpu, meta] {
                    gpu->hostLink().submit(
                        f.input_bytes,
                        [&, gpu, meta](sim::SimTime start,
                                       sim::SimTime end) {
                            if (meta && gpu == group[0]) {
                                result.metadata.transfers.push_back(
                                    {profiler::TransferKind::InputData,
                                     profiler::Medium::Pcie, 0,
                                     f.input_bytes, start, end});
                            }
                            data_end = std::max(data_end, end);
                            --waiting;
                        });
                });
            }
        }
        cluster.drain();
        assert(waiting == 0);
        (void)waiting;
    }
    result.data_time = data_end;

    // --- phase 2: graph execution on every replica ---
    const auto &gpu_spec = tc.cluster.server.gpu;
    const double flops_rate = gpu_spec.peak_flops * eff.gpu_flops;
    const double mem_rate = gpu_spec.mem_bandwidth * eff.gpu_memory;
    sim::SimTime comp_end = data_end;
    for (int m = 0; m < micro; ++m) {
        for (size_t r = 0; r < group.size(); ++r) {
            sim::Gpu *gpu = group[r];
            bool record = r == 0;
            bool meta = record && m == 0;
            for (const workload::Op &op : graph.ops()) {
                if (op.type == workload::OpType::DataLoad)
                    continue; // covered by phase 1
                double seconds;
                if (workload::isComputeBound(op.type)) {
                    seconds = op.flops / flops_rate;
                    if (record)
                        result.compute_flops_time += seconds;
                } else {
                    seconds = op.mem_bytes / mem_rate;
                    if (record)
                        result.compute_mem_time += seconds;
                }
                if (record) {
                    result.overhead_time +=
                        opts_.kernel_launch_overhead;
                    ++result.num_kernels;
                }
                // Kernels on one GPU end in submission order, so the
                // records come out in completion order.
                sim::ServiceInterval iv = gpu->exec().submit(seconds);
                if (meta) {
                    result.metadata.ops.push_back(
                        {op.name, op.type, 0, iv.start, iv.end, op.flops,
                         op.mem_bytes});
                }
                comp_end = std::max(comp_end, iv.end);
            }
        }
    }
    // Every kernel's end is known at submission; one event moves the
    // clock to the last of them, where phase 2.5 starts.
    eq.schedule(comp_end, [] {});
    cluster.drain();
    result.compute_time = comp_end - data_end;

    // --- phase 2.5: model-parallel activation exchange ---
    sim::SimTime exch_end = comp_end;
    if (so.exchange_nvlink_bytes > 0.0 && group.size() > 1) {
        auto exchange = collectives::makeActivationExchange(
            so.exchange_nvlink_bytes);
        bool exch_done = false;
        exchange->sync(cluster, group, f, [&](sim::SimTime end) {
            exch_end = std::max(exch_end, end);
            exch_done = true;
        });
        cluster.drain();
        assert(exch_done);
        (void)exch_done;
        result.metadata.transfers.push_back(
            {profiler::TransferKind::ActivationExchange,
             profiler::Medium::NvLink, 0, so.exchange_nvlink_bytes,
             comp_end, exch_end});
    }
    result.exchange_time = exch_end - comp_end;

    // --- phase 3: weight/gradient synchronization ---
    collectives::StrategyOptions sopts;
    sopts.num_ps = opts_.num_ps;
    sopts.model_ps_contention = ps_tier;
    auto strategy = collectives::makeStrategy(arch, sopts);
    assert(strategy);
    if (so.partition_ways > 1) {
        strategy = collectives::makeShardedStrategy(
            std::move(strategy), so.partition_ways);
    }
    sim::SimTime sync_end = exch_end;
    bool sync_done = false;
    strategy->sync(cluster, group, f, [&](sim::SimTime end) {
        sync_end = std::max(sync_end, end);
        sync_done = true;
    });
    cluster.drain();
    assert(sync_done);
    (void)sync_done;
    result.comm_time = sync_end - exch_end;
    result.total_time = sync_end;

    // Record the sync traffic for cNode 0 by medium.
    auto traffic =
        strategy->traffic(f, static_cast<int>(group.size()));
    auto addSync = [&](profiler::Medium m, double bytes) {
        if (bytes > 0.0) {
            result.metadata.transfers.push_back(
                {profiler::TransferKind::WeightSync, m, 0, bytes,
                 exch_end, sync_end});
        }
    };
    addSync(profiler::Medium::Pcie, traffic.pcie_bytes);
    addSync(profiler::Medium::Ethernet, traffic.ethernet_bytes);
    addSync(profiler::Medium::NvLink, traffic.nvlink_bytes);

    return result;
}

TrainingSimulator::PipelineResult
TrainingSimulator::runPipelined(const workload::CaseStudyModel &model,
                                int steps, bool gate_on_comm) const
{
    assert(steps >= 1);
    const auto &f = model.features;
    const auto arch = model.arch;
    const int n = model.num_cnodes;
    const auto &eff = model.measured_efficiency;

    sim::TopologyConfig tc;
    tc.cluster = opts_.cluster;
    tc.efficiency = eff;
    tc.kernel_launch_overhead = opts_.kernel_launch_overhead;
    tc.nvlink_links_per_gpu = opts_.nvlink_links_per_gpu;
    tc.shared_pcie = arch == ArchType::OneWorkerMultiGpu;
    const int gps = tc.cluster.server.gpus_per_server;
    bool one_per_server = arch == ArchType::PsWorker;
    tc.num_servers =
        one_per_server ? n : (n + gps - 1) / gps;

    sim::ClusterSim cluster(tc);
    auto group = one_per_server ? cluster.gpuGroupOnePerServer(n)
                                : cluster.gpuGroup(n);
    auto strategy = collectives::makeStrategy(arch);

    // Precompute per-kernel service times once.
    const auto &gpu_spec = tc.cluster.server.gpu;
    const double flops_rate = gpu_spec.peak_flops * eff.gpu_flops;
    const double mem_rate = gpu_spec.mem_bandwidth * eff.gpu_memory;
    std::vector<double> kernel_seconds;
    for (const workload::Op &op : model.graph.ops()) {
        if (op.type == workload::OpType::DataLoad)
            continue;
        kernel_seconds.push_back(
            workload::isComputeBound(op.type)
                ? op.flops / flops_rate
                : op.mem_bytes / mem_rate);
    }

    // Shared pipeline state; closures keep it alive until the drain
    // finishes (all events drain inside this function).
    struct State
    {
        int steps;
        int n;
        bool gate_on_comm;
        std::vector<int> compute_remaining; // per step: replicas left
        std::vector<bool> data_done;        // per (step, replica)
        std::vector<bool> compute_submitted;
        std::vector<bool> comm_done; // per step
        std::vector<double> step_finish;
    };
    auto st = std::make_shared<State>();
    st->steps = steps;
    st->n = n;
    st->gate_on_comm = gate_on_comm;
    st->compute_remaining.assign(static_cast<size_t>(steps), n);
    st->data_done.assign(static_cast<size_t>(steps) * n, false);
    st->compute_submitted.assign(static_cast<size_t>(steps) * n,
                                 false);
    st->comm_done.assign(static_cast<size_t>(steps), false);
    st->step_finish.assign(static_cast<size_t>(steps), 0.0);

    // Forward declarations. Every event drains inside this function,
    // so the closures reach these two by reference; owning each other
    // through shared pointers would be a cycle that never frees.
    std::function<void(int, int)> submitCompute;
    std::function<void(int, double)> onComputeDone;

    submitCompute = [&, st](int s, int r) {
        size_t idx = static_cast<size_t>(s) * st->n +
                     static_cast<size_t>(r);
        if (st->compute_submitted[idx] || !st->data_done[idx])
            return;
        if (st->gate_on_comm && s > 0 && !st->comm_done[s - 1])
            return;
        st->compute_submitted[idx] = true;
        sim::Gpu *gpu = group[static_cast<size_t>(r)];
        for (size_t k = 0; k < kernel_seconds.size(); ++k) {
            bool last = k + 1 == kernel_seconds.size();
            gpu->exec().submit(
                kernel_seconds[k],
                last ? sim::Completion(
                           [&onComputeDone, s](sim::SimTime,
                                               sim::SimTime end) {
                               onComputeDone(s, end);
                           })
                     : sim::Completion());
        }
    };

    onComputeDone = [&, st](int s, double) {
        if (--st->compute_remaining[static_cast<size_t>(s)] > 0)
            return;
        // All replicas finished step s: launch the weight sync; its
        // link submissions naturally serialize behind step s-1's.
        strategy->sync(
            cluster, group, f, [&, st, s](double end) {
                st->comm_done[static_cast<size_t>(s)] = true;
                st->step_finish[static_cast<size_t>(s)] = end;
                if (st->gate_on_comm && s + 1 < st->steps) {
                    for (int r = 0; r < st->n; ++r)
                        submitCompute(s + 1, r);
                }
            });
    };

    // Prefetch every step's input; FIFO host links pace the loads.
    for (int s = 0; s < steps; ++s) {
        for (int r = 0; r < n; ++r) {
            group[static_cast<size_t>(r)]->hostLink().submit(
                f.input_bytes,
                [&, st, s, r](sim::SimTime, sim::SimTime) {
                    st->data_done[static_cast<size_t>(s) * st->n +
                                  static_cast<size_t>(r)] = true;
                    submitCompute(s, r);
                });
        }
    }
    cluster.drain();

    // Timeline: replay step completions in step order. The drain
    // fires events in (when, seq) order by definition, and
    // step_finish is a pure function of the inputs, so the replayed
    // rows are the same at every thread count.
    if (obs::timelineActive()) {
        obs::Timeline *tl = obs::timeline();
        obs::Timeline::Rate &steps_rate =
            tl->rate("testbed.steps");
        for (double finish : st->step_finish) {
            tl->advanceTo(finish);
            steps_rate.add();
        }
    }

    PipelineResult result;
    result.steps = steps;
    result.total_time = st->step_finish.back();
    result.nonoverlap_step_time = run(model).total_time;
    result.steady_step_time =
        steps > 1 ? (st->step_finish.back() - st->step_finish.front()) /
                        (steps - 1)
                  : result.total_time;
    return result;
}

} // namespace paichar::testbed
