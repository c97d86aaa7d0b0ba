/**
 * @file
 * Tests for the simulated testbed (Sec IV's measurement substrate).
 */

#include <gtest/gtest.h>

#include "core/analytical_model.h"
#include "hw/units.h"
#include "obs/obs.h"
#include "testbed/training_sim.h"

namespace paichar::testbed {
namespace {

using hw::kGB;
using hw::kMB;
using hw::kTFLOPs;
using workload::ArchType;
using workload::CaseStudyModel;
using workload::ModelZoo;

TEST(TrainingSimTest, PhasesSumToTotal)
{
    TrainingSimulator sim;
    for (const auto &m : ModelZoo::all()) {
        StepResult r = sim.run(m);
        EXPECT_NEAR(r.data_time + r.compute_time + r.comm_time,
                    r.total_time, 1e-9)
            << m.name;
        EXPECT_GT(r.total_time, 0.0) << m.name;
        EXPECT_GT(r.num_kernels, 10) << m.name;
    }
}

TEST(TrainingSimTest, KernelAccountingMatchesGraph)
{
    TrainingSimulator sim;
    auto m = ModelZoo::resnet50();
    StepResult r = sim.run(m);

    // Kernel service seconds follow demand / (capacity * measured
    // efficiency).
    double flops_rate = 15e12 * m.measured_efficiency.gpu_flops;
    double mem_rate = 900e9 * m.measured_efficiency.gpu_memory;
    EXPECT_NEAR(r.compute_flops_time,
                m.features.flop_count / flops_rate,
                1e-9 * r.compute_flops_time);
    EXPECT_NEAR(r.compute_mem_time,
                m.features.mem_access_bytes / mem_rate,
                1e-9 * r.compute_mem_time);
    // The compute phase is serial on one GPU: service + overhead.
    EXPECT_NEAR(r.compute_time,
                r.compute_flops_time + r.compute_mem_time +
                    r.overhead_time,
                1e-9);
    EXPECT_NEAR(r.overhead_time,
                r.num_kernels * sim.options().kernel_launch_overhead,
                1e-12);
}

// Every kernel's service interval is known when it is submitted, so
// the compute phase schedules one event, not one per kernel.
TEST(TrainingSimTest, ComputePhaseSchedulesNoKernelEvents)
{
    TrainingSimulator sim;
    obs::Counter &executed = obs::counter("sim.events_executed");
    uint64_t before = executed.value();
    StepResult r = sim.run(ModelZoo::bert());
    uint64_t events = executed.value() - before;
    EXPECT_GT(events, 0u);
    EXPECT_LT(events, static_cast<uint64_t>(r.num_kernels));
}

TEST(TrainingSimTest, DataPhaseUsesMeasuredPcieEfficiency)
{
    TrainingSimulator sim;
    auto m = ModelZoo::speech();
    StepResult r = sim.run(m);
    double pcie_rate = 10e9 * m.measured_efficiency.pcie;
    EXPECT_NEAR(r.data_time, m.features.input_bytes / pcie_rate,
                1e-9);
}

TEST(TrainingSimTest, PreprocessingDelaysDataPhase)
{
    SimOptions opts;
    opts.preprocessing_rate = 1e9;
    TrainingSimulator sim(opts);
    auto m = ModelZoo::speech();
    StepResult r = sim.run(m);
    double pcie_rate = 10e9 * m.measured_efficiency.pcie;
    EXPECT_NEAR(r.data_time,
                m.features.input_bytes / 1e9 +
                    m.features.input_bytes / pcie_rate,
                1e-9);
}

TEST(TrainingSimTest, OneWorkerOneGpuHasNoCommPhase)
{
    TrainingSimulator sim;
    StepResult r = sim.run(ModelZoo::speech());
    EXPECT_DOUBLE_EQ(r.comm_time, 0.0);
}

TEST(TrainingSimTest, PsWorkerCommMatchesSerialLegs)
{
    TrainingSimulator sim;
    auto m = ModelZoo::multiInterests();
    StepResult r = sim.run(m);
    double nic = 25e9 / 8.0 * m.measured_efficiency.network;
    double pcie = 10e9 * m.measured_efficiency.pcie;
    EXPECT_NEAR(r.comm_time,
                m.features.comm_bytes / nic +
                    m.features.comm_bytes / pcie,
                1e-6);
}

TEST(TrainingSimTest, MetadataCoversStep)
{
    TrainingSimulator sim;
    auto m = ModelZoo::bert();
    StepResult r = sim.run(m);
    EXPECT_EQ(static_cast<int>(r.metadata.ops.size()),
              r.num_kernels);
    // Input + at least one weight-sync record.
    EXPECT_GE(r.metadata.transfers.size(), 2u);
    EXPECT_EQ(r.metadata.meta.arch, ArchType::AllReduceLocal);
    EXPECT_EQ(r.metadata.meta.num_cnodes, 8);
    for (const auto &op : r.metadata.ops) {
        EXPECT_LE(op.start, op.end);
        EXPECT_GE(op.start, r.data_time - 1e-12);
    }
}

TEST(TrainingSimTest, DeterministicAcrossRuns)
{
    TrainingSimulator sim;
    auto m = ModelZoo::gcn();
    StepResult a = sim.run(m);
    StepResult b = sim.run(m);
    EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
    EXPECT_DOUBLE_EQ(a.comm_time, b.comm_time);
}

TEST(TrainingSimTest, PearlCommFarBelowPsWorkerForGcn)
{
    // Fig 13(d): training GCN with PEARL cuts the communication share
    // from ~95% (PS/Worker estimate) to a small fraction.
    TrainingSimulator sim;
    auto m = ModelZoo::gcn();
    StepResult pearl = sim.run(m);
    StepResult ps = sim.run(m.graph, m.features, ArchType::PsWorker,
                            m.num_cnodes, m.measured_efficiency);
    double pearl_share = pearl.comm_time / pearl.total_time;
    double ps_share = ps.comm_time / ps.total_time;
    EXPECT_GT(ps_share, 0.90);
    EXPECT_LT(pearl_share, 0.45);
}

TEST(TrainingSimTest, SharedPcieSerializes1wngReplicas)
{
    TrainingSimulator sim;
    auto m = ModelZoo::resnet50();
    StepResult spread = sim.run(m.graph, m.features,
                                ArchType::AllReduceLocal, 4,
                                m.measured_efficiency);
    StepResult shared = sim.run(m.graph, m.features,
                                ArchType::OneWorkerMultiGpu, 4,
                                m.measured_efficiency);
    // 4 replicas loading through one PCIe root take ~4x as long.
    EXPECT_NEAR(shared.data_time / spread.data_time, 4.0, 1e-6);
}

TEST(TrainingSimTest, ValidationDeltasMatchFig12Shape)
{
    // Fig 12: the 70%-assumption analytical estimate lands within
    // ~20% of the simulated measurement for five models; Speech is a
    // large-negative outlier because of its 3.1% HBM efficiency.
    TrainingSimulator sim;
    core::AnalyticalModel model(hw::v100Testbed());
    model.setPcieContention(false);

    for (const auto &m : ModelZoo::all()) {
        workload::TrainingJob job;
        job.arch = m.arch;
        job.num_cnodes = m.num_cnodes;
        job.features = m.features;
        double predicted = model.stepTime(job);
        double actual = sim.run(m).total_time;
        double diff = (predicted - actual) / actual;
        if (m.name == "Speech") {
            EXPECT_LT(diff, -0.30) << m.name;
        } else {
            EXPECT_LT(std::abs(diff), 0.25) << m.name << " " << diff;
        }
    }
}

} // namespace
} // namespace paichar::testbed
