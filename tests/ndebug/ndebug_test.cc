/**
 * @file
 * Release-mode regression tests for the hardened edge cases: this
 * binary compiles the fixed sources directly with NDEBUG forced on
 * (the rest of the tree keeps assertions), so every check exercised
 * here is real error handling that survives a release build, not an
 * assert standing in front of undefined behavior.
 *
 * Covers the bugfix classes:
 *  - WeightedCdf rejects empty-CDF queries and out-of-domain
 *    arguments by throwing;
 *  - EventQueue clamps past-time events (counted in obs) and throws
 *    on non-finite times;
 *  - the stats formatters allocate to fit, so extreme magnitudes
 *    render completely instead of truncating at a fixed buffer;
 *  - the serving fleet and its SLO searches validate their configs
 *    and arguments by throwing — the pre-fix asserts vanished under
 *    NDEBUG and let qps = 0 divide into NaN;
 *  - the exponential sampler clamps a closed-interval uniform draw
 *    instead of emitting an infinite inter-arrival gap;
 *  - the cluster scheduler and its Poisson submission stream reject
 *    out-of-range configs and rates (NaN included) by throwing;
 *  - placement, the architecture advisor and the optimization planner
 *    reject cNode counts, GPU-memory budgets and beam widths that
 *    `advise` and `plan` pass through, and budgets nothing fits in.
 */

#include <gtest/gtest.h>

#ifndef NDEBUG
#error "ndebug_test must be compiled with NDEBUG"
#endif

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "clustersim/scheduler.h"
#include "core/arch_feasibility.h"
#include "core/arch_selection.h"
#include "hw/hardware_config.h"
#include "inference/fleet_sim.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "opt/optimization_planner.h"
#include "sim/event_queue.h"
#include "stats/arrival.h"
#include "stats/ascii_plot.h"
#include "stats/cdf.h"
#include "stats/table.h"

namespace paichar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(NdebugCdfTest, EmptyQueriesThrowLogicError)
{
    stats::WeightedCdf cdf;
    EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
    EXPECT_THROW(cdf.median(), std::logic_error);
    EXPECT_THROW(cdf.mean(), std::logic_error);
    EXPECT_THROW(cdf.min(), std::logic_error);
    EXPECT_THROW(cdf.max(), std::logic_error);
    EXPECT_THROW(cdf.probAtOrBelow(0.0), std::logic_error);
    EXPECT_THROW(cdf.curve(10), std::logic_error);
}

TEST(NdebugCdfTest, AddRejectsNonFiniteValuesAndBadWeights)
{
    stats::WeightedCdf cdf;
    EXPECT_THROW(cdf.add(kNan), std::invalid_argument);
    EXPECT_THROW(cdf.add(kInf), std::invalid_argument);
    EXPECT_THROW(cdf.add(-kInf, 1.0), std::invalid_argument);
    EXPECT_THROW(cdf.add(1.0, -1.0), std::invalid_argument);
    EXPECT_THROW(cdf.add(1.0, kNan), std::invalid_argument);
    EXPECT_THROW(cdf.add(1.0, kInf), std::invalid_argument);
    // Rejected samples must not corrupt the CDF.
    EXPECT_TRUE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.totalWeight(), 0.0);
    cdf.add(2.0, 0.0); // zero weight is legal
    cdf.add(3.0);
    EXPECT_EQ(cdf.size(), 2u);
}

TEST(NdebugCdfTest, QuantileRejectsOutOfRangeQ)
{
    stats::WeightedCdf cdf;
    cdf.add(1.0);
    EXPECT_THROW(cdf.quantile(-0.01), std::invalid_argument);
    EXPECT_THROW(cdf.quantile(1.01), std::invalid_argument);
    EXPECT_THROW(cdf.quantile(kNan), std::invalid_argument);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 1.0);
}

TEST(NdebugCdfTest, CurveRejectsDegenerateGrids)
{
    stats::WeightedCdf cdf;
    cdf.add(1.0);
    EXPECT_THROW(cdf.curve(0), std::invalid_argument);
    EXPECT_THROW(cdf.curve(1), std::invalid_argument);
    EXPECT_EQ(cdf.curve(2).size(), 2u);
}

TEST(NdebugEventQueueTest, PastTimesClampToNowAndAreCounted)
{
    obs::Counter &clamped =
        obs::counter("sim.past_events_clamped");
    uint64_t before = clamped.value();

    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5.0, [&] {
        order.push_back(1);
        // now() is 5.0 here; an event "scheduled" at 1.0 must fire
        // at 5.0, after same-time events already in the queue.
        eq.schedule(1.0, [&] { order.push_back(3); });
    });
    eq.schedule(5.0, [&] { order.push_back(2); });
    EXPECT_DOUBLE_EQ(eq.run(), 5.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(clamped.value(), before + 1);
}

TEST(NdebugEventQueueTest, NegativeDelaysClampViaScheduleAfter)
{
    obs::Counter &clamped =
        obs::counter("sim.past_events_clamped");
    uint64_t before = clamped.value();

    sim::EventQueue eq;
    double fired_at = -1.0;
    eq.schedule(2.0, [&] {
        eq.scheduleAfter(-10.0, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(fired_at, 2.0);
    EXPECT_EQ(clamped.value(), before + 1);
}

TEST(NdebugEventQueueTest, NonFiniteTimesThrow)
{
    sim::EventQueue eq;
    EXPECT_THROW(eq.schedule(kNan, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.schedule(kInf, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.scheduleAfter(kNan, [] {}),
                 std::invalid_argument);
    EXPECT_THROW(eq.scheduleAfter(kInf, [] {}),
                 std::invalid_argument);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(NdebugFormatTest, ExtremeMagnitudesRenderCompletely)
{
    // %f of 1e300 is a 301-digit integer part; the old fixed 64-byte
    // buffers truncated it.
    std::string s = stats::fmt(1e300, 0);
    EXPECT_EQ(s.size(), 301u);
    EXPECT_EQ(s.front(), '1');
    EXPECT_EQ(s.find('.'), std::string::npos);

    // sign + 301 digits + '.' + 3 decimals
    std::string neg = stats::fmt(-1e300, 3);
    EXPECT_EQ(neg.size(), 306u);
}

TEST(NdebugFormatTest, PctSecondsAndBytesSurviveExtremes)
{
    std::string pct = stats::fmtPct(1e300, 0);
    EXPECT_EQ(pct.size(), 303u + 1u); // 1e302 digits + '%'
    EXPECT_EQ(pct.back(), '%');

    std::string sec = stats::fmtSeconds(1e300);
    EXPECT_GT(sec.size(), 300u);
    EXPECT_EQ(sec.substr(sec.size() - 2), " s");

    // fmtBytes divides down and uses %g, so it stays short but must
    // still be complete.
    std::string bytes = stats::fmtBytes(1e300);
    EXPECT_NE(bytes.find("TB"), std::string::npos);

    EXPECT_EQ(stats::fmtG(std::numeric_limits<double>::max(), 17),
              "1.7976931348623157e+308");
}

TEST(NdebugFormatTest, CdfPlotAxisLabelsSurviveExtremeRanges)
{
    stats::WeightedCdf cdf;
    cdf.add(1.0);
    cdf.add(1e300);
    std::string plot = stats::renderCdfPlot(
        {{"extreme", &cdf}}, 40, 8, /*log_x=*/true, "bytes");
    EXPECT_NE(plot.find("e+300"), std::string::npos);
    EXPECT_EQ(plot.back(), '\n');
}

/** A served model built by hand (no ModelZoo link in this binary). */
inference::InferenceWorkload
toyWorkload()
{
    inference::InferenceWorkload w;
    w.name = "toy";
    w.flops_per_item = 1e9;
    w.act_bytes_per_item = 1e6;
    w.input_bytes_per_item = 1e4;
    w.weight_bytes = 1e8;
    return w;
}

TEST(NdebugServingTest, ConfigValidationThrowsUnderNdebug)
{
    // Regression: these were assert()s. With NDEBUG they vanished,
    // so max_batch = 0 marched into the batch loop and qps = 0
    // divided into NaN arrival gaps. Real throws must survive here.
    inference::FleetConfig bad;
    bad.max_batch = 0;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);
    bad = inference::FleetConfig{};
    bad.launch_overhead = kNan;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);

    inference::FleetConfig one;
    auto w = toyWorkload();
    EXPECT_THROW(inference::maxQpsUnderSlo(one, w, -1.0, 100.0, 20000, 1),
                 std::invalid_argument);
    EXPECT_THROW(inference::maxQpsUnderSlo(one, w, 0.01, kInf, 20000, 1),
                 std::invalid_argument);
    EXPECT_THROW(
        inference::maxQpsUnderSlo(one, w, 0.01, 100.0,
                                  inference::kMinSaturationSamples - 1,
                                  1),
        std::invalid_argument);
}

TEST(NdebugServingTest, ShortRunsStayUndersampledUnderNdebug)
{
    // The saturation-detector floor is data-dependent logic, not an
    // assert; it must behave identically in release builds.
    stats::ArrivalConfig arrival;
    arrival.qps = 100000.0;
    auto r = inference::FleetSimulator{inference::FleetConfig{}}.run(
        {{toyWorkload(), arrival}}, inference::kMinSaturationSamples - 1,
        7);
    EXPECT_EQ(r.verdict, inference::OverloadVerdict::Undersampled);
    EXPECT_FALSE(r.saturated);
}

TEST(NdebugFleetTest, FleetValidationThrowsUnderNdebug)
{
    inference::FleetConfig bad;
    bad.num_servers = 0;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);
    bad = inference::FleetConfig{};
    bad.autoscaler.enabled = true;
    bad.autoscaler.check_interval = 0.0;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);

    inference::FleetSimulator sim{inference::FleetConfig{}};
    EXPECT_THROW(sim.run({}, 100, 1), std::invalid_argument);
    stats::ArrivalConfig arrival;
    arrival.qps = 0.0; // invalid stream surfaces from run()
    EXPECT_THROW(sim.run({{toyWorkload(), arrival}}, 100, 1),
                 std::invalid_argument);
}

TEST(NdebugArrivalTest, ExpSamplerClampsClosedIntervalDraws)
{
    obs::Counter &clamped = obs::counter("stats.exp_clamped");
    uint64_t before = clamped.value();
    double gap = stats::expFromUniform(1.0, 10.0);
    EXPECT_TRUE(std::isfinite(gap));
    EXPECT_GT(gap, 0.0);
    EXPECT_EQ(clamped.value(), before + 1);
}

TEST(NdebugArrivalTest, StreamValidationThrowsUnderNdebug)
{
    stats::ArrivalConfig cfg;
    cfg.qps = -1.0;
    EXPECT_THROW(stats::ArrivalStream(cfg, 1),
                 std::invalid_argument);
    cfg = stats::ArrivalConfig{};
    cfg.kind = stats::ArrivalKind::Diurnal;
    cfg.diurnal_amplitude = 1.5;
    EXPECT_THROW(stats::ArrivalStream(cfg, 1),
                 std::invalid_argument);
}

TEST(NdebugTimelineTest, IntervalValidationThrowsUnderNdebug)
{
    // The interval comes straight from --timeline-interval, so a
    // non-positive or non-finite value must be a real exception in
    // release builds, not an assert that NDEBUG strips.
    EXPECT_THROW(obs::Timeline{0.0}, std::invalid_argument);
    EXPECT_THROW(obs::Timeline{-10.0}, std::invalid_argument);
    EXPECT_THROW(obs::Timeline{kNan}, std::invalid_argument);
    EXPECT_THROW(obs::Timeline{kInf}, std::invalid_argument);
    EXPECT_THROW(obs::startTimeline(0.0), std::invalid_argument);
    EXPECT_FALSE(obs::timelineActive());
    EXPECT_NO_THROW(obs::Timeline{1.0});
}

TEST(NdebugTimelineTest, SloAutoscalerValidationThrowsUnderNdebug)
{
    inference::FleetConfig bad;
    bad.autoscaler.enabled = true;
    bad.autoscaler.mode =
        inference::AutoscalerConfig::Mode::SloLatency;
    bad.autoscaler.slo_latency = 0.0;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);
    bad.autoscaler.slo_latency = kNan;
    EXPECT_THROW(inference::FleetSimulator{bad},
                 std::invalid_argument);
}

TEST(NdebugSchedulerTest, ConfigAndStreamValidationThrowUnderNdebug)
{
    // `schedule --servers 0`, `--nvlink-frac 2` and `--rate 0|nan|-1`
    // reach these checks directly; under NDEBUG the old asserts
    // vanished and the run divided by a zero rate or indexed an empty
    // server table.
    core::AnalyticalModel model(hw::paiCluster());
    auto rejects = [&](auto mutate) {
        clustersim::SchedulerConfig cfg;
        mutate(cfg);
        EXPECT_THROW(clustersim::ClusterScheduler(cfg, model),
                     std::invalid_argument);
    };
    rejects([](auto &c) { c.num_servers = 0; });
    rejects([](auto &c) { c.gpus_per_server = 0; });
    rejects([](auto &c) { c.nvlink_fraction = 2.0; });
    rejects([](auto &c) { c.nvlink_fraction = kNan; });
    rejects([](auto &c) { c.old_gen_fraction = -0.5; });
    rejects([](auto &c) { c.preempt_ratio = 1.0; });
    EXPECT_NO_THROW(
        clustersim::ClusterScheduler(clustersim::SchedulerConfig{}, model));

    std::vector<workload::TrainingJob> jobs(3);
    for (double rate : {0.0, -1.0, kNan, kInf}) {
        EXPECT_THROW(
            clustersim::poissonRequests(jobs, rate, 2000.0, 1.2, 1),
            std::invalid_argument)
            << rate;
    }
    EXPECT_THROW(clustersim::poissonRequests(jobs, 100.0, 0.5, 1.2, 1),
                 std::invalid_argument);
    EXPECT_THROW(clustersim::poissonRequests(jobs, 100.0, 2000.0, kNan, 1),
                 std::invalid_argument);
    EXPECT_EQ(clustersim::poissonRequests(jobs, 100.0, 2000.0, 1.2, 1)
                  .size(),
              3u);
}

TEST(NdebugAdvisorTest, PlacementAndBudgetChecksThrowUnderNdebug)
{
    // `advise --cnodes 0|-1` and `--gpu-mem 0|nan` used to reach
    // asserts; `--gpu-mem 2.5` left no feasible option for
    // recommend() to return.
    workload::WorkloadFeatures f;
    f.flop_count = 1e12;
    f.mem_access_bytes = 1e9;
    f.input_bytes = 1e6;
    f.comm_bytes = 1e8;
    f.dense_weight_bytes = 1e8;
    const hw::ServerSpec server = hw::v100Testbed().server;
    for (int cnodes : {0, -1}) {
        EXPECT_THROW(core::resolvePlacement(f, workload::ArchType::PsWorker,
                                            cnodes, server, 32e9),
                     std::invalid_argument)
            << cnodes;
    }
    for (double mem : {0.0, -1.0, kNan}) {
        EXPECT_THROW(core::resolvePlacement(f, workload::ArchType::PsWorker,
                                            8, server, mem),
                     std::invalid_argument)
            << mem;
    }

    core::AnalyticalModel model(hw::v100Testbed());
    EXPECT_THROW(core::ArchitectureAdvisor(model, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(core::ArchitectureAdvisor(model, kNan),
                 std::invalid_argument);
    workload::TrainingJob job;
    job.num_cnodes = 8;
    job.features = f;
    EXPECT_THROW(core::ArchitectureAdvisor(model, 2.5).recommend(job),
                 std::invalid_argument);
    EXPECT_TRUE(core::ArchitectureAdvisor(model, 32e9).recommend(job)
                    .feasible);
}

TEST(NdebugPlannerTest, ConfigAndBudgetChecksThrowUnderNdebug)
{
    // `plan --beam 1e10` wrapped to a negative width and `--gpu-mem
    // nan` slipped past the old asserts; `--gpu-mem 2.5` (or any
    // budget the baseline does not fit in) left no baseline.
    auto rejects = [](auto mutate) {
        opt::PlannerConfig cfg;
        mutate(cfg);
        EXPECT_THROW(opt::OptimizationPlanner{cfg}, std::invalid_argument);
    };
    rejects([](auto &c) { c.gpu_memory_bytes = 0.0; });
    rejects([](auto &c) { c.gpu_memory_bytes = kNan; });
    rejects([](auto &c) { c.beam_width = 0; });
    rejects([](auto &c) { c.beam_width = -1; });

    for (auto search : {opt::SearchMode::Exhaustive, opt::SearchMode::Beam}) {
        for (double mem : {2.5, 1e9}) {
            opt::PlannerConfig cfg;
            cfg.search = search;
            cfg.gpu_memory_bytes = mem;
            cfg.top_k = 0;
            EXPECT_THROW(opt::OptimizationPlanner(cfg).evaluate(
                             workload::ModelZoo::gcn(), nullptr),
                         std::invalid_argument)
                << mem;
        }
    }
}

} // namespace
} // namespace paichar
