/**
 * @file
 * The runtime layer's headline guarantee: every analysis result is
 * bit-identical regardless of thread count. Runs trace generation,
 * the full ClusterCharacterizer query surface, and the Table III
 * hardware sweep on a 10k-job synthetic trace with the serial path,
 * a 2-thread pool, and an (oversubscribed) 8-thread pool, and asserts
 * exact equality on every double produced. The characterizer's
 * one-pass CDF fill is pinned the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_selection.h"
#include "core/characterization.h"
#include "core/projection.h"
#include "core/sweep.h"
#include "hw/hardware_config.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "stats/rng.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

namespace paichar {
namespace {

using workload::ArchType;
using workload::TrainingJob;

constexpr uint64_t kSeed = 20181201;
constexpr size_t kJobs = 10000;

void
expectSameCdf(const stats::WeightedCdf &a, const stats::WeightedCdf &b,
              const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    ASSERT_EQ(a.empty(), b.empty()) << what;
    EXPECT_EQ(a.totalWeight(), b.totalWeight()) << what;
    if (a.empty())
        return;
    // mean() sums in insertion order, so it also pins that order.
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << what << " q" << q;
    EXPECT_EQ(a.curve(64), b.curve(64)) << what;
}

void
expectSameJobs(const std::vector<TrainingJob> &a,
               const std::vector<TrainingJob> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "job " << i;
        EXPECT_EQ(a[i].arch, b[i].arch) << "job " << i;
        EXPECT_EQ(a[i].num_cnodes, b[i].num_cnodes) << "job " << i;
        EXPECT_EQ(a[i].num_ps, b[i].num_ps) << "job " << i;
        EXPECT_EQ(a[i].features.batch_size, b[i].features.batch_size)
            << "job " << i;
        EXPECT_EQ(a[i].features.flop_count, b[i].features.flop_count)
            << "job " << i;
        EXPECT_EQ(a[i].features.mem_access_bytes,
                  b[i].features.mem_access_bytes)
            << "job " << i;
        EXPECT_EQ(a[i].features.input_bytes, b[i].features.input_bytes)
            << "job " << i;
        EXPECT_EQ(a[i].features.comm_bytes, b[i].features.comm_bytes)
            << "job " << i;
        EXPECT_EQ(a[i].features.embedding_comm_bytes,
                  b[i].features.embedding_comm_bytes)
            << "job " << i;
    }
}

TEST(DeterminismTest, TraceGenerationMatchesAcrossThreadCounts)
{
    trace::SyntheticClusterGenerator gen(kSeed);
    auto serial = gen.generate(kJobs, nullptr);

    runtime::ThreadPool p2(2), p8(8);
    expectSameJobs(serial, gen.generate(kJobs, &p2));
    expectSameJobs(serial, gen.generate(kJobs, &p8));
}

TEST(DeterminismTest, CharacterizerMatchesAcrossThreadCounts)
{
    auto spec = hw::paiCluster();
    core::AnalyticalModel model(spec);
    trace::SyntheticClusterGenerator gen(kSeed);
    auto jobs = gen.generate(kJobs, nullptr);

    runtime::ThreadPool p2(2), p8(8);
    core::ClusterCharacterizer serial(model, jobs, nullptr);
    core::ClusterCharacterizer two(model, jobs, &p2);
    core::ClusterCharacterizer eight(model, jobs, &p8);

    for (size_t i = 0; i < jobs.size(); i += 997) {
        const auto &b0 = serial.breakdownOf(i);
        for (const auto *other : {&two, &eight}) {
            const auto &b = other->breakdownOf(i);
            EXPECT_EQ(b0.t_data, b.t_data) << "job " << i;
            EXPECT_EQ(b0.t_comp_flops, b.t_comp_flops) << "job " << i;
            EXPECT_EQ(b0.t_comp_mem, b.t_comp_mem) << "job " << i;
            EXPECT_EQ(b0.t_weight, b.t_weight) << "job " << i;
            EXPECT_EQ(b0.t_weight_ethernet, b.t_weight_ethernet)
                << "job " << i;
        }
    }

    std::vector<std::optional<ArchType>> arches = {
        std::nullopt, ArchType::OneWorkerOneGpu,
        ArchType::OneWorkerMultiGpu, ArchType::PsWorker};
    for (const auto *other : {&two, &eight}) {
        for (auto arch : arches) {
            for (auto level : {core::Level::Job, core::Level::CNode}) {
                auto a0 = serial.avgBreakdown(arch, level);
                auto a1 = other->avgBreakdown(arch, level);
                for (size_t k = 0; k < a0.size(); ++k)
                    EXPECT_EQ(a0[k], a1[k]) << "avgBreakdown[" << k
                                            << "]";
                for (auto c : core::kAllComponents) {
                    expectSameCdf(serial.componentCdf(c, arch, level),
                                  other->componentCdf(c, arch, level),
                                  "componentCdf");
                }
            }
        }
        for (auto level : {core::Level::Job, core::Level::CNode}) {
            for (auto h : core::kAllHwComponents) {
                expectSameCdf(serial.hwComponentCdf(h, level),
                              other->hwComponentCdf(h, level),
                              "hwComponentCdf");
            }
        }
        expectSameCdf(serial.cnodeCountCdf(ArchType::PsWorker),
                      other->cnodeCountCdf(ArchType::PsWorker),
                      "cnodeCountCdf");
        expectSameCdf(serial.weightSizeCdf(std::nullopt),
                      other->weightSizeCdf(std::nullopt),
                      "weightSizeCdf");

        auto c0 = serial.constitution();
        auto c1 = other->constitution();
        EXPECT_EQ(c0.total_jobs, c1.total_jobs);
        EXPECT_EQ(c0.total_cnodes, c1.total_cnodes);
        EXPECT_EQ(c0.job_counts, c1.job_counts);
        EXPECT_EQ(c0.cnode_counts, c1.cnode_counts);
    }
}

TEST(DeterminismTest, HardwareSweepMatchesAcrossThreadCounts)
{
    auto spec = hw::paiCluster();
    trace::SyntheticClusterGenerator gen(kSeed);
    auto all = gen.generate(kJobs, nullptr);
    std::vector<TrainingJob> jobs;
    for (const auto &j : all) {
        if (j.arch == ArchType::PsWorker)
            jobs.push_back(j);
    }
    ASSERT_FALSE(jobs.empty());

    runtime::ThreadPool p2(2), p8(8);
    core::HardwareSweep serial(spec, nullptr);
    core::HardwareSweep two(spec, &p2);
    core::HardwareSweep eight(spec, &p8);

    auto s0 = serial.run(jobs);
    for (const auto *other : {&two, &eight}) {
        auto s1 = other->run(jobs);
        ASSERT_EQ(s0.size(), s1.size());
        for (size_t i = 0; i < s0.size(); ++i) {
            EXPECT_EQ(s0[i].resource, s1[i].resource);
            ASSERT_EQ(s0[i].points.size(), s1[i].points.size());
            for (size_t k = 0; k < s0[i].points.size(); ++k) {
                EXPECT_EQ(s0[i].points[k].resource,
                          s1[i].points[k].resource);
                EXPECT_EQ(s0[i].points[k].value, s1[i].points[k].value);
                EXPECT_EQ(s0[i].points[k].normalized,
                          s1[i].points[k].normalized);
                EXPECT_EQ(s0[i].points[k].avg_speedup,
                          s1[i].points[k].avg_speedup);
            }
        }
        EXPECT_EQ(
            serial.avgSpeedup(jobs, hw::Resource::Ethernet, 100.0),
            other->avgSpeedup(jobs, hw::Resource::Ethernet, 100.0));
    }
}

TEST(DeterminismTest, BatchProjectionMatchesAcrossThreadCounts)
{
    auto spec = hw::paiCluster();
    core::AnalyticalModel model(spec);
    trace::SyntheticClusterGenerator gen(kSeed);
    auto all = gen.generate(kJobs, nullptr);
    std::vector<TrainingJob> jobs;
    for (const auto &j : all) {
        if (j.arch == ArchType::PsWorker)
            jobs.push_back(j);
    }
    ASSERT_FALSE(jobs.empty());

    core::ArchitectureProjector proj(model);
    runtime::ThreadPool p8(8);
    auto r0 = proj.projectAll(jobs, ArchType::AllReduceLocal,
                              core::OverlapMode::NonOverlap, nullptr);
    auto r1 = proj.projectAll(jobs, ArchType::AllReduceLocal,
                              core::OverlapMode::NonOverlap, &p8);
    ASSERT_EQ(r0.size(), r1.size());
    for (size_t i = 0; i < r0.size(); ++i) {
        EXPECT_EQ(r0[i].old_step_time, r1[i].old_step_time)
            << "job " << i;
        EXPECT_EQ(r0[i].new_step_time, r1[i].new_step_time)
            << "job " << i;
        EXPECT_EQ(r0[i].single_node_speedup, r1[i].single_node_speedup)
            << "job " << i;
        EXPECT_EQ(r0[i].throughput_speedup, r1[i].throughput_speedup)
            << "job " << i;
        EXPECT_EQ(r0[i].projected.arch, r1[i].projected.arch)
            << "job " << i;
        EXPECT_EQ(r0[i].projected.num_cnodes, r1[i].projected.num_cnodes)
            << "job " << i;
    }

    core::ArchitectureAdvisor advisor(model, 32.0 * (1ull << 30));
    auto a0 = advisor.recommendAll(jobs, core::OverlapMode::NonOverlap,
                                   nullptr);
    auto a1 = advisor.recommendAll(jobs, core::OverlapMode::NonOverlap,
                                   &p8);
    ASSERT_EQ(a0.size(), a1.size());
    for (size_t i = 0; i < a0.size(); ++i) {
        EXPECT_EQ(a0[i].arch, a1[i].arch) << "job " << i;
        EXPECT_EQ(a0[i].step_time, a1[i].step_time) << "job " << i;
        EXPECT_EQ(a0[i].throughput, a1[i].throughput) << "job " << i;
    }
}

TEST(DeterminismTest, CsvParseMatchesAcrossThreadCounts)
{
    trace::SyntheticClusterGenerator gen(kSeed);
    auto jobs = gen.generate(kJobs, nullptr);
    std::string csv = trace::toCsv(jobs);

    auto serial = trace::fromCsv(csv, nullptr);
    ASSERT_TRUE(serial.ok) << serial.error;
    expectSameJobs(jobs, serial.jobs);

    runtime::ThreadPool p2(2), p8(8);
    for (runtime::ThreadPool *pool :
         {static_cast<runtime::ThreadPool *>(&p2), &p8}) {
        auto parallel = trace::fromCsv(csv, pool);
        ASSERT_TRUE(parallel.ok) << parallel.error;
        expectSameJobs(serial.jobs, parallel.jobs);
    }

    // Errors carry the same line number for every thread count.
    std::string bad = csv;
    size_t pos = bad.find('\n', bad.size() / 2);
    ASSERT_NE(pos, std::string::npos);
    bad[pos + 1] = '!';
    auto e0 = trace::fromCsv(bad, nullptr);
    ASSERT_FALSE(e0.ok);
    for (runtime::ThreadPool *pool :
         {static_cast<runtime::ThreadPool *>(&p2), &p8}) {
        auto e1 = trace::fromCsv(bad, pool);
        ASSERT_FALSE(e1.ok);
        EXPECT_EQ(e0.error, e1.error);
    }
}

/**
 * A CDF built the way the characterizer built them before its
 * one-pass fill: add() for every kept index, in index order.
 */
stats::WeightedCdf
referenceCdf(size_t n, const std::function<bool(size_t)> &keep,
             const std::function<std::pair<double, double>(size_t)>
                 &sample)
{
    stats::WeightedCdf cdf;
    for (size_t i = 0; i < n; ++i) {
        if (keep(i)) {
            auto [value, weight] = sample(i);
            cdf.add(value, weight);
        }
    }
    return cdf;
}

/** Every CDF query of @p ch against its add()-built reference. */
void
expectCdfQueriesMatchReference(const core::ClusterCharacterizer &ch)
{
    const workload::JobStore &jobs = ch.jobs();
    const size_t n = jobs.size();
    auto weight = [&](size_t i, core::Level level) {
        return level == core::Level::Job
                   ? 1.0
                   : static_cast<double>(jobs.job(i).num_cnodes);
    };
    auto inArch = [&](std::optional<ArchType> arch) {
        return [&jobs, arch](size_t i) {
            return !arch || jobs.job(i).arch == *arch;
        };
    };
    std::vector<std::optional<ArchType>> arches = {std::nullopt};
    for (ArchType a : workload::kAllArchTypes)
        arches.push_back(a);

    for (auto level : {core::Level::Job, core::Level::CNode}) {
        for (auto arch : arches) {
            for (auto c : core::kAllComponents) {
                expectSameCdf(
                    ch.componentCdf(c, arch, level),
                    referenceCdf(n, inArch(arch),
                                 [&](size_t i) {
                                     return std::pair(
                                         ch.breakdownOf(i).fraction(c),
                                         weight(i, level));
                                 }),
                    "componentCdf");
            }
        }
        for (auto h : core::kAllHwComponents) {
            expectSameCdf(
                ch.hwComponentCdf(h, level),
                referenceCdf(n, inArch(std::nullopt),
                             [&](size_t i) {
                                 return std::pair(
                                     ch.breakdownOf(i).hwFraction(h),
                                     weight(i, level));
                             }),
                "hwComponentCdf");
        }
    }
    for (auto arch : arches) {
        if (arch) {
            expectSameCdf(ch.cnodeCountCdf(*arch),
                          referenceCdf(n, inArch(arch),
                                       [&](size_t i) {
                                           return std::pair(
                                               weight(i,
                                                      core::Level::CNode),
                                               1.0);
                                       }),
                          "cnodeCountCdf");
        }
        expectSameCdf(
            ch.weightSizeCdf(arch),
            referenceCdf(n, inArch(arch),
                         [&](size_t i) {
                             return std::pair(
                                 jobs.job(i).features.weightBytes(),
                                 1.0);
                         }),
            "weightSizeCdf");
    }
}

TEST(DeterminismTest, CharacterizerCdfsMatchAddBuiltReference)
{
    core::AnalyticalModel model(hw::paiCluster());
    trace::SyntheticClusterGenerator gen(kSeed);
    auto jobs = gen.generate(98311, nullptr);
    runtime::ThreadPool p4(4);

    {
        SCOPED_TRACE("owned store");
        core::ClusterCharacterizer owned(model, jobs, &p4);
        expectCdfQueriesMatchReference(owned);
    }

    std::string path =
        ::testing::TempDir() + "paichar_determinism_cdf.paib";
    ASSERT_TRUE(trace::writeTraceFile(path, jobs,
                                      trace::TraceFormat::Binary));
    {
        auto loaded = trace::readTraceStore(path, &p4);
        ASSERT_TRUE(loaded.ok) << loaded.error;
        ASSERT_TRUE(loaded.store.columnar());
        SCOPED_TRACE("paib-mapped store");
        core::ClusterCharacterizer mapped(model, std::move(loaded.store),
                                          &p4);
        expectCdfQueriesMatchReference(mapped);
    }
    std::remove(path.c_str());
}

TEST(AlignedChunksTest, CoversRangeWithSnappedBoundaries)
{
    // Records of length 10; snap moves a tentative boundary forward
    // to the next multiple of 10.
    auto snap = [](size_t pos) { return ((pos + 9) / 10) * 10; };
    for (size_t n : {size_t{0}, size_t{1}, size_t{10}, size_t{95},
                     size_t{1000}}) {
        for (size_t max_chunks : {size_t{1}, size_t{3}, size_t{7},
                                  size_t{64}}) {
            auto chunks = runtime::alignedChunks(n, max_chunks, snap);
            if (n == 0) {
                EXPECT_TRUE(chunks.empty());
                continue;
            }
            ASSERT_FALSE(chunks.empty());
            EXPECT_LE(chunks.size(), max_chunks);
            EXPECT_EQ(chunks.front().first, 0u);
            EXPECT_EQ(chunks.back().second, n);
            for (size_t i = 0; i < chunks.size(); ++i) {
                EXPECT_LT(chunks[i].first, chunks[i].second);
                if (i > 0) {
                    EXPECT_EQ(chunks[i - 1].second, chunks[i].first);
                }
                // Interior boundaries sit on record starts.
                if (chunks[i].second != n) {
                    EXPECT_EQ(chunks[i].second % 10, 0u);
                }
            }
        }
    }
}

} // namespace
} // namespace paichar
