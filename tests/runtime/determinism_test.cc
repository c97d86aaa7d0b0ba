/**
 * @file
 * The runtime layer's headline guarantee: every analysis result is
 * bit-identical regardless of thread count. Runs trace generation,
 * the full ClusterCharacterizer query surface, and the Table III
 * hardware sweep on a 10k-job synthetic trace with the serial path,
 * a 2-thread pool, and an (oversubscribed) 8-thread pool, and asserts
 * exact equality on every double produced. parallelSortByKey and the
 * characterizer's one-pass CDF fill are pinned the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
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
    // mean() first: before any query sorts the samples, it sums them
    // in insertion order, so it also pins that order.
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

using SortItem = std::pair<double, int>;

uint64_t
itemKey(const SortItem &item)
{
    return runtime::doubleSortKey(item.first);
}

/** What parallelSortByKey must return: std::stable_sort by key. */
std::vector<SortItem>
stableSortedByKey(std::vector<SortItem> v)
{
    std::stable_sort(v.begin(), v.end(),
                     [](const SortItem &a, const SortItem &b) {
                         return itemKey(a) < itemKey(b);
                     });
    return v;
}

/**
 * parallelSortByKey on @p input with no pool, 1, 2 and 4 threads,
 * and nested on a worker, each equal to std::stable_sort by key.
 */
void
expectStableSortEverywhere(const std::vector<SortItem> &input)
{
    const std::vector<SortItem> expected = stableSortedByKey(input);
    std::vector<SortItem> serial = input;
    runtime::parallelSortByKey(nullptr, serial, itemKey);
    EXPECT_EQ(expected, serial) << "no pool";

    runtime::ThreadPool p1(1), p2(2), p4(4);
    for (runtime::ThreadPool *pool : {&p1, &p2, &p4}) {
        std::vector<SortItem> v = input;
        runtime::parallelSortByKey(pool, v, itemKey);
        EXPECT_EQ(expected, v) << pool->size() << " threads";
    }

    // Nested on a pool worker, the sort runs inline: same output.
    std::vector<SortItem> nested = input;
    runtime::parallelFor(&p4, 1, [&](size_t) {
        runtime::parallelSortByKey(&p4, nested, itemKey);
    });
    EXPECT_EQ(expected, nested) << "nested";
}

TEST(ParallelSortTest, SameOutputAtEveryThreadCount)
{
    // Every key repeats, so equal keys carry distinct tags, and any
    // difference in how a thread count orders them would show.
    const size_t run = runtime::kSortRun;
    for (size_t n : {size_t{0}, size_t{1}, run - 1, run, run + 1,
                     3 * run + 7}) {
        SCOPED_TRACE("n " + std::to_string(n));
        stats::Rng rng(n + 1);
        std::vector<SortItem> input(n);
        for (size_t i = 0; i < n; ++i) {
            input[i] = {static_cast<double>(rng.uniformInt(0, 99)),
                        static_cast<int>(i)};
        }
        expectStableSortEverywhere(input);
    }
}

TEST(ParallelSortTest, DoubleSortKeyPreservesOrder)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double dmax = std::numeric_limits<double>::max();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double dmin = std::numeric_limits<double>::min();
    const std::vector<double> ascending = {
        -inf, -dmax, -1e300, -2.5, -1.0, -dmin, -dmin / 2, -tiny,
        0.0, tiny, 3 * tiny, dmin / 2, dmin, 1e-300, 1.0, 2.5, 1e300,
        dmax, inf};
    for (size_t i = 1; i < ascending.size(); ++i) {
        EXPECT_LT(runtime::doubleSortKey(ascending[i - 1]),
                  runtime::doubleSortKey(ascending[i]))
            << ascending[i - 1] << " < " << ascending[i];
    }
    EXPECT_EQ(runtime::doubleSortKey(-0.0), runtime::doubleSortKey(0.0));
}

TEST(ParallelSortTest, EdgeKeysMatchStableSort)
{
    const double dmax = std::numeric_limits<double>::max();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double dmin = std::numeric_limits<double>::min();
    const std::vector<double> edges = {
        0.0,   -0.0,  -1.0,     1.0,       -2.5e-310, 2.5e-310, dmin,
        -dmin, tiny,  -tiny,    dmax,      -dmax,     1e300,    -1e300,
        0.5,   -0.5,  1e-300,   -1e-300,   3.0,       -3.0};
    const size_t run = runtime::kSortRun;
    auto tagged = [](size_t n, const std::function<double(size_t)> &f) {
        std::vector<SortItem> v(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = {f(i), static_cast<int>(i)};
        return v;
    };
    for (size_t n : {size_t{2}, size_t{17}, run, 3 * run + 7}) {
        SCOPED_TRACE("n " + std::to_string(n));
        stats::Rng rng(n);
        {
            SCOPED_TRACE("edge values, shuffled");
            expectStableSortEverywhere(tagged(n, [&](size_t) {
                return edges[rng.uniformInt(0, edges.size() - 1)];
            }));
        }
        {
            SCOPED_TRACE("mixed zeros");
            expectStableSortEverywhere(tagged(n, [&](size_t) {
                return rng.uniformInt(0, 1) ? 0.0 : -0.0;
            }));
        }
        {
            SCOPED_TRACE("all equal");
            expectStableSortEverywhere(
                tagged(n, [](size_t) { return -7.25; }));
        }
        {
            SCOPED_TRACE("already sorted");
            expectStableSortEverywhere(tagged(n, [](size_t i) {
                return static_cast<double>(i / 3) - 1000.0;
            }));
        }
        {
            SCOPED_TRACE("reversed");
            expectStableSortEverywhere(tagged(n, [=](size_t i) {
                return static_cast<double>((n - i) / 3) * 1e-310;
            }));
        }
        // Each run holds its own range of values, shuffled, so after
        // the run sorts every merge finds its runs in order; the
        // mirror image puts every pair of runs out of order.
        {
            SCOPED_TRACE("runs in order");
            expectStableSortEverywhere(tagged(n, [&](size_t i) {
                return static_cast<double>(i / run * 1000 +
                                           rng.uniformInt(0, 99));
            }));
        }
        {
            SCOPED_TRACE("runs in reverse order");
            expectStableSortEverywhere(tagged(n, [&](size_t i) {
                return -static_cast<double>(i / run * 1000 +
                                            rng.uniformInt(0, 99));
            }));
        }
    }
    // The keys order the values as < does, with -0.0 tied to +0.0.
    std::vector<SortItem> v = tagged(3 * run + 7, [&](size_t i) {
        return edges[i % edges.size()];
    });
    std::vector<SortItem> by_value = v;
    std::stable_sort(by_value.begin(), by_value.end(),
                     [](const SortItem &a, const SortItem &b) {
                         return a.first < b.first;
                     });
    runtime::parallelSortByKey(nullptr, v, itemKey);
    EXPECT_EQ(by_value, v);
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
    // Over three sort runs, so the CDFs take the sort's merges.
    auto jobs = gen.generate(3 * runtime::kSortRun + 7, nullptr);
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
