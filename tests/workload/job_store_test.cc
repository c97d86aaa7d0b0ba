/**
 * @file
 * Tests for the SoA job store: owned vs borrowed-columnar modes must
 * be indistinguishable through the whole accessor surface, and the
 * view must keep its backing memory alive.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "workload/job_store.h"

namespace paichar::workload {
namespace {

std::vector<TrainingJob>
samplePopulation(size_t n)
{
    std::vector<TrainingJob> jobs;
    for (size_t i = 0; i < n; ++i) {
        TrainingJob j;
        j.id = static_cast<int64_t>(i) * 7 + 1;
        j.arch = i % 2 == 0 ? ArchType::OneWorkerOneGpu
                            : ArchType::PsWorker;
        j.num_cnodes = static_cast<int>(i % 5) + 1;
        j.num_ps = j.arch == ArchType::PsWorker ? 2 : 0;
        j.features.batch_size = 32.0 + static_cast<double>(i);
        j.features.flop_count = 1e12 + static_cast<double>(i);
        j.features.mem_access_bytes = 1e9;
        j.features.input_bytes = 1e6 * static_cast<double>(i + 1);
        j.features.comm_bytes = 5e8;
        j.features.embedding_comm_bytes = 1e8;
        j.features.dense_weight_bytes = 2e8 + static_cast<double>(i);
        j.features.embedding_weight_bytes =
            3e8 * static_cast<double>(i % 3);
        jobs.push_back(j);
    }
    return jobs;
}

/**
 * Serialize @p jobs into a packed column blob (paib body layout,
 * deliberately unaligned when n % 8 != 0) and point columns into it.
 */
std::shared_ptr<std::string>
packColumns(const std::vector<TrainingJob> &jobs, JobColumns *cols)
{
    size_t n = jobs.size();
    auto blob = std::make_shared<std::string>();
    std::string &b = *blob;
    b.append("x"); // 1-byte prefix forces misalignment of every column
    size_t ids_off = b.size();
    for (const auto &j : jobs)
        b.append(reinterpret_cast<const char *>(&j.id), 8);
    size_t archs_off = b.size();
    for (const auto &j : jobs)
        b.push_back(static_cast<char>(j.arch));
    size_t cnodes_off = b.size();
    for (const auto &j : jobs) {
        int32_t v = j.num_cnodes;
        b.append(reinterpret_cast<const char *>(&v), 4);
    }
    size_t ps_off = b.size();
    for (const auto &j : jobs) {
        int32_t v = j.num_ps;
        b.append(reinterpret_cast<const char *>(&v), 4);
    }
    size_t feat_off[kNumFeatureColumns];
    for (size_t k = 0; k < kNumFeatureColumns; ++k) {
        feat_off[k] = b.size();
        for (const auto &j : jobs) {
            double v = j.features.*kFeatureColumnOrder[k];
            b.append(reinterpret_cast<const char *>(&v), 8);
        }
    }
    cols->ids = b.data() + ids_off;
    cols->archs = b.data() + archs_off;
    cols->cnodes = b.data() + cnodes_off;
    cols->ps = b.data() + ps_off;
    for (size_t k = 0; k < kNumFeatureColumns; ++k)
        cols->features[k] = b.data() + feat_off[k];
    (void)n;
    return blob;
}

void
expectJobEq(const TrainingJob &a, const TrainingJob &b, size_t i)
{
    EXPECT_EQ(a.id, b.id) << "job " << i;
    EXPECT_EQ(a.arch, b.arch) << "job " << i;
    EXPECT_EQ(a.num_cnodes, b.num_cnodes) << "job " << i;
    EXPECT_EQ(a.num_ps, b.num_ps) << "job " << i;
    for (size_t k = 0; k < kNumFeatureColumns; ++k) {
        EXPECT_EQ(a.features.*kFeatureColumnOrder[k],
                  b.features.*kFeatureColumnOrder[k])
            << "job " << i << " feature " << k;
    }
}

TEST(JobStoreTest, OwnedModeWrapsTheVector)
{
    auto jobs = samplePopulation(9);
    JobStore store(jobs);
    EXPECT_EQ(store.size(), 9u);
    EXPECT_FALSE(store.empty());
    EXPECT_FALSE(store.columnar());
    for (size_t i = 0; i < jobs.size(); ++i)
        expectJobEq(jobs[i], store.job(i), i);
    auto out = store.materialize();
    ASSERT_EQ(out.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        expectJobEq(jobs[i], out[i], i);
}

TEST(JobStoreTest, DefaultStoreIsEmpty)
{
    JobStore store;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(store.empty());
    EXPECT_FALSE(store.begin() != store.end());
    EXPECT_TRUE(store.materialize().empty());
}

TEST(JobStoreTest, ColumnarViewDecodesMisalignedColumns)
{
    // 13 jobs: 13 % 8 != 0, plus a 1-byte prefix, so every column is
    // misaligned — job() must still decode exactly (memcpy loads).
    auto jobs = samplePopulation(13);
    JobColumns cols;
    auto blob = packColumns(jobs, &cols);
    JobStore store = JobStore::fromColumns(jobs.size(), cols, blob);
    EXPECT_TRUE(store.columnar());
    EXPECT_EQ(store.size(), 13u);
    for (size_t i = 0; i < jobs.size(); ++i)
        expectJobEq(jobs[i], store.job(i), i);
    auto out = store.materialize();
    ASSERT_EQ(out.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        expectJobEq(jobs[i], out[i], i);
}

TEST(JobStoreTest, ViewKeepsBackingAlive)
{
    auto jobs = samplePopulation(5);
    JobColumns cols;
    auto blob = packColumns(jobs, &cols);
    JobStore store = JobStore::fromColumns(jobs.size(), cols, blob);
    // The store now holds the only reference to the blob.
    std::weak_ptr<std::string> watch = blob;
    blob.reset();
    EXPECT_FALSE(watch.expired());
    expectJobEq(jobs[4], store.job(4), 4);

    // Copies share the backing; the last one keeps it alive.
    JobStore copy = store;
    store = JobStore();
    EXPECT_FALSE(watch.expired());
    expectJobEq(jobs[0], copy.job(0), 0);
    copy = JobStore();
    EXPECT_TRUE(watch.expired());
}

TEST(JobStoreTest, ColumnAccessorsMatchJobInBothModes)
{
    // Misaligned columns, as in ColumnarViewDecodesMisalignedColumns.
    auto jobs = samplePopulation(13);
    JobColumns cols;
    auto blob = packColumns(jobs, &cols);
    for (const JobStore &store :
         {JobStore(jobs),
          JobStore::fromColumns(jobs.size(), cols, blob)}) {
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(store.arch(i), jobs[i].arch) << "job " << i;
            EXPECT_EQ(store.numCnodes(i), jobs[i].num_cnodes)
                << "job " << i;
            EXPECT_EQ(store.weightBytes(i), jobs[i].features.weightBytes())
                << "job " << i;
        }
    }
}

TEST(JobStoreTest, IteratorVisitsEveryJobInOrder)
{
    auto jobs = samplePopulation(7);
    JobColumns cols;
    auto blob = packColumns(jobs, &cols);
    for (const JobStore &store :
         {JobStore(jobs),
          JobStore::fromColumns(jobs.size(), cols, blob)}) {
        size_t i = 0;
        for (const TrainingJob &j : store) {
            ASSERT_LT(i, jobs.size());
            expectJobEq(jobs[i], j, i);
            ++i;
        }
        EXPECT_EQ(i, jobs.size());
    }
}

} // namespace
} // namespace paichar::workload
