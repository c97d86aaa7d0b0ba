/**
 * @file
 * Tests pinning the model zoo to the paper's Tables IV, V and VI.
 */

#include <gtest/gtest.h>

#include "hw/units.h"
#include "workload/model_zoo.h"

namespace paichar::workload {
namespace {

using hw::kGB;
using hw::kKB;
using hw::kMB;
using hw::kTFLOPs;
using hw::kGFLOPs;

/** Relative-equality helper for large magnitudes. */
void
expectRel(double actual, double expected, double tol = 1e-9)
{
    ASSERT_NE(expected, 0.0);
    EXPECT_NEAR(actual / expected, 1.0, tol);
}

TEST(ModelZooTest, AllReturnsSixModelsInTableIvOrder)
{
    auto models = ModelZoo::all();
    ASSERT_EQ(models.size(), 6u);
    EXPECT_EQ(models[0].name, "ResNet50");
    EXPECT_EQ(models[1].name, "NMT");
    EXPECT_EQ(models[2].name, "BERT");
    EXPECT_EQ(models[3].name, "Speech");
    EXPECT_EQ(models[4].name, "Multi-Interests");
    EXPECT_EQ(models[5].name, "GCN");
}

TEST(ModelZooTest, ArchitecturesMatchTableIv)
{
    auto models = ModelZoo::all();
    EXPECT_EQ(models[0].arch, ArchType::AllReduceLocal);
    EXPECT_EQ(models[1].arch, ArchType::AllReduceLocal);
    EXPECT_EQ(models[2].arch, ArchType::AllReduceLocal);
    EXPECT_EQ(models[3].arch, ArchType::OneWorkerOneGpu);
    EXPECT_EQ(models[4].arch, ArchType::PsWorker);
    EXPECT_EQ(models[5].arch, ArchType::Pearl);
}

TEST(ModelZooTest, WeightsMatchTableIv)
{
    auto m = ModelZoo::resnet50();
    expectRel(m.features.dense_weight_bytes, 204 * kMB);
    EXPECT_DOUBLE_EQ(m.features.embedding_weight_bytes, 0.0);

    m = ModelZoo::nmt();
    expectRel(m.features.dense_weight_bytes, 706 * kMB);
    expectRel(m.features.embedding_weight_bytes, 819 * kMB);

    m = ModelZoo::bert();
    expectRel(m.features.dense_weight_bytes, 1.0 * kGB);
    expectRel(m.features.embedding_weight_bytes, 284 * kMB);

    m = ModelZoo::speech();
    expectRel(m.features.dense_weight_bytes, 416 * kMB);

    m = ModelZoo::multiInterests();
    expectRel(m.features.dense_weight_bytes, 1.19 * kMB);
    expectRel(m.features.embedding_weight_bytes, 239.45 * kGB);

    m = ModelZoo::gcn();
    expectRel(m.features.dense_weight_bytes, 207 * kMB);
    expectRel(m.features.embedding_weight_bytes, 54 * kGB);
}

/** Table V rows: batch, FLOPs, memory access, memcpy, network. */
struct TableVRow
{
    const char *name;
    double batch, flops, mem, memcpy_bytes, network;
};

/**
 * Print a row by its model name. Without this gtest dumps the raw bytes,
 * whose `name` pointer differs per process under ASLR, so the discovered
 * test names would change from one build to the next.
 */
void PrintTo(const TableVRow &row, std::ostream *os)
{
    *os << row.name;
}

class TableVProperty : public ::testing::TestWithParam<TableVRow>
{
};

TEST_P(TableVProperty, FeaturesAndGraphTotalsMatch)
{
    const TableVRow &row = GetParam();
    CaseStudyModel m = [&] {
        std::string n = row.name;
        if (n == "ResNet50")
            return ModelZoo::resnet50();
        if (n == "NMT")
            return ModelZoo::nmt();
        if (n == "BERT")
            return ModelZoo::bert();
        if (n == "Speech")
            return ModelZoo::speech();
        if (n == "Multi-Interests")
            return ModelZoo::multiInterests();
        return ModelZoo::gcn();
    }();

    EXPECT_DOUBLE_EQ(m.features.batch_size, row.batch);
    expectRel(m.features.flop_count, row.flops, 1e-6);
    expectRel(m.features.mem_access_bytes, row.mem, 1e-6);
    expectRel(m.features.input_bytes, row.memcpy_bytes, 1e-6);
    expectRel(m.features.comm_bytes, row.network, 1e-6);

    // The op graph's aggregate demands are pinned to the same row.
    ASSERT_TRUE(m.graph.validate());
    GraphTotals t = m.graph.totals();
    expectRel(t.flops, row.flops, 1e-6);
    expectRel(t.mem_access_bytes, row.mem, 1e-6);
    expectRel(t.input_bytes, row.memcpy_bytes, 1e-6);
    EXPECT_GT(t.num_kernels, 10);
}

INSTANTIATE_TEST_SUITE_P(
    TableV, TableVProperty,
    ::testing::Values(
        TableVRow{"Multi-Interests", 2048, 105.8 * kGFLOPs, 100.4 * kGB,
                  261 * kMB, 122 * kMB},
        TableVRow{"ResNet50", 64, 1.56 * kTFLOPs, 31.9 * kGB, 38 * kMB,
                  357 * kMB},
        TableVRow{"NMT", 6144, 2.5 * kTFLOPs, 101.6 * kGB, 22 * kKB,
                  1.33 * kGB},
        TableVRow{"BERT", 12, 2.1 * kTFLOPs, 107.3 * kGB, 46 * kKB,
                  1.5 * kGB},
        TableVRow{"Speech", 32, 7.9 * kTFLOPs, 20.4 * kGB, 804 * kMB,
                  728 * kMB},
        TableVRow{"GCN", 512, 330.7 * kGFLOPs, 25.79 * kGB, 1.2 * kMB,
                  3.0 * kGB}),
    [](const auto &info) { return std::string(info.param.name) ==
                                   "Multi-Interests"
                               ? std::string("MultiInterests")
                               : std::string(info.param.name); });

TEST(ModelZooTest, EfficienciesMatchTableVi)
{
    auto m = ModelZoo::speech();
    EXPECT_DOUBLE_EQ(m.measured_efficiency.gpu_flops, 0.6086);
    EXPECT_DOUBLE_EQ(m.measured_efficiency.gpu_memory, 0.031);
    EXPECT_DOUBLE_EQ(m.measured_efficiency.pcie, 0.7773);
    EXPECT_DOUBLE_EQ(m.measured_efficiency.network, 0.405);

    m = ModelZoo::gcn();
    EXPECT_DOUBLE_EQ(m.measured_efficiency.gpu_flops, 0.882);
}

TEST(ModelZooTest, CommSplitSumsToTotal)
{
    for (const auto &m : ModelZoo::all()) {
        const auto &f = m.features;
        EXPECT_NEAR(f.denseCommBytes() + f.embedding_comm_bytes,
                    f.comm_bytes, 1e-6 * f.comm_bytes)
            << m.name;
        EXPECT_GE(f.denseCommBytes(), 0.0);
        EXPECT_GE(f.embedding_comm_bytes, 0.0);
    }
}

TEST(ModelZooTest, GcnCommIsMostlyEmbedding)
{
    auto m = ModelZoo::gcn();
    EXPECT_GT(m.features.embedding_comm_bytes,
              10.0 * m.features.denseCommBytes());
}

TEST(ModelZooTest, SpeechGraphIsElementWiseKernelHeavy)
{
    auto m = ModelZoo::speech();
    int ew = 0, total = 0;
    for (const auto &op : m.graph.ops()) {
        if (op.type == OpType::DataLoad)
            continue;
        ++total;
        ew += isFusable(op.type);
    }
    // Fig 13(b)'s premise: the op mix is dominated by fine-grained
    // element-wise kernels that XLA can fuse.
    EXPECT_GT(static_cast<double>(ew) / total, 0.6);
}

TEST(ModelZooTest, MultiInterestsConfigScalesDemands)
{
    auto base = ModelZoo::multiInterests();
    auto big = ModelZoo::multiInterests({4096, 2});
    auto deep = ModelZoo::multiInterests({2048, 8});

    EXPECT_NEAR(big.features.flop_count / base.features.flop_count,
                2.0, 1e-9);
    EXPECT_GT(deep.features.flop_count, base.features.flop_count);
    // Comm grows sublinearly with batch: doubling batch far less than
    // doubles traffic.
    EXPECT_LT(big.features.comm_bytes / base.features.comm_bytes, 1.5);
    EXPECT_GT(big.features.comm_bytes, base.features.comm_bytes);
    // Graph totals track features for every configuration.
    auto t = deep.graph.totals();
    EXPECT_NEAR(t.flops / deep.features.flop_count, 1.0, 1e-6);
}

TEST(ModelZooTest, ModelsValidAndFeatureChecked)
{
    for (const auto &m : ModelZoo::all()) {
        EXPECT_TRUE(m.features.valid()) << m.name;
        EXPECT_TRUE(m.graph.validate()) << m.name;
        EXPECT_GE(m.num_cnodes, 1) << m.name;
    }
}

} // namespace
} // namespace paichar::workload
