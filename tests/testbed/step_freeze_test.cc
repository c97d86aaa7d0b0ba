/**
 * @file
 * Frozen testbed steps: every StepResult field of every model-zoo
 * model on its own architecture, digested per execution shape and
 * compared against a committed table. Each digest covers the phase
 * times (printed with %.17g), the kernel count and the (start, end)
 * of every cNode-0 op and transfer record, across gradient
 * accumulation, model partitioning, the NVLink activation exchange,
 * host preprocessing with a PS tier, and the pipelined multi-step
 * run, gated and ungated. A rewrite of the event engine or of the
 * testbed's phases must reproduce every step bit for bit. On a
 * mismatch the test prints the recomputed table.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hw/units.h"
#include "testbed/training_sim.h"

namespace paichar::testbed {
namespace {

using workload::CaseStudyModel;
using workload::ModelZoo;

/** FNV-1a 64 over @p text, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Text rendering of one step; doubles round-trip via %.17g. */
std::string
renderStep(const StepResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "total %.17g data %.17g compute %.17g exchange %.17g "
                  "comm %.17g flops %.17g mem %.17g overhead %.17g "
                  "kernels %d\n",
                  r.total_time, r.data_time, r.compute_time,
                  r.exchange_time, r.comm_time, r.compute_flops_time,
                  r.compute_mem_time, r.overhead_time, r.num_kernels);
    std::string text = buf;
    for (const profiler::OpRecord &op : r.metadata.ops) {
        std::snprintf(buf, sizeof(buf), "op %s %d [%.17g,%.17g)\n",
                      op.name.c_str(), static_cast<int>(op.type),
                      op.start, op.end);
        text += buf;
    }
    for (const profiler::TransferRecord &t : r.metadata.transfers) {
        std::snprintf(buf, sizeof(buf),
                      "transfer %d %d %.17g [%.17g,%.17g)\n",
                      static_cast<int>(t.kind),
                      static_cast<int>(t.medium), t.bytes, t.start,
                      t.end);
        text += buf;
    }
    return text;
}

/** Text rendering of a pipelined run. */
std::string
renderPipeline(const TrainingSimulator::PipelineResult &p)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "steps %d total %.17g steady %.17g nonoverlap %.17g\n",
                  p.steps, p.total_time, p.steady_step_time,
                  p.nonoverlap_step_time);
    return buf;
}

struct FreezeCase
{
    std::string name;
    /** The case's text rendering, digested by the test. */
    std::function<std::string()> render;
};

std::vector<FreezeCase>
freezeCases()
{
    std::vector<FreezeCase> cases;
    for (const CaseStudyModel &m : ModelZoo::all()) {
        auto shaped = [m](const std::string &shape, SimOptions opts,
                          StepOptions so) {
            return FreezeCase{m.name + "/" + shape, [m, opts, so] {
                                  return renderStep(
                                      TrainingSimulator(opts).run(
                                          m.graph, m.features, m.arch,
                                          m.num_cnodes,
                                          m.measured_efficiency, so));
                              }};
        };
        cases.push_back({m.name + "/step", [m] {
                             return renderStep(
                                 TrainingSimulator().run(m));
                         }});
        StepOptions micro;
        micro.micro_batches = 4;
        cases.push_back(shaped("micro4", SimOptions{}, micro));
        StepOptions part;
        part.partition_ways = 2;
        cases.push_back(shaped("part2", SimOptions{}, part));
        StepOptions exchange;
        exchange.exchange_nvlink_bytes = 48 * hw::kMB;
        cases.push_back(shaped("exchange", SimOptions{}, exchange));
        // Preprocessing paces phase 1; PS/Worker jobs also route
        // their Ethernet legs through a two-host PS tier.
        SimOptions prep_ps;
        prep_ps.preprocessing_rate = 2 * hw::kGB;
        prep_ps.num_ps = 2;
        prep_ps.model_ps_contention = true;
        StepOptions all;
        all.micro_batches = 2;
        all.partition_ways = 2;
        all.exchange_nvlink_bytes = 16 * hw::kMB;
        cases.push_back(shaped("prep-ps/micro2/part2/exchange",
                               prep_ps, all));
        for (bool gated : {false, true}) {
            cases.push_back(
                {m.name + (gated ? "/pipelined3-gated"
                                 : "/pipelined3"),
                 [m, gated] {
                     return renderPipeline(
                         TrainingSimulator().runPipelined(m, 3,
                                                          gated));
                 }});
        }
    }
    return cases;
}

// Recorded on the per-kernel completion events of the calendar-queue
// engine; an event-free compute phase must reproduce every step.
const std::map<std::string, uint64_t> kFrozen = {
    {"ResNet50/step", 0x672e289e1d147465ull},
    {"ResNet50/micro4", 0x09c82c0bfb09ea5aull},
    {"ResNet50/part2", 0xe1cb90931797c5fbull},
    {"ResNet50/exchange", 0xfe114f11674aab87ull},
    {"ResNet50/prep-ps/micro2/part2/exchange", 0xfa36bb80ac9c1f20ull},
    {"ResNet50/pipelined3", 0xc76e374b9e6d83c1ull},
    {"ResNet50/pipelined3-gated", 0x98885f4d4a7e597dull},
    {"NMT/step", 0x8fd84da5ab905578ull},
    {"NMT/micro4", 0x60cbb1499a6eef75ull},
    {"NMT/part2", 0x5b9485e6933d087eull},
    {"NMT/exchange", 0x5a1bdd26b5f8f554ull},
    {"NMT/prep-ps/micro2/part2/exchange", 0x5d00dfe97b8c7e25ull},
    {"NMT/pipelined3", 0xbb5e70d0f472a555ull},
    {"NMT/pipelined3-gated", 0xd1819b995ce44f50ull},
    {"BERT/step", 0xa588956d5e33c125ull},
    {"BERT/micro4", 0xdb4119e5d3d33f53ull},
    {"BERT/part2", 0xe211a6de22e472e6ull},
    {"BERT/exchange", 0xb153effeac4b2907ull},
    {"BERT/prep-ps/micro2/part2/exchange", 0x63dc3d2ec1a36d43ull},
    {"BERT/pipelined3", 0x686948d0157ebcd8ull},
    {"BERT/pipelined3-gated", 0x1ce98832b791a7faull},
    {"Speech/step", 0x21a2de8dd09e3016ull},
    {"Speech/micro4", 0xe67c19effdc20fb2ull},
    {"Speech/part2", 0x21a2de8dd09e3016ull},
    {"Speech/exchange", 0x21a2de8dd09e3016ull},
    {"Speech/prep-ps/micro2/part2/exchange", 0x08df70c191f115d6ull},
    {"Speech/pipelined3", 0x14bdeb12b1e5d3a7ull},
    {"Speech/pipelined3-gated", 0x14bdeb12b1e5d3a7ull},
    {"Multi-Interests/step", 0xeab2c245380d8323ull},
    {"Multi-Interests/micro4", 0xdf1728c97b22939cull},
    {"Multi-Interests/part2", 0xdc7b6baa3ecdfba6ull},
    {"Multi-Interests/exchange", 0x324b8cca06794b5eull},
    {"Multi-Interests/prep-ps/micro2/part2/exchange", 0x7744cb30141b2fb7ull},
    {"Multi-Interests/pipelined3", 0x5d3088b07306ba8bull},
    {"Multi-Interests/pipelined3-gated", 0xa2329cd526970cc0ull},
    {"GCN/step", 0x8426e82cb0ac7671ull},
    {"GCN/micro4", 0x9c44867d9ec1d1e8ull},
    {"GCN/part2", 0xbe62c140b61ccfa7ull},
    {"GCN/exchange", 0x9137223ddefe39ecull},
    {"GCN/prep-ps/micro2/part2/exchange", 0x9f83cf23f1baf47bull},
    {"GCN/pipelined3", 0x5683ac55ab6644fdull},
    {"GCN/pipelined3-gated", 0xeeab2a152b45c846ull},
};

TEST(StepResultFreeze, StepsMatchFrozenDigests)
{
    std::string table;
    int mismatches = 0;
    for (const FreezeCase &c : freezeCases()) {
        uint64_t d = fnv1a(14695981039346656037ull, c.render());
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      c.name.c_str(), d);
        table += line;
        auto it = kFrozen.find(c.name);
        if (it == kFrozen.end() || it->second != d) {
            ++mismatches;
            ADD_FAILURE() << c.name << ": digest changed";
        }
    }
    EXPECT_EQ(mismatches, 0) << "recomputed table:\n" << table;
}

} // namespace
} // namespace paichar::testbed
