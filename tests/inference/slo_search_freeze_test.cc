/**
 * @file
 * Frozen SLO-search answers: the single-server "max QPS under a p99
 * SLO" bisection for ResNet50, BERT and Multi-Interests at max batch
 * {1, 4, 8, 16} (SLO 5x the batch-1 service time, search ceiling
 * 50x the batch-1 rate, seed 20190701, the `paichar serve` and
 * `bench_ext_inference` settings), plus the BERT rows of
 * `examples/inference_serving` (50 ms SLO, seed 1: the answer, and
 * p99 and GPU utilization of a 20k-request run at that load). Every
 * double is printed with %.17g. The table was recorded on the
 * single-server simulator that the 1-server fleet replaced, so the
 * fleet's search reproduces its answers bit for bit. On a mismatch
 * the test prints the recomputed table. `ctest -L serve`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "inference/fleet_sim.h"
#include "workload/model_zoo.h"

namespace paichar::inference {
namespace {

/** Recorded on the single-server loop the fleet replaced. */
const std::map<std::string, std::string> kFrozen = {
    {"ResNet50/1", "457.56007557598718"},
    {"ResNet50/4", "429.41769965847448"},
    {"ResNet50/8", "423.85593662607755"},
    {"ResNet50/16", "423.85593662607755"},
    {"BERT/1", "62.977685733719923"},
    {"BERT/4", "54.868735610189809"},
    {"BERT/8", "53.678904016463207"},
    {"BERT/16", "53.678904016463207"},
    {"Multi-Interests/1", "8289.4371934246556"},
    {"Multi-Interests/4", "12525.309683676711"},
    {"Multi-Interests/8", "12290.810591509855"},
    {"Multi-Interests/16", "12290.810591509855"},
    {"example/BERT/50ms/1",
     "67.486871387775807 0.049999774821614551 0.61230441866597662"},
    {"example/BERT/50ms/2",
     "65.609818079584784 0.049999824058182263 0.58869283761485458"},
    {"example/BERT/50ms/4",
     "60.041525969161711 0.049999702538272572 0.53899553701465919"},
    {"example/BERT/50ms/8",
     "58.734607229505059 0.049999852212920359 0.5275067950505048"},
    {"example/BERT/50ms/16",
     "58.734607229505059 0.049999852212920359 0.5275067950505048"},
};

TEST(SloSearchFreeze, AnswersMatchTheFrozenTable)
{
    std::string table;
    int mismatches = 0;
    auto check = [&](const std::string &key, const std::string &got) {
        table += "    {\"" + key + "\", \"" + got + "\"},\n";
        auto it = kFrozen.find(key);
        if (it == kFrozen.end() || it->second != got) {
            ++mismatches;
            ADD_FAILURE() << key << ": " << got;
        }
    };
    char buf[128];
    FleetConfig cfg; // one server, greedy batching
    for (auto maker :
         {workload::ModelZoo::resnet50, workload::ModelZoo::bert,
          workload::ModelZoo::multiInterests}) {
        auto w = InferenceWorkload::fromTraining(maker());
        double solo =
            w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
            w.inputTime(1, cfg.server.pcie_bandwidth);
        for (int mb : {1, 4, 8, 16}) {
            cfg.max_batch = mb;
            double qps = maxQpsUnderSlo(cfg, w, 5.0 * solo, 50.0 / solo,
                                        20000, 20190701);
            EXPECT_GT(qps, 1.0) << w.name << " max_batch " << mb;
            std::snprintf(buf, sizeof(buf), "%.17g", qps);
            check(w.name + "/" + std::to_string(mb), buf);
        }
        if (w.name != "BERT")
            continue;
        // The example's rows: the answer at 50 ms and seed 1, then p99
        // and GPU utilization of 20k requests at that load.
        for (int mb : {1, 2, 4, 8, 16}) {
            cfg.max_batch = mb;
            double qps =
                maxQpsUnderSlo(cfg, w, 0.05, 50.0 / solo, 20000, 1);
            stats::ArrivalConfig a;
            a.qps = std::max(qps, 1.0);
            FleetResult r = FleetSimulator(cfg).run({{w, a}}, 20000, 1);
            std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", qps,
                          r.p99_latency, r.gpu_utilization);
            check("example/BERT/50ms/" + std::to_string(mb), buf);
        }
    }
    EXPECT_EQ(mismatches, 0) << "recomputed table:\n" << table;
}

} // namespace
} // namespace paichar::inference
