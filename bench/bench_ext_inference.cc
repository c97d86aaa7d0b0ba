/**
 * @file
 * Extension (the paper's Sec VIII future work): characterize
 * *inference* workloads with the same methodology. For served
 * versions of the case-study models: latency percentiles vs offered
 * load, the dynamic-batching ablation, and attainable QPS under a
 * p99 latency SLO.
 */

#include <cstdio>

#include "common.h"
#include "inference/fleet_sim.h"
#include "stats/table.h"

using namespace paichar;
using inference::FleetConfig;
using inference::FleetSimulator;
using inference::InferenceWorkload;

int
main()
{
    bench::printHeader("Extension: inference characterization",
                       "the Sec VIII future work, built on the same "
                       "substrate");

    const uint64_t seed = 20190701;
    const int64_t reqs = 20000;

    for (auto maker :
         {workload::ModelZoo::resnet50, workload::ModelZoo::bert,
          workload::ModelZoo::multiInterests}) {
        auto w = InferenceWorkload::fromTraining(maker());
        FleetConfig cfg; // one server, greedy batching
        double solo =
            w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
            w.inputTime(1, cfg.server.pcie_bandwidth);
        std::printf("--- %s (solo service %s) ---\n", w.name.c_str(),
                    stats::fmtSeconds(solo).c_str());

        stats::Table t({"offered load", "p50", "p95", "p99",
                        "GPU util", "avg batch", "state"});
        for (double frac : {0.2, 0.5, 0.8, 1.1, 1.5}) {
            double qps = frac / solo;
            stats::ArrivalConfig arrival;
            arrival.qps = qps;
            auto r = FleetSimulator(cfg).run({{w, arrival}}, reqs, seed);
            t.addRow({stats::fmt(qps, 0) + " qps",
                      stats::fmtSeconds(r.p50_latency),
                      stats::fmtSeconds(r.p95_latency),
                      stats::fmtSeconds(r.p99_latency),
                      stats::fmtPct(r.gpu_utilization),
                      stats::fmt(r.avg_batch, 2),
                      r.saturated ? "OVERLOAD" : "stable"});
        }
        std::printf("%s", t.render().c_str());

        double slo = 5.0 * solo;
        stats::Table bt({"max batch", "max QPS under p99 <= " +
                                          stats::fmtSeconds(slo)});
        for (int mb : {1, 4, 8, 16}) {
            cfg.max_batch = mb;
            double q = inference::maxQpsUnderSlo(cfg, w, slo, 20.0 / solo,
                                                 reqs, seed);
            bt.addRow({std::to_string(mb), stats::fmt(q, 0)});
        }
        std::printf("%s\n", bt.render().c_str());
    }

    std::printf(
        "Reading: per-item-bound models (ResNet50/BERT) gain little "
        "from batching; the\nembedding-dominated recommender gains "
        "headroom because its per-launch cost is\nmostly fixed. Data "
        "I/O -- negligible for training at the cluster level -- "
        "returns\nas a first-class cost for inference, echoing the "
        "paper's bottleneck-shift theme.\n");
    return 0;
}
