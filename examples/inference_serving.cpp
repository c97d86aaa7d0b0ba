/**
 * @file
 * Inference serving what-if (the paper's Sec VIII future work):
 * derive a served version of a case-study model, find the largest
 * load it sustains under a p99 latency SLO, and show the batching
 * trade-off.
 *
 * Usage: inference_serving [model] [slo_ms]   (default: bert 50)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "inference/fleet_sim.h"
#include "stats/table.h"

using namespace paichar;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "bert";
    double slo = (argc > 2 ? std::atof(argv[2]) : 50.0) * 1e-3;

    workload::CaseStudyModel m = [&] {
        if (!std::strcmp(name, "resnet50"))
            return workload::ModelZoo::resnet50();
        if (!std::strcmp(name, "multi-interests"))
            return workload::ModelZoo::multiInterests();
        return workload::ModelZoo::bert();
    }();
    auto w = inference::InferenceWorkload::fromTraining(m);

    inference::FleetConfig cfg; // one server, greedy batching
    double solo =
        w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
        w.inputTime(1, cfg.server.pcie_bandwidth);
    std::printf("%s inference: solo service %s, SLO p99 <= %s\n\n",
                w.name.c_str(), stats::fmtSeconds(solo).c_str(),
                stats::fmtSeconds(slo).c_str());
    if (slo <= solo) {
        std::printf("SLO below the single-request service time; no "
                    "load is servable.\n");
        return 0;
    }

    stats::Table t({"max batch", "max QPS under SLO",
                    "p99 at that load", "GPU util"});
    for (int mb : {1, 2, 4, 8, 16}) {
        cfg.max_batch = mb;
        double qps =
            inference::maxQpsUnderSlo(cfg, w, slo, 50.0 / solo, 20000, 1);
        stats::ArrivalConfig arrival;
        arrival.qps = std::max(qps, 1.0);
        auto at = inference::FleetSimulator(cfg).run({{w, arrival}},
                                                     20000, 1);
        t.addRow({std::to_string(mb), stats::fmt(qps, 0),
                  stats::fmtSeconds(at.p99_latency),
                  stats::fmtPct(at.gpu_utilization)});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
