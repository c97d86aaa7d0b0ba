/**
 * @file
 * Frozen fleet outcomes: every RequestRecord, every FleetResult
 * scalar and every per-server stat of seeded fleet runs, digested per
 * configuration and compared against a committed table. The table
 * pins the exact routing, batching, admission and autoscaling
 * decisions (times printed with %.17g) across routing x batching x
 * fleet size, admission control, both autoscaler modes with
 * provisions landing on control-tick instants, and a two-model mix,
 * so a rewrite of the event loop's bookkeeping must reproduce the old
 * runs bit for bit. On a mismatch the test prints the recomputed
 * table. `ctest -L serve`.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "inference/fleet_sim.h"
#include "workload/model_zoo.h"

namespace paichar::inference {
namespace {

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

std::string
renderRecord(const RequestRecord &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %d %d %d %d\n",
                  r.arrival, r.start, r.completion, r.server, r.model,
                  r.batch, r.rejected ? 1 : 0);
    return buf;
}

std::string
renderScalars(const FleetResult &r)
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "%" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
        " %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g"
        " %.17g %" PRId64 " %d %d %d %d %" PRId64 " %" PRId64 "\n",
        r.offered, r.admitted, r.rejected, r.completed, r.duration,
        r.throughput, r.mean_latency, r.p50_latency, r.p95_latency,
        r.p99_latency, r.p999_latency, r.max_latency,
        r.gpu_utilization, r.avg_batch, r.batches,
        static_cast<int>(r.verdict), r.saturated ? 1 : 0,
        r.peak_servers, r.final_servers, r.scale_ups, r.scale_downs);
    return buf;
}

std::string
renderServer(const ServerStats &s)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%.17g %.17g %" PRId64 " %" PRId64 "\n", s.busy,
                  s.uptime, s.batches, s.items);
    return buf;
}

InferenceWorkload
resnet()
{
    return InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
}

InferenceWorkload
bert()
{
    return InferenceWorkload::fromTraining(workload::ModelZoo::bert());
}

/** Batch-1 service time of @p w on @p cfg's server. */
double
solo(const InferenceWorkload &w, const FleetConfig &cfg)
{
    return w.inputTime(1, cfg.server.pcie_bandwidth) +
           w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead);
}

/** @p rho of a batch-1 server's rate per server, as a Poisson load. */
std::vector<ModelLoad>
loadAt(const InferenceWorkload &w, const FleetConfig &cfg, double rho)
{
    stats::ArrivalConfig a;
    a.qps = rho * cfg.num_servers / solo(w, cfg);
    return {{w, a}};
}

struct FreezeCase
{
    std::string name;
    FleetConfig cfg;
    std::vector<ModelLoad> models;
    int64_t requests;
};

std::vector<FreezeCase>
freezeCases()
{
    FleetConfig base;
    base.record_requests = true;

    std::vector<FreezeCase> cases;
    // Above batch-1 capacity, so queues form and batches fill; the
    // batching discipline keeps the fleet stable.
    for (Routing routing : {Routing::RoundRobin, Routing::LeastQueue,
                            Routing::PowerOfTwo}) {
        for (Batching batching :
             {Batching::Greedy, Batching::Continuous}) {
            for (int servers : {1, 4, 64}) {
                FleetConfig cfg = base;
                cfg.routing = routing;
                cfg.batching = batching;
                cfg.num_servers = servers;
                cases.push_back({std::string(toString(routing)) + "/" +
                                     toString(batching) + "/" +
                                     std::to_string(servers),
                                 cfg, loadAt(resnet(), cfg, 1.3), 6000});
            }
        }
    }

    // Admission control on an overloaded fleet rejects arrivals.
    {
        FleetConfig cfg = base;
        cfg.num_servers = 4;
        cfg.routing = Routing::LeastQueue;
        cfg.admit_queue = 6;
        cases.push_back(
            {"admit_queue", cfg, loadAt(resnet(), cfg, 6.0), 6000});
    }

    // Both autoscaler modes, scaling up from one server and draining
    // an over-provisioned fleet. The provision lag is a multiple of
    // the (binary-exact) check interval, so every provision lands on
    // a control-tick instant and the (time, kind) order decides.
    auto autoscaled = [&](AutoscalerConfig::Mode mode, int servers,
                          Routing routing) {
        FleetConfig cfg = base;
        cfg.num_servers = servers;
        cfg.routing = routing;
        cfg.autoscaler.enabled = true;
        cfg.autoscaler.mode = mode;
        cfg.autoscaler.min_servers = 1;
        cfg.autoscaler.max_servers = 8;
        cfg.autoscaler.check_interval = 0.25;
        cfg.autoscaler.provision_lag = 0.5;
        cfg.autoscaler.slo_latency = 0.010;
        return cfg;
    };
    for (auto [mode, mode_name] :
         {std::pair{AutoscalerConfig::Mode::QueueDepth, "queue-depth"},
          std::pair{AutoscalerConfig::Mode::SloLatency, "slo"}}) {
        for (Routing routing :
             {Routing::RoundRobin, Routing::LeastQueue,
              Routing::PowerOfTwo}) {
            std::string tag = std::string("autoscale-") + mode_name +
                              "/" + toString(routing);
            FleetConfig up = autoscaled(mode, 1, routing);
            stats::ArrivalConfig hot;
            hot.qps = 2500.0;
            cases.push_back({tag + "/up", up, {{resnet(), hot}}, 20000});
            // A diurnal load over an over-provisioned fleet both drains
            // servers in the trough and provisions them at the peak.
            FleetConfig down = autoscaled(mode, 6, routing);
            stats::ArrivalConfig swing;
            swing.kind = stats::ArrivalKind::Diurnal;
            swing.qps = 900.0;
            swing.diurnal_amplitude = 0.9;
            swing.diurnal_period = 8.0;
            cases.push_back(
                {tag + "/diurnal", down, {{resnet(), swing}}, 20000});
        }
    }

    // Two models on one fleet: a launch never mixes models.
    for (Batching batching : {Batching::Greedy, Batching::Continuous}) {
        FleetConfig cfg = base;
        cfg.num_servers = 4;
        cfg.routing = Routing::PowerOfTwo;
        cfg.batching = batching;
        stats::ArrivalConfig a1;
        a1.qps = 300.0;
        stats::ArrivalConfig a2;
        a2.kind = stats::ArrivalKind::Bursty;
        a2.qps = 200.0;
        cases.push_back({std::string("two-model/") + toString(batching),
                         cfg,
                         {{resnet(), a1}, {bert(), a2}},
                         10000});
    }
    return cases;
}

uint64_t
digest(const FreezeCase &c, FleetResult *out)
{
    *out = FleetSimulator(c.cfg).run(c.models, c.requests, 41);
    uint64_t h = fnv1a(14695981039346656037ull, renderScalars(*out));
    for (const ServerStats &s : out->servers)
        h = fnv1a(h, renderServer(s));
    for (const RequestRecord &r : out->requests)
        h = fnv1a(h, renderRecord(r));
    return h;
}

// Recorded on the loop that scanned every server per event; a rewrite
// of its event selection and routing must reproduce every run.
const std::map<std::string, uint64_t> kFrozen = {
    {"round-robin/greedy/1", 0xc4ff5a79bc273a11ull},
    {"round-robin/greedy/4", 0x819bd440f9516e40ull},
    {"round-robin/greedy/64", 0x7edaf8da6f36253cull},
    {"round-robin/continuous/1", 0x05573c702c648ef6ull},
    {"round-robin/continuous/4", 0x1c115eaca66e4670ull},
    {"round-robin/continuous/64", 0x0070924a47270c83ull},
    {"least-queue/greedy/1", 0xc4ff5a79bc273a11ull},
    {"least-queue/greedy/4", 0x592667337de4a3fcull},
    {"least-queue/greedy/64", 0x2c3b5c4576e55c75ull},
    {"least-queue/continuous/1", 0x05573c702c648ef6ull},
    {"least-queue/continuous/4", 0x66b95b125c028a43ull},
    {"least-queue/continuous/64", 0xd1a9f84b4813e40cull},
    {"p2c/greedy/1", 0xc4ff5a79bc273a11ull},
    {"p2c/greedy/4", 0xeb9e1eea067eb91eull},
    {"p2c/greedy/64", 0xebc05782d44d2e63ull},
    {"p2c/continuous/1", 0x05573c702c648ef6ull},
    {"p2c/continuous/4", 0x2b9dbc42ad438cadull},
    {"p2c/continuous/64", 0x53f4667f5780767eull},
    {"admit_queue", 0x06d2e9a87fdb99a9ull},
    {"autoscale-queue-depth/round-robin/up", 0xb0fe459d5b5db2c2ull},
    {"autoscale-queue-depth/round-robin/diurnal", 0xf7cd206611178ab6ull},
    {"autoscale-queue-depth/least-queue/up", 0xf8f0bcf1b2d8c2eaull},
    {"autoscale-queue-depth/least-queue/diurnal", 0x244a176e2b7f6415ull},
    {"autoscale-queue-depth/p2c/up", 0xc90fcbdc68ccd91eull},
    {"autoscale-queue-depth/p2c/diurnal", 0x70cbdd1d24a24a5dull},
    {"autoscale-slo/round-robin/up", 0x6ee54a8e58c6af0bull},
    {"autoscale-slo/round-robin/diurnal", 0x93295c9877d8c201ull},
    {"autoscale-slo/least-queue/up", 0x6caed56dde71cff1ull},
    {"autoscale-slo/least-queue/diurnal", 0x05b27d32f6ba8493ull},
    {"autoscale-slo/p2c/up", 0x1a22583b76723771ull},
    {"autoscale-slo/p2c/diurnal", 0xfebd9cb877e0f94aull},
    {"two-model/greedy", 0xb3b3ed269e48d345ull},
    {"two-model/continuous", 0xa4cd2073224ec5e4ull},
};

TEST(FleetOutcomeFreeze, FleetOutcomesMatchFrozenDigests)
{
    std::string table;
    int mismatches = 0;
    for (const FreezeCase &c : freezeCases()) {
        FleetResult r;
        uint64_t d = digest(c, &r);
        // A digest only freezes what the run reaches: queues must
        // form, and admission and both scaling directions must fire.
        EXPECT_GT(r.avg_batch, 1.0) << c.name;
        if (c.cfg.admit_queue > 0) {
            EXPECT_GT(r.rejected, 0) << c.name;
        }
        if (c.cfg.autoscaler.enabled) {
            EXPECT_GT(r.scale_ups, 0) << c.name;
            if (c.cfg.num_servers > 1) {
                EXPECT_GT(r.scale_downs, 0) << c.name;
            }
        }
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
} // namespace paichar::inference
