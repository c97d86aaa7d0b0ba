/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: the
 * analytical model, trace synthesis, cluster characterization, the
 * DES engine, collectives, the fusion pass, and a full simulated
 * training step.
 *
 * Before the google-benchmark suite runs, four JSON sections seed
 * the perf trajectory across PRs: a trace-I/O section comparing the
 * legacy serial CSV parser against the zero-copy serial/parallel
 * parsers and the paib binary codec on a 1M-job trace (recorded in
 * BENCH_trace_io.json), a thread-scaling section timing the 10k-job
 * characterization pipeline at 1/2/4/N threads, an obs-overhead
 * section proving the observability layer stays inside its <2%
 * budget on the 1M-job parse (recorded in BENCH_obs_overhead.json),
 * and a planner section recording candidate-evaluation throughput
 * for the analytical and simulated cost models over the enumerated
 * plan space of two case-study models (BENCH_opt_planner.json) --
 * the ratio between the two evaluators is what makes the planner's
 * analytical-prune-then-simulate-top-K search pay off. A fifth
 * sim-engine section times the EventQueue heap on an 8M-event bulk
 * drain and on 8M events held 128 at a time (recorded in
 * BENCH_sim_engine.json). A sixth serving section records
 * simulated-requests-per-second of the fleet event loop at 1 and 4
 * servers, and of fleets from 16 to 1024 servers under each routing
 * policy (BENCH_serving.json). A seventh
 * characterize-queries section times the Fig 5-8 query set over a
 * paib-mapped 1M-job trace (BENCH_characterize.json).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "clustersim/scheduler.h"
#include "collectives/collective_ops.h"
#include "core/characterization.h"
#include "core/projection.h"
#include "inference/fleet_sim.h"
#include "inference/inference_workload.h"
#include "obs/job_log.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "workload/model_zoo.h"
#include "opt/cost_model.h"
#include "opt/optimization_planner.h"
#include "opt/passes.h"
#include "runtime/parallel.h"
#include "sim/event_queue.h"
#include "testbed/training_sim.h"
#include "trace/binary_trace.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

using namespace paichar;

namespace {

workload::TrainingJob
sampleJob()
{
    trace::SyntheticClusterGenerator gen(7);
    return gen.generateJob(0);
}

void
BM_AnalyticalBreakdown(benchmark::State &state)
{
    core::AnalyticalModel model(hw::paiCluster());
    auto job = sampleJob();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.breakdown(job));
}
BENCHMARK(BM_AnalyticalBreakdown);

void
BM_Projection(benchmark::State &state)
{
    core::AnalyticalModel model(hw::paiCluster());
    core::ArchitectureProjector proj(model);
    trace::SyntheticClusterGenerator gen(7);
    // Scan ids until we hit a PS/Worker job (generateJob is a pure
    // function of (seed, id), so retrying one id would never change).
    workload::TrainingJob job;
    int64_t id = 0;
    do {
        job = gen.generateJob(id++);
    } while (job.arch != workload::ArchType::PsWorker);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            proj.project(job, workload::ArchType::AllReduceLocal));
    }
}
BENCHMARK(BM_Projection);

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        trace::SyntheticClusterGenerator gen(7);
        auto jobs = gen.generate(static_cast<size_t>(state.range(0)));
        benchmark::DoNotOptimize(jobs.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(1000)->Arg(10000);

void
BM_Characterization(benchmark::State &state)
{
    core::AnalyticalModel model(hw::paiCluster());
    trace::SyntheticClusterGenerator gen(7);
    auto jobs = gen.generate(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        core::ClusterCharacterizer ch(model, jobs);
        benchmark::DoNotOptimize(
            ch.avgBreakdown(std::nullopt, core::Level::CNode));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Characterization)->Arg(1000)->Arg(10000);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int64_t fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(static_cast<double>(i % 97), [&] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(10000);

void
BM_RingAllReduce(benchmark::State &state)
{
    for (auto _ : state) {
        sim::TopologyConfig tc;
        tc.cluster = hw::v100Testbed();
        sim::ClusterSim cluster(tc);
        collectives::CollectiveOps ops(cluster.eventQueue());
        double end = 0.0;
        ops.ringAllReduce(
            cluster.gpuGroup(static_cast<int>(state.range(0))), 1e9,
            [&](sim::SimTime t) { end = t; });
        cluster.eventQueue().run();
        benchmark::DoNotOptimize(end);
    }
}
BENCHMARK(BM_RingAllReduce)->Arg(2)->Arg(8);

void
BM_XlaFusion(benchmark::State &state)
{
    auto m = workload::ModelZoo::speech();
    opt::XlaFusionPass pass;
    for (auto _ : state) {
        auto g = pass.run(m.graph);
        benchmark::DoNotOptimize(g.size());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(m.graph.size()));
}
BENCHMARK(BM_XlaFusion);

void
BM_TrainingStep(benchmark::State &state)
{
    testbed::TrainingSimulator sim;
    auto m = workload::ModelZoo::resnet50();
    for (auto _ : state) {
        auto r = sim.run(m);
        benchmark::DoNotOptimize(r.total_time);
    }
}
BENCHMARK(BM_TrainingStep);

/** The positive integer in environment variable @p name, else
    @p fallback. */
size_t
envCount(const char *name, size_t fallback)
{
    if (const char *env = std::getenv(name)) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<size_t>(v);
    }
    return fallback;
}

/**
 * The pre-PR-2 serial CSV parser, kept verbatim as the trace-I/O
 * baseline: per-character splitting into freshly allocated
 * std::string fields, strtod/strtoll conversion, istringstream line
 * iteration. The JSON rows below report every other path's speedup
 * against this.
 */
namespace legacy {

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else if (c != '\r') {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end == s.c_str() + s.size() &&
           std::isfinite(out);
}

bool
parseInt(const std::string &s, int64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

trace::ParseResult
fromCsv(const std::string &text)
{
    constexpr size_t kFields = 12;
    std::istringstream is(text);
    std::string line;

    trace::ParseResult bad;
    bad.ok = false;
    if (!std::getline(is, line))
        return bad;

    trace::ParseResult r;
    r.ok = true;
    while (std::getline(is, line)) {
        if (line.empty() || line == "\r")
            continue;
        auto fields = splitCsvLine(line);
        if (fields.size() != kFields)
            return bad;
        workload::TrainingJob j;
        int64_t iv;
        if (!parseInt(fields[0], iv))
            return bad;
        j.id = iv;
        auto arch = workload::archFromString(fields[1]);
        if (!arch)
            return bad;
        j.arch = *arch;
        if (!parseInt(fields[2], iv) || iv < 1)
            return bad;
        j.num_cnodes = static_cast<int>(iv);
        if (!parseInt(fields[3], iv) || iv < 0)
            return bad;
        j.num_ps = static_cast<int>(iv);
        double *slots[] = {&j.features.batch_size,
                           &j.features.flop_count,
                           &j.features.mem_access_bytes,
                           &j.features.input_bytes,
                           &j.features.comm_bytes,
                           &j.features.embedding_comm_bytes,
                           &j.features.dense_weight_bytes,
                           &j.features.embedding_weight_bytes};
        for (size_t s = 0; s < 8; ++s) {
            if (!parseDouble(fields[4 + s], *slots[s]))
                return bad;
        }
        if (!j.features.valid())
            return bad;
        r.jobs.push_back(j);
    }
    return r;
}

} // namespace legacy

/**
 * Trace-I/O section: serial legacy CSV, the new serial and parallel
 * CSV parsers, and the paib binary codec (parse = parseTrace() plus
 * materialize(), a full decode) over the same synthetic trace,
 * reported as jobs/s and MB/s JSON rows (the contents of
 * BENCH_trace_io.json). Job count defaults to 1M; override with
 * PAICHAR_TRACE_BENCH_JOBS for quick runs.
 */
void
runTraceIoSection()
{
    size_t jobs_n = envCount("PAICHAR_TRACE_BENCH_JOBS", 1000000);
    constexpr int kReps = 3;

    trace::SyntheticClusterGenerator gen(7);
    auto jobs = gen.generate(jobs_n, runtime::globalPool());
    std::string csv = trace::toCsv(jobs);
    std::string bin = trace::toBinary(jobs);
    int threads = runtime::threadCount();

    std::printf("# trace-io: %zu jobs, csv %.1f MB, bin %.1f MB, "
                "best of %d reps, %d threads\n",
                jobs_n, static_cast<double>(csv.size()) / 1e6,
                static_cast<double>(bin.size()) / 1e6, kReps,
                threads);

    struct Row
    {
        const char *op;
        const char *format;
        size_t bytes;
        std::function<void()> body;
        /** Untimed set-up run before each rep, if any. */
        std::function<void()> setup = {};
    };
    // The paib row decodes a fresh copy each rep: parseTrace() takes
    // its bytes over. Copying them in and freeing the last rep's
    // store are not part of the decode, so set-up does both.
    std::string bin_copy;
    trace::StoreResult bin_loaded;
    std::vector<Row> rows = {
        {"parse", "csv_serial_legacy", csv.size(),
         [&] {
             auto r = legacy::fromCsv(csv);
             benchmark::DoNotOptimize(r.jobs.size());
         }},
        {"parse", "csv_serial", csv.size(),
         [&] {
             auto r = trace::fromCsv(csv, nullptr);
             benchmark::DoNotOptimize(r.jobs.size());
         }},
        {"parse", "csv_parallel", csv.size(),
         [&] {
             auto r = trace::fromCsv(csv, runtime::globalPool());
             benchmark::DoNotOptimize(r.jobs.size());
         }},
        {"parse", "bin", bin.size(),
         [&] {
             bin_loaded = trace::parseTrace(std::move(bin_copy),
                                            runtime::globalPool());
             auto decoded = bin_loaded.store.materialize();
             benchmark::DoNotOptimize(decoded.size());
         },
         [&] {
             bin_loaded = {};
             bin_copy = bin;
         }},
        {"write", "csv", csv.size(),
         [&] {
             auto s = trace::toCsv(jobs);
             benchmark::DoNotOptimize(s.size());
         }},
        {"write", "bin", bin.size(),
         [&] {
             auto s = trace::toBinary(jobs);
             benchmark::DoNotOptimize(s.size());
         }},
    };

    double legacy_parse_seconds = 0.0;
    for (const Row &row : rows) {
        double best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            if (row.setup)
                row.setup();
            auto t0 = std::chrono::steady_clock::now();
            row.body();
            auto t1 = std::chrono::steady_clock::now();
            double sec =
                std::chrono::duration<double>(t1 - t0).count();
            if (rep == 0 || sec < best)
                best = sec;
        }
        if (row.format == std::string("csv_serial_legacy"))
            legacy_parse_seconds = best;
        double speedup =
            (std::string(row.op) == "parse" &&
             legacy_parse_seconds > 0.0)
                ? legacy_parse_seconds / best
                : 0.0;
        std::printf(
            "{\"bench\":\"trace_io\",\"op\":\"%s\",\"format\":"
            "\"%s\",\"jobs\":%zu,\"bytes\":%zu,\"threads\":%d,"
            "\"seconds\":%.6f,\"jobs_per_s\":%.0f,\"mb_per_s\":"
            "%.1f,\"speedup_vs_legacy_parse\":%.2f}\n",
            row.op, row.format, jobs_n, row.bytes, threads, best,
            static_cast<double>(jobs_n) / best,
            static_cast<double>(row.bytes) / 1e6 / best, speedup);
    }
    std::printf("\n");
}

/**
 * Thread-scaling section: the full characterization pipeline
 * (generate + ClusterCharacterizer + cluster aggregates) at each
 * thread count, printed as JSON rows.
 */
void
runThreadScalingSection()
{
    constexpr size_t kJobs = 10000;
    constexpr int kReps = 3;

    std::vector<int> counts = {1, 2, 4};
    int configured = runtime::threadCount();
    if (std::find(counts.begin(), counts.end(), configured) ==
        counts.end())
        counts.push_back(configured);

    core::AnalyticalModel model(hw::paiCluster());
    trace::SyntheticClusterGenerator gen(7);

    std::printf("# thread-scaling: characterization pipeline, %zu "
                "jobs, best of %d reps\n",
                kJobs, kReps);
    double serial_seconds = 0.0;
    for (int t : counts) {
        std::unique_ptr<runtime::ThreadPool> owned;
        runtime::ThreadPool *pool = nullptr;
        if (t > 1) {
            owned = std::make_unique<runtime::ThreadPool>(t);
            pool = owned.get();
        }
        double best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            auto jobs = gen.generate(kJobs, pool);
            core::ClusterCharacterizer ch(model, std::move(jobs),
                                          pool);
            auto avg =
                ch.avgBreakdown(std::nullopt, core::Level::CNode);
            benchmark::DoNotOptimize(avg);
            auto cdf = ch.componentCdf(core::Component::WeightTraffic,
                                       std::nullopt,
                                       core::Level::CNode);
            benchmark::DoNotOptimize(cdf.totalWeight());
            auto t1 = std::chrono::steady_clock::now();
            double sec =
                std::chrono::duration<double>(t1 - t0).count();
            if (rep == 0 || sec < best)
                best = sec;
        }
        if (t == 1)
            serial_seconds = best;
        std::printf("{\"bench\":\"thread_scaling\",\"pipeline\":"
                    "\"generate+characterize\",\"jobs\":%zu,"
                    "\"threads\":%d,\"seconds\":%.6f,"
                    "\"speedup_vs_1\":%.3f}\n",
                    kJobs, t, best,
                    serial_seconds > 0.0 ? serial_seconds / best
                                         : 1.0);
    }
    std::printf("\n");
}

/**
 * Observability-overhead section: the parallel CSV parse of a 1M-job
 * trace with obs fully disabled, with metrics recording on (the
 * shipping default), and with span profiling active on top. Each row
 * reports the percent overhead over the disabled baseline; DESIGN.md
 * Sec 10 budgets <2% for the metrics and profiling modes, and CI
 * greps this section to prove it still exists. Job count honors
 * PAICHAR_TRACE_BENCH_JOBS like the trace-I/O section.
 */
void
runObsOverheadSection()
{
    size_t jobs_n = envCount("PAICHAR_TRACE_BENCH_JOBS", 1000000);
    constexpr int kReps = 5;

    trace::SyntheticClusterGenerator gen(7);
    auto jobs = gen.generate(jobs_n, runtime::globalPool());
    std::string csv = trace::toCsv(jobs);
    int threads = runtime::threadCount();

    std::printf("# obs-overhead: parallel csv parse, %zu jobs, "
                "best of %d reps, %d threads\n",
                jobs_n, kReps, threads);

    struct Mode
    {
        const char *name;
        bool metrics;
        bool profiling;
    };
    const Mode modes[] = {
        {"disabled", false, false},
        {"metrics", true, false},
        {"metrics+profile", true, true},
    };

    double baseline = 0.0;
    for (const Mode &mode : modes) {
        obs::setEnabled(mode.metrics);
        double best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            if (mode.profiling)
                obs::startProfiling();
            auto t0 = std::chrono::steady_clock::now();
            auto r = trace::fromCsv(csv, runtime::globalPool());
            benchmark::DoNotOptimize(r.jobs.size());
            auto t1 = std::chrono::steady_clock::now();
            if (mode.profiling)
                obs::stopProfiling();
            double sec =
                std::chrono::duration<double>(t1 - t0).count();
            if (rep == 0 || sec < best)
                best = sec;
        }
        if (!mode.metrics)
            baseline = best;
        double overhead_pct =
            baseline > 0.0 ? (best / baseline - 1.0) * 100.0 : 0.0;
        std::printf(
            "{\"bench\":\"obs_overhead\",\"mode\":\"%s\","
            "\"jobs\":%zu,\"threads\":%d,\"seconds\":%.6f,"
            "\"jobs_per_s\":%.0f,\"overhead_pct\":%.2f}\n",
            mode.name, jobs_n, threads, best,
            static_cast<double>(jobs_n) / best, overhead_pct);
    }
    obs::setEnabled(true);
    std::printf("\n");
}

/**
 * Overhead of the newly instrumented hot paths (inference serving,
 * PR 5) and of the job-log sink on the cluster scheduler: same
 * best-of-reps protocol and <2% budget as the parse section above;
 * rows extend BENCH_obs_overhead.json.
 */
void
runObsInstrumentationOverheadSection()
{
    constexpr int kReps = 5;
    int threads = runtime::threadCount();

    // --- serving: the 1-server fleet's span, counters and latency
    // histogram (src/inference) ---
    {
        auto requests_n = static_cast<int64_t>(std::max<size_t>(
            envCount("PAICHAR_TRACE_BENCH_JOBS", 200000), 100));
        auto model = workload::ModelZoo::all().front();
        auto w = inference::InferenceWorkload::fromTraining(model);
        inference::FleetSimulator sim{inference::FleetConfig{}};
        stats::ArrivalConfig arrival;
        arrival.qps = 5000.0;

        // A run takes about 15 ms, so the modes alternate within each
        // rep (drift on a shared host hits all three alike) and take
        // three times the section's reps.
        constexpr int kServingReps = 3 * kReps;
        std::printf("# obs-overhead: serving 1-server fleet, %lld "
                    "requests, best of %d interleaved reps\n",
                    static_cast<long long>(requests_n), kServingReps);
        struct Mode
        {
            const char *name;
            bool metrics;
            bool profiling;
            double best;
        };
        Mode modes[] = {
            {"disabled", false, false, 0.0},
            {"metrics", true, false, 0.0},
            {"metrics+profile", true, true, 0.0},
        };
        for (int rep = 0; rep < kServingReps; ++rep) {
            for (Mode &mode : modes) {
                obs::setEnabled(mode.metrics);
                if (mode.profiling)
                    obs::startProfiling();
                auto t0 = std::chrono::steady_clock::now();
                auto r = sim.run({{w, arrival}}, requests_n, 42);
                benchmark::DoNotOptimize(r.throughput);
                auto t1 = std::chrono::steady_clock::now();
                if (mode.profiling)
                    obs::stopProfiling();
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                if (rep == 0 || sec < mode.best)
                    mode.best = sec;
            }
        }
        obs::setEnabled(true);
        double baseline = modes[0].best;
        for (const Mode &mode : modes) {
            std::printf(
                "{\"bench\":\"obs_overhead_serving\","
                "\"mode\":\"%s\",\"requests\":%lld,"
                "\"threads\":%d,\"seconds\":%.6f,"
                "\"overhead_pct\":%.2f}\n",
                mode.name, static_cast<long long>(requests_n),
                threads, mode.best,
                (mode.best / baseline - 1.0) * 100.0);
        }
    }

    // --- cluster scheduler: the per-job JobRecord sink ---
    {
        size_t jobs_n = std::max<size_t>(
            envCount("PAICHAR_TRACE_BENCH_JOBS", 100000) / 10, 100);
        trace::SyntheticClusterGenerator gen(7);
        auto jobs = gen.generate(jobs_n, runtime::globalPool());
        clustersim::SchedulerConfig cfg;
        cfg.num_servers = 64;
        for (auto &j : jobs)
            j.num_cnodes = std::min(j.num_cnodes, cfg.num_servers);
        auto requests = clustersim::poissonRequests(jobs, 1000.0,
                                                    2000.0, 1.2, 7);
        core::AnalyticalModel model(hw::paiCluster());
        clustersim::ClusterScheduler sched(cfg, model);

        std::printf("# obs-overhead: cluster schedule, %zu jobs, "
                    "best of %d reps\n",
                    jobs_n, kReps);
        double baseline = 0.0;
        for (bool joblog : {false, true}) {
            double best = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                if (joblog)
                    obs::startJobLog();
                auto t0 = std::chrono::steady_clock::now();
                auto r = sched.run(requests);
                benchmark::DoNotOptimize(r.makespan);
                auto t1 = std::chrono::steady_clock::now();
                if (joblog)
                    obs::stopJobLog();
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                if (rep == 0 || sec < best)
                    best = sec;
            }
            if (!joblog)
                baseline = best;
            double overhead_pct =
                baseline > 0.0 ? (best / baseline - 1.0) * 100.0
                               : 0.0;
            std::printf("{\"bench\":\"obs_overhead_joblog\","
                        "\"mode\":\"%s\",\"jobs\":%zu,"
                        "\"threads\":%d,\"seconds\":%.6f,"
                        "\"overhead_pct\":%.2f}\n",
                        joblog ? "joblog" : "off", jobs_n, threads,
                        best, overhead_pct);
        }

        // --- timeline probes on the same scheduler run (--timeline):
        // the off baseline is the joblog section's off row. ---
        double tl_best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            obs::startTimeline(10.0);
            auto t0 = std::chrono::steady_clock::now();
            auto r = sched.run(requests);
            benchmark::DoNotOptimize(r.makespan);
            auto t1 = std::chrono::steady_clock::now();
            obs::stopTimeline();
            double sec =
                std::chrono::duration<double>(t1 - t0).count();
            if (rep == 0 || sec < tl_best)
                tl_best = sec;
        }
        for (bool timeline : {false, true}) {
            double sec = timeline ? tl_best : baseline;
            double overhead_pct =
                baseline > 0.0 && timeline
                    ? (sec / baseline - 1.0) * 100.0
                    : 0.0;
            std::printf("{\"bench\":\"obs_overhead_timeline\","
                        "\"mode\":\"%s\",\"jobs\":%zu,"
                        "\"threads\":%d,\"seconds\":%.6f,"
                        "\"overhead_pct\":%.2f}\n",
                        timeline ? "timeline" : "off", jobs_n,
                        threads, sec, overhead_pct);
        }
    }
    std::printf("\n");
}

/**
 * Planner section: candidate-evaluation throughput of the two
 * opt::CostModel evaluators over the full enumerated plan space of a
 * Conv-heavy model (ResNet50, channel-split dimension) and a
 * transformer (BERT, sub-graph-partition dimension), reported as
 * candidates/s JSON rows (the contents of BENCH_opt_planner.json).
 * Each candidate is priced end to end -- preparePlan (the pass
 * pipeline) plus the evaluator's estimate() -- fanned out over the
 * global pool exactly like OptimizationPlanner::evaluate. The gap
 * between the analytical and simulated rows is the economics of the
 * analytical-prune-then-simulate-top-K search; CI greps this section
 * to prove it still exists.
 */
void
runPlannerSection()
{
    constexpr int kReps = 3;
    int threads = runtime::threadCount();

    struct Case
    {
        const char *key;
        workload::CaseStudyModel model;
    };
    std::vector<Case> cases = {
        {"resnet50", workload::ModelZoo::resnet50()},
        {"bert", workload::ModelZoo::bert()},
    };

    std::printf("# opt-planner: full enumerated plan space per "
                "model, best of %d reps, %d threads\n",
                kReps, threads);

    opt::AnalyticalCostModel analytical;
    opt::SimulatedCostModel simulated;
    opt::PlannerConfig planner_cfg;
    opt::OptimizationPlanner planner(planner_cfg);
    for (const Case &c : cases) {
        auto specs = planner.enumerate(c.model);

        double analytical_best = 0.0;
        for (const opt::CostModel *evaluator :
             {static_cast<const opt::CostModel *>(&analytical),
              static_cast<const opt::CostModel *>(&simulated)}) {
            double best = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                auto tp = runtime::parallelMap<double>(
                    runtime::globalPool(), specs.size(),
                    [&](size_t i) {
                        auto prep =
                            opt::preparePlan(c.model, specs[i]);
                        return evaluator->estimate(prep).throughput;
                    });
                benchmark::DoNotOptimize(tp.size());
                auto t1 = std::chrono::steady_clock::now();
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                if (rep == 0 || sec < best)
                    best = sec;
            }
            if (evaluator == &analytical)
                analytical_best = best;
            double cost_ratio = analytical_best > 0.0
                                    ? best / analytical_best
                                    : 1.0;
            std::printf(
                "{\"bench\":\"opt_planner\",\"model\":\"%s\","
                "\"evaluator\":\"%s\",\"candidates\":%zu,"
                "\"threads\":%d,\"seconds\":%.6f,"
                "\"candidates_per_s\":%.0f,"
                "\"cost_vs_analytical\":%.1f}\n",
                c.key, evaluator->name().c_str(), specs.size(),
                threads,
                best, static_cast<double>(specs.size()) / best,
                cost_ratio);
        }
    }
    std::printf("\n");
}

/** splitmix64 for reproducible event times without <random>. */
uint64_t
simBenchMix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Event @p i's time in [0, 1000) s, a pure function of the index. */
double
simBenchWhen(size_t i)
{
    return 1000.0 * static_cast<double>(simBenchMix(i) >> 11) *
           0x1.0p-53;
}

/**
 * The hold population: a fixed number of events stay pending, and
 * each one schedules its successor simBenchWhen() seconds later until
 * @c n events have been scheduled.
 */
struct SimHold
{
    sim::EventQueue eq;
    size_t n;
    size_t scheduled = 0;

    void
    next()
    {
        if (scheduled < n) {
            eq.schedule(eq.now() + simBenchWhen(scheduled++),
                        [this] { next(); });
        }
    }
};

/**
 * Event-engine section: drain throughput of the EventQueue heap over
 * two populations of the same size (the contents of
 * BENCH_sim_engine.json). `heap` bulk-schedules every
 * splitmix64-timed event and then drains them, the heap at its
 * largest; `heap_hold128` keeps 128 events pending, each scheduling
 * its successor, which is how the repo's simulations use the queue.
 * Event count defaults to 8M; override with PAICHAR_SIM_BENCH_EVENTS
 * for quick runs. Every row runs at 1 and 4 threads (the drain is
 * single-threaded; the rows show it).
 */
void
runSimEngineSection()
{
    size_t events_n = envCount("PAICHAR_SIM_BENCH_EVENTS", 8000000);
    constexpr int kReps = 3;
    constexpr size_t kHold = 128;

    std::printf("# sim-engine: %zu events, best of %d reps\n",
                events_n, kReps);

    // Each rep schedules its starting population (timed separately:
    // the whole population for heap, kHold events for heap_hold128)
    // and then times the drain.
    struct Timing
    {
        double schedule_sec;
        double drain_sec;
        uint64_t executed;
    };
    struct Row
    {
        const char *engine;
        std::function<Timing()> body;
    };
    auto timeDrain = [](sim::EventQueue &eq, auto scheduleAll) {
        auto t0 = std::chrono::steady_clock::now();
        scheduleAll();
        auto t1 = std::chrono::steady_clock::now();
        eq.run();
        auto t2 = std::chrono::steady_clock::now();
        return Timing{
            std::chrono::duration<double>(t1 - t0).count(),
            std::chrono::duration<double>(t2 - t1).count(),
            eq.executed()};
    };
    const std::vector<Row> rows = {
        {"heap",
         [&] {
             sim::EventQueue eq;
             uint64_t acc = 0;
             Timing t = timeDrain(eq, [&] {
                 for (size_t i = 0; i < events_n; ++i)
                     eq.schedule(simBenchWhen(i), [&acc] { ++acc; });
             });
             benchmark::DoNotOptimize(acc);
             return t;
         }},
        {"heap_hold128",
         [&] {
             SimHold hold{sim::EventQueue{}, events_n};
             return timeDrain(hold.eq, [&] {
                 for (size_t i = 0; i < kHold; ++i)
                     hold.next();
             });
         }},
    };
    for (int threads : {1, 4}) {
        runtime::setThreadCount(threads);
        for (const Row &row : rows) {
            Timing best{0.0, 0.0, 0};
            for (int rep = 0; rep < kReps; ++rep) {
                Timing t = row.body();
                if (t.executed != events_n) {
                    std::fprintf(stderr,
                                 "sim_engine %s: executed %llu of %zu "
                                 "events\n",
                                 row.engine,
                                 static_cast<unsigned long long>(
                                     t.executed),
                                 events_n);
                    std::exit(1);
                }
                if (rep == 0 || t.drain_sec < best.drain_sec)
                    best = t;
            }
            std::printf(
                "{\"bench\":\"sim_engine\",\"engine\":\"%s\","
                "\"events\":%zu,\"threads\":%d,"
                "\"schedule_seconds\":%.6f,\"seconds\":%.6f,"
                "\"events_per_s\":%.0f}\n",
                row.engine, events_n, threads, best.schedule_sec,
                best.drain_sec,
                static_cast<double>(events_n) / best.drain_sec);
        }
    }
    runtime::setThreadCount(0);
    std::printf("\n");
}

/**
 * Serving section: simulated-requests-per-wall-second of the fleet
 * event loop over a ResNet50 stream (the contents of
 * BENCH_serving.json). The fleet1_greedy row is the single-server
 * scenario `paichar serve` and its SLO search run. The scale rows
 * hold the per-server load at the fleet1 rate
 * (800 qps) from 16 to 1024 servers under each routing policy, and
 * under p2c with a timeline recording, so a per-request cost that
 * grows with the fleet shows as a falling rate. Every row runs at 1
 * and 4 threads (the loop is single-threaded; the rows show it).
 * Request count defaults to 200k; override with
 * PAICHAR_SERVE_BENCH_REQUESTS for quick runs.
 */
void
runServingSection()
{
    auto requests = static_cast<int64_t>(
        envCount("PAICHAR_SERVE_BENCH_REQUESTS", 200000));
    constexpr int kReps = 5;
    constexpr double kQpsPerServer = 800.0;
    auto w = inference::InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());

    std::printf("# serving: %lld requests, best of %d reps\n",
                static_cast<long long>(requests), kReps);

    struct Row
    {
        std::string sim;
        int servers;
        std::function<int64_t()> body; // returns completions
    };
    auto fleet = [&](int servers, inference::Routing routing,
                     inference::Batching batching, bool timeline) {
        return [&w, requests, servers, routing, batching, timeline] {
            inference::FleetConfig cfg;
            cfg.num_servers = servers;
            cfg.routing = routing;
            cfg.batching = batching;
            stats::ArrivalConfig a;
            a.qps = kQpsPerServer * servers;
            // About 1000 arrivals per window at every fleet size, so
            // the windows' quantile sorts cost the same per request.
            if (timeline)
                obs::startTimeline(1000.0 / a.qps);
            int64_t done = inference::FleetSimulator(cfg)
                               .run({{w, a}}, requests, 7)
                               .completed;
            if (timeline)
                obs::stopTimeline();
            return done;
        };
    };
    using inference::Batching;
    using inference::Routing;
    std::vector<Row> rows = {
        {"fleet1_greedy", 1,
         fleet(1, Routing::RoundRobin, Batching::Greedy, false)},
        {"fleet4_greedy", 4,
         fleet(4, Routing::PowerOfTwo, Batching::Greedy, false)},
        {"fleet4_continuous", 4,
         fleet(4, Routing::PowerOfTwo, Batching::Continuous, false)},
    };
    for (Routing routing : {Routing::RoundRobin, Routing::LeastQueue,
                            Routing::PowerOfTwo}) {
        for (int servers : {16, 128, 1024}) {
            rows.push_back({std::string("scale_") +
                                inference::toString(routing),
                            servers,
                            fleet(servers, routing, Batching::Greedy,
                                  false)});
        }
    }
    for (int servers : {16, 128, 1024}) {
        rows.push_back({"scale_p2c_timeline", servers,
                        fleet(servers, Routing::PowerOfTwo,
                              Batching::Greedy, true)});
    }

    for (int threads : {1, 4}) {
        runtime::setThreadCount(threads);
        for (const Row &row : rows) {
            double best = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                int64_t done = row.body();
                auto t1 = std::chrono::steady_clock::now();
                if (done != requests) {
                    std::fprintf(stderr,
                                 "serving %s: completed %lld of %lld\n",
                                 row.sim.c_str(),
                                 static_cast<long long>(done),
                                 static_cast<long long>(requests));
                    std::exit(1);
                }
                double sec =
                    std::chrono::duration<double>(t1 - t0).count();
                best = std::max(best,
                                static_cast<double>(requests) / sec);
            }
            std::printf(
                "{\"bench\":\"serving\",\"sim\":\"%s\","
                "\"servers\":%d,\"threads\":%d,\"requests\":%lld,"
                "\"requests_per_s\":%.0f}\n",
                row.sim.c_str(), row.servers, threads,
                static_cast<long long>(requests), best);
        }
    }
    runtime::setThreadCount(0);
    std::printf("\n");
}

/**
 * Characterize-queries section: ClusterCharacterizer over a
 * paib-mapped trace, then the Fig 5-8 queries perfbench's
 * characterize-1m workload makes -- the constitution; per present
 * architecture a cNode-count CDF and job- and cNode-level averages;
 * the weight-size CDF; the four component and five hardware-component
 * CDFs at cNode level; the cluster average. Every CDF is read through
 * median(), so its sort is timed too. One row per thread count (1 and
 * 4): the process-wide count is set for the row, so the characterizer
 * and the CDF sorts share one pool. Best of 3 reps; the construct and
 * query split is the best rep's. Job count defaults to 1M; override
 * with PAICHAR_TRACE_BENCH_JOBS (BENCH_characterize.json).
 */
void
runCharacterizeQueriesSection()
{
    size_t jobs_n = envCount("PAICHAR_TRACE_BENCH_JOBS", 1000000);
    constexpr int kReps = 3;

    std::string path = (std::filesystem::temp_directory_path() /
                        "paichar_bench_characterize.paib")
                           .string();
    trace::SyntheticClusterGenerator gen(7);
    if (!trace::writeTraceFile(
            path, gen.generate(jobs_n, runtime::globalPool()),
            trace::TraceFormat::Binary)) {
        std::printf("# characterize-queries: cannot write %s\n\n",
                    path.c_str());
        return;
    }
    auto loaded = trace::readTraceStore(path);
    if (!loaded.ok) {
        std::printf("# characterize-queries: %s\n\n",
                    loaded.error.c_str());
        std::filesystem::remove(path);
        return;
    }
    core::AnalyticalModel model(hw::paiCluster());

    std::printf("# characterize-queries: %zu jobs (paib, mapped), "
                "13 CDFs + 7 averages + constitution, best of %d "
                "reps\n",
                jobs_n, kReps);
    for (int threads : {1, 4}) {
        runtime::setThreadCount(threads);
        double best = 0.0, best_construct = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            core::ClusterCharacterizer ch(model, loaded.store,
                                          runtime::globalPool());
            auto t1 = std::chrono::steady_clock::now();
            double digest = 0.0;
            auto c = ch.constitution();
            for (workload::ArchType arch : workload::kAllArchTypes) {
                if (c.job_counts.count(arch) == 0)
                    continue;
                digest += ch.cnodeCountCdf(arch).median();
                for (auto level : {core::Level::Job, core::Level::CNode})
                    digest += ch.avgBreakdown(arch, level)[1];
            }
            digest += ch.weightSizeCdf(std::nullopt).median();
            for (core::Component comp : core::kAllComponents) {
                digest += ch.componentCdf(comp, std::nullopt,
                                          core::Level::CNode)
                              .median();
            }
            for (core::HwComponent h : core::kAllHwComponents)
                digest += ch.hwComponentCdf(h, core::Level::CNode)
                              .median();
            digest +=
                ch.avgBreakdown(std::nullopt, core::Level::CNode)[1];
            benchmark::DoNotOptimize(digest);
            auto t2 = std::chrono::steady_clock::now();
            double sec = std::chrono::duration<double>(t2 - t0).count();
            if (rep == 0 || sec < best) {
                best = sec;
                best_construct =
                    std::chrono::duration<double>(t1 - t0).count();
            }
        }
        std::printf("{\"bench\":\"characterize_queries\",\"jobs\":%zu,"
                    "\"threads\":%d,\"seconds\":%.6f,"
                    "\"construct_s\":%.6f,\"queries_s\":%.6f,"
                    "\"jobs_per_s\":%.0f}\n",
                    jobs_n, threads, best, best_construct,
                    best - best_construct,
                    static_cast<double>(jobs_n) / best);
    }
    runtime::setThreadCount(0);
    std::filesystem::remove(path);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    runTraceIoSection();
    runThreadScalingSection();
    runObsOverheadSection();
    runObsInstrumentationOverheadSection();
    runPlannerSection();
    runSimEngineSection();
    runServingSection();
    runCharacterizeQueriesSection();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
