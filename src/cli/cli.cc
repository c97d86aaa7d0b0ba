#include "cli.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "clustersim/scheduler.h"
#include "obs/analyze.h"
#include "obs/job_log.h"
#include "obs/json_util.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "stats/ascii_plot.h"
#include "trace/binary_trace.h"
#include "core/arch_selection.h"
#include "core/characterization.h"
#include "core/projection.h"
#include "core/sweep.h"
#include "hw/units.h"
#include "inference/fleet_sim.h"
#include "opt/optimization_planner.h"
#include "predict/predictor.h"
#include "profiler/bottleneck_report.h"
#include "runtime/parallel.h"
#include "stats/table.h"
#include "testbed/training_sim.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"

namespace paichar::cli {

namespace {

using workload::ArchType;
using workload::TrainingJob;

/** How a flag's value is read and checked. */
enum class Kind
{
    Int,    ///< a whole number in [lo, hi], written any way strtod reads
    Number, ///< a finite number in [lo, hi]
    Choice, ///< one of `choices`
    Text,   ///< any non-empty string: a path, a name, a list
    /** Bare `--flag` or `--flag=VALUE`; never takes the next argument. */
    OptionalValue,
};

/** One row of a command's flag table. */
struct Flag
{
    std::string name;
    Kind kind;
    double lo = 0.0, hi = 0.0;
    std::vector<std::string> choices;
    /** Value when the flag is absent; empty when the handler computes it. */
    std::string def;
    std::string metavar;
    std::string help;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
/** The smallest double above 0: a [kPositive, hi] range is (0, hi]. */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kMaxInt = std::numeric_limits<int>::max();
/** Bound for int64 counts, exactly representable as a double. */
constexpr double kMaxInt64 = 0x1p62;
/** The largest double below 2^64, so a uint64 cast stays defined. */
constexpr double kMaxUint64 = 0x1.fffffffffffffp63;

Flag
integer(std::string name, double lo, double hi, std::string def,
        std::string help)
{
    return {std::move(name), Kind::Int, lo, hi, {}, std::move(def),
            "N", std::move(help)};
}

Flag
number(std::string name, double lo, double hi, std::string def,
       std::string help)
{
    return {std::move(name), Kind::Number, lo, hi, {}, std::move(def),
            "X", std::move(help)};
}

Flag
choice(std::string name, std::vector<std::string> choices,
       std::string def, std::string help)
{
    return {std::move(name), Kind::Choice, 0, 0, std::move(choices),
            std::move(def), "", std::move(help)};
}

Flag
text(std::string name, std::string metavar, std::string def,
     std::string help)
{
    return {std::move(name), Kind::Text, 0, 0, {}, std::move(def),
            std::move(metavar), std::move(help)};
}

/**
 * A command's validated argv: positionals after the command words,
 * and every flag given plus the table default of each flag not given.
 */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    std::optional<std::string>
    flag(const std::string &name) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return std::nullopt;
        return it->second;
    }

    /** An Int or Number flag with a default, or given. */
    double
    num(const std::string &name) const
    {
        return std::strtod(flags.at(name).c_str(), nullptr);
    }

    /** An Int or Number flag whose default the handler computes. */
    double
    num(const std::string &name, double fallback) const
    {
        return flags.count(name) ? num(name) : fallback;
    }
};

/** One subcommand: its words, arguments, handler, help and flags. */
struct Command
{
    std::string name;        ///< "schedule", or "obs timeline diff"
    std::string positionals; ///< one metavar per argument
    std::string expects;     ///< the arguments in prose, for errors
    int (*handler)(const Args &, std::ostream &, std::ostream &);
    std::string help; ///< a summary line, then details
    std::vector<Flag> flags;
};

/**
 * Load a trace, CSV or `paib` binary (auto-detected by magic). `paib`
 * traces stay in their mmap'd columnar form: jobs decode on access.
 * CSV bodies parse in parallel on the global pool.
 */
std::optional<workload::JobStore>
loadTraceStore(const std::string &path, std::ostream &err)
{
    auto r = trace::readTraceStore(path, runtime::globalPool());
    if (!r.ok) {
        err << "error: " << r.error << "\n";
        return std::nullopt;
    }
    return std::move(r.store);
}

/**
 * --trace-format if given, else what the extension of @p path names
 * (.paib/.bin = binary), else CSV.
 */
trace::TraceFormat
outputFormat(const Args &args, const std::optional<std::string> &path)
{
    if (auto v = args.flag("trace-format"))
        return *trace::traceFormatFromString(*v);
    auto dot = path ? path->rfind('.') : std::string::npos;
    std::string ext = dot == std::string::npos ? "" : path->substr(dot);
    return (ext == ".paib" || ext == ".bin") ? trace::TraceFormat::Binary
                                             : trace::TraceFormat::Csv;
}

int
cmdGenerate(const Args &args, std::ostream &out, std::ostream &err)
{
    auto jobs_n = static_cast<size_t>(args.num("jobs"));
    auto seed = static_cast<uint64_t>(args.num("seed"));
    auto out_file = args.flag("out");
    auto format = outputFormat(args, out_file);
    if (!out_file && format == trace::TraceFormat::Binary) {
        err << "error: --trace-format bin requires --out FILE\n";
        return 1;
    }
    trace::SyntheticClusterGenerator gen(seed);
    auto jobs = gen.generate(jobs_n, runtime::globalPool());
    if (!out_file) {
        out << trace::toCsv(jobs);
        return 0;
    }
    if (!trace::writeTraceFile(*out_file, jobs, format)) {
        err << "error: cannot write '" << *out_file << "'\n";
        return 1;
    }
    out << "wrote " << jobs.size() << " jobs (seed " << seed << ", "
        << trace::toString(format) << ") to " << *out_file << "\n";
    return 0;
}

int
cmdConvert(const Args &args, std::ostream &out, std::ostream &err)
{
    const std::string &in_path = args.positional[0];
    const std::string &out_path = args.positional[1];
    auto format = outputFormat(args, out_path);
    auto store = loadTraceStore(in_path, err);
    if (!store)
        return 1;
    auto jobs = store->materialize();
    if (!trace::writeTraceFile(out_path, jobs, format)) {
        err << "error: cannot write '" << out_path << "'\n";
        return 1;
    }
    out << "converted " << jobs.size() << " jobs: " << in_path
        << " -> " << out_path << " (" << trace::toString(format)
        << ")\n";
    return 0;
}

int
cmdCharacterize(const Args &args, std::ostream &out, std::ostream &err)
{
    auto jobs = loadTraceStore(args.positional[0], err);
    if (!jobs)
        return 1;
    core::AnalyticalModel model(hw::paiCluster());
    core::ClusterCharacterizer ch(model, std::move(*jobs));

    auto c = ch.constitution();
    stats::Table t({"type", "jobs", "job share", "cNode share",
                    "avg comm share (job)", "avg comm share (cNode)"});
    for (ArchType arch : workload::kAllArchTypes) {
        if (c.job_counts.find(arch) == c.job_counts.end())
            continue;
        auto jl = ch.avgBreakdown(arch, core::Level::Job);
        auto cl = ch.avgBreakdown(arch, core::Level::CNode);
        t.addRow({workload::toString(arch),
                  std::to_string(c.job_counts[arch]),
                  stats::fmtPct(c.jobShare(arch)),
                  stats::fmtPct(c.cnodeShare(arch)),
                  stats::fmtPct(jl[1]), stats::fmtPct(cl[1])});
    }
    out << t.render();

    auto cl = ch.avgBreakdown(std::nullopt, core::Level::CNode);
    out << "cluster cNode-level breakdown: data "
        << stats::fmtPct(cl[0]) << ", weights " << stats::fmtPct(cl[1])
        << ", compute-bound " << stats::fmtPct(cl[2])
        << ", memory-bound " << stats::fmtPct(cl[3]) << "\n";
    return 0;
}

int
cmdProject(const Args &args, std::ostream &out, std::ostream &err)
{
    auto jobs = loadTraceStore(args.positional[0], err);
    if (!jobs)
        return 1;
    std::string target_name = *args.flag("target");
    auto target = workload::archFromString(target_name);
    if (!target) {
        err << "error: unknown architecture '" << target_name << "'\n";
        return 1;
    }
    core::AnalyticalModel model(hw::paiCluster());
    core::ArchitectureProjector proj(model);
    std::vector<TrainingJob> ps;
    for (const auto &job : *jobs) {
        if (job.arch == ArchType::PsWorker)
            ps.push_back(job);
    }
    if (ps.empty()) {
        err << "error: trace has no PS/Worker jobs to project\n";
        return 1;
    }
    auto results = proj.projectAll(ps, *target);
    int n = static_cast<int>(results.size()), sped = 0;
    double sum = 0.0;
    for (const auto &r : results) {
        sped += r.throughput_speedup > 1.0;
        sum += r.throughput_speedup;
    }
    out << "projected " << n << " PS/Worker jobs to " << target_name
        << ": "
        << stats::fmtPct(static_cast<double>(sped) / n)
        << " gain throughput, mean speedup "
        << stats::fmt(sum / n, 2) << "x\n";
    return 0;
}

int
cmdSweep(const Args &args, std::ostream &out, std::ostream &err)
{
    auto jobs = loadTraceStore(args.positional[0], err);
    if (!jobs)
        return 1;
    std::string arch_name = *args.flag("arch");
    auto arch = workload::archFromString(arch_name);
    if (!arch) {
        err << "error: unknown architecture '" << arch_name << "'\n";
        return 1;
    }
    std::vector<TrainingJob> filtered;
    for (const auto &job : *jobs) {
        if (job.arch == *arch)
            filtered.push_back(job);
    }
    if (filtered.empty()) {
        err << "error: trace has no " << arch_name << " jobs\n";
        return 1;
    }
    core::HardwareSweep sweep(hw::paiCluster());
    stats::Table t({"resource", "value", "normalized", "avg speedup"});
    for (const auto &series : sweep.run(filtered)) {
        for (const auto &p : series.points) {
            t.addRow({hw::toString(p.resource),
                      stats::fmt(p.value, 0),
                      stats::fmt(p.normalized, 2) + "x",
                      stats::fmt(p.avg_speedup, 3) + "x"});
        }
        t.addSeparator();
    }
    out << arch_name << " jobs: " << filtered.size() << "\n"
        << t.render();
    return 0;
}

int
cmdAdvise(const Args &args, std::ostream &out, std::ostream &err)
{
    TrainingJob job;
    job.arch = ArchType::PsWorker;
    job.num_cnodes = static_cast<int>(args.num("cnodes"));
    job.features.batch_size = args.num("batch");
    job.features.flop_count = args.num("flops", -1);
    job.features.mem_access_bytes = args.num("mem", -1);
    job.features.input_bytes = args.num("input", -1);
    job.features.comm_bytes = args.num("comm", -1);
    job.features.dense_weight_bytes =
        args.num("dense-weights", job.features.comm_bytes);
    job.features.embedding_weight_bytes = args.num("embedding-weights");
    if (job.features.embedding_weight_bytes > 0.0) {
        // Traffic split mirrors the weight split by default.
        job.features.embedding_comm_bytes =
            job.features.comm_bytes *
            job.features.embedding_weight_bytes /
            job.features.weightBytes();
    }
    if (!job.features.valid() || job.features.flop_count < 0 ||
        job.features.mem_access_bytes < 0 ||
        job.features.input_bytes < 0 || job.features.comm_bytes < 0) {
        err << "error: advise requires non-negative --flops --mem "
               "--input --comm\n";
        return 1;
    }

    core::AnalyticalModel model(hw::v100Testbed());
    core::ArchitectureAdvisor advisor(model, args.num("gpu-mem"));
    stats::Table t({"architecture", "cNodes", "per-GPU weights",
                    "step time", "throughput", "feasible"});
    for (const auto &opt : advisor.evaluate(job)) {
        t.addRow({workload::toString(opt.arch),
                  std::to_string(opt.num_cnodes),
                  stats::fmtBytes(opt.per_gpu_weight_bytes),
                  opt.feasible ? stats::fmtSeconds(opt.step_time)
                               : "-",
                  opt.feasible ? stats::fmt(opt.throughput, 0) +
                                     " samples/s"
                               : "-",
                  opt.feasible ? "yes" : "no: " + opt.reason});
    }
    out << t.render();
    auto best = advisor.recommend(job);
    out << "recommendation: " << workload::toString(best.arch)
        << " with " << best.num_cnodes << " cNodes\n";
    return 0;
}

/** Case-study model by lowercase name, or nullopt + err report. */
std::optional<workload::CaseStudyModel>
findModel(const std::string &name, std::ostream &err)
{
    for (const auto &m : workload::ModelZoo::all()) {
        std::string lower;
        for (char c : m.name)
            lower += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (lower == name)
            return m;
    }
    err << "error: unknown model '" << name
        << "' (try resnet50, nmt, bert, speech, "
           "multi-interests, gcn)\n";
    return std::nullopt;
}

int
cmdDiagnose(const Args &args, std::ostream &out, std::ostream &err)
{
    auto model = findModel(args.positional[0], err);
    if (!model)
        return 1;

    testbed::TrainingSimulator sim;
    auto result = sim.run(*model);
    profiler::BottleneckAnalyzer analyzer(
        sim.options().kernel_launch_overhead);
    out << "=== " << model->name << " on the simulated testbed ("
        << workload::toString(model->arch) << ", "
        << model->num_cnodes << " cNodes) ===\n"
        << analyzer.analyze(result.metadata).render();

    opt::OptimizationPlanner planner;
    auto best = planner.best(*model);
    out << "best measured plan: " << best.label() << " ("
        << stats::fmt(best.speedup, 2) << "x over the baseline)\n";
    return 0;
}

/** One --passes token applied onto the planner config. */
bool
applyPassToken(const std::string &token, opt::PlannerConfig &cfg)
{
    if (token == "mixed-precision")
        cfg.enable_mixed_precision = true;
    else if (token == "xla-fusion")
        cfg.enable_xla_fusion = true;
    else if (token == "subgraph-partition")
        cfg.enable_subgraph_partition = true;
    else if (token == "channel-split")
        cfg.enable_channel_split = true;
    else if (token == "micro-batch")
        cfg.enable_micro_batching = true;
    else if (token == "arch")
        cfg.explore_architectures = true;
    else
        return false;
    return true;
}

/** JSON spelling of one evaluated plan. */
void
appendPlanJson(std::string &j, const opt::Plan &p)
{
    const opt::CostEstimate &est =
        p.simulated ? p.measured : p.analytical;
    j += "{\"plan\":\"";
    obs::appendJsonEscaped(j, p.label());
    j += "\",\"arch\":\"";
    obs::appendJsonEscaped(j, workload::toString(p.spec.arch));
    j += "\",\"cnodes\":";
    obs::appendJsonNumber(j, int64_t{p.spec.num_cnodes});
    j += ",\"data_parallel\":";
    obs::appendJsonNumber(j, int64_t{p.spec.dataParallel()});
    j += ",\"split_ways\":";
    obs::appendJsonNumber(j, int64_t{p.spec.splitWays()});
    j += ",\"micro_batches\":";
    obs::appendJsonNumber(j, int64_t{p.spec.micro_batches});
    j += ",\"evaluator\":\"";
    j += p.simulated ? "simulated" : "analytical";
    j += "\",\"step_time\":";
    obs::appendJsonNumber(j, est.step_time);
    j += ",\"throughput\":";
    obs::appendJsonNumber(j, est.throughput);
    j += ",\"speedup\":";
    obs::appendJsonNumber(j, p.speedup);
    j += ",\"traffic\":{\"pcie_bytes\":";
    obs::appendJsonNumber(j, est.traffic.pcie_bytes);
    j += ",\"ethernet_bytes\":";
    obs::appendJsonNumber(j, est.traffic.ethernet_bytes);
    j += ",\"nvlink_bytes\":";
    obs::appendJsonNumber(j, est.traffic.nvlink_bytes);
    j += "}}";
}

int
cmdPlan(const Args &args, std::ostream &out, std::ostream &err)
{
    auto model = findModel(args.positional[0], err);
    if (!model)
        return 1;

    opt::PlannerConfig cfg;
    std::string search = *args.flag("search");
    if (search == "beam")
        cfg.search = opt::SearchMode::Beam;
    cfg.top_k = static_cast<int>(args.num("top"));
    cfg.beam_width = static_cast<int>(args.num("beam"));
    cfg.gpu_memory_bytes = args.num("gpu-mem");
    if (auto passes = args.flag("passes")) {
        cfg.enable_mixed_precision = false;
        cfg.enable_xla_fusion = false;
        cfg.enable_subgraph_partition = false;
        cfg.enable_channel_split = false;
        cfg.enable_micro_batching = false;
        cfg.explore_architectures = false;
        std::stringstream ss(*passes);
        std::string token;
        while (std::getline(ss, token, ',')) {
            if (!applyPassToken(token, cfg)) {
                err << "error: --passes: unknown pass '" << token
                    << "' (mixed-precision, xla-fusion, "
                       "subgraph-partition, channel-split, "
                       "micro-batch, arch)\n";
                return 1;
            }
        }
    }

    opt::OptimizationPlanner planner(cfg);
    auto plans = planner.evaluate(*model);
    // Same pick rule as OptimizationPlanner::best, without paying
    // for a second search.
    const opt::Plan &best =
        plans.size() > 1 && plans[1].simulated &&
                plans[1].speedup >= 1.0
            ? plans[1]
            : plans[0];

    if (*args.flag("format") == "json") {
        std::string j = "{\"model\":\"";
        obs::appendJsonEscaped(j, model->name);
        j += "\",\"search\":\"";
        j += search;
        j += "\",\"plans\":[";
        for (size_t i = 0; i < plans.size(); ++i) {
            if (i)
                j += ",";
            appendPlanJson(j, plans[i]);
        }
        j += "],\"best\":\"";
        obs::appendJsonEscaped(j, best.label());
        j += "\"}";
        out << j << "\n";
        return 0;
    }

    out << "=== plan: " << model->name << " ("
        << workload::toString(model->arch) << ", "
        << model->num_cnodes << " cNodes, batch "
        << stats::fmt(model->features.batch_size, 0) << ", "
        << search << " search) ===\n";
    stats::Table t({"plan", "cNodes", "dp x ways x acc", "step time",
                    "throughput", "speedup", "evaluator"});
    for (const auto &p : plans) {
        const opt::CostEstimate &est =
            p.simulated ? p.measured : p.analytical;
        t.addRow({p.label(), std::to_string(p.spec.num_cnodes),
                  std::to_string(p.spec.dataParallel()) + " x " +
                      std::to_string(p.spec.splitWays()) + " x " +
                      std::to_string(p.spec.micro_batches),
                  stats::fmtSeconds(est.step_time),
                  stats::fmt(est.throughput, 0) + "/s",
                  stats::fmt(p.speedup, 2) + "x",
                  p.simulated ? "simulated" : "analytical"});
    }
    out << t.render();

    if (!best.diagnostics.empty()) {
        out << "pass diagnostics (" << best.label() << "):\n";
        for (const auto &d : best.diagnostics) {
            out << "  " << d.pass << ": ops " << d.ops_before
                << " -> " << d.ops_after << ", kernels "
                << d.kernels_before << " -> " << d.kernels_after
                << ", " << stats::fmtG(d.flops_before) << " -> "
                << stats::fmtG(d.flops_after) << " FLOPs, "
                << stats::fmtBytes(d.mem_bytes_before) << " -> "
                << stats::fmtBytes(d.mem_bytes_after) << " mem";
            if (d.exchange_nvlink_bytes > 0.0) {
                out << ", +"
                    << stats::fmtBytes(d.exchange_nvlink_bytes)
                    << "/GPU NVLink exchange";
            }
            out << "\n";
        }
    }
    out << "best plan: " << best.label() << " ("
        << stats::fmt(best.speedup, 2) << "x over the baseline)\n";
    return 0;
}

/** Fleet shape shared by `serve` and `capacity`. */
struct FleetArgs
{
    inference::FleetConfig cfg;
    stats::ArrivalConfig arrival;
    int64_t requests = 20000;
    double slo = 0.0;
    /** Per-request cost at batch 1 (sets the default qps/slo). */
    double solo = 0.0;
};

/** The fleet flags for @p w, with the qps/slo defaults it implies. */
FleetArgs
parseFleetArgs(const Args &args, const inference::InferenceWorkload &w)
{
    FleetArgs f;
    f.cfg.num_servers = static_cast<int>(args.num("servers"));
    f.cfg.max_batch = static_cast<int>(args.num("max-batch"));
    f.cfg.routing = *inference::routingFromString(*args.flag("routing"));
    f.cfg.batching =
        *inference::batchingFromString(*args.flag("batching"));
    f.cfg.admit_queue = static_cast<int>(args.num("admit"));
    // "1" and "queue" are the original depth-driven controller;
    // "slo" reacts to the trailing-window p99 instead (the latency
    // target is fixed up below, once --slo-ms is known).
    std::string autoscale = *args.flag("autoscale");
    if (autoscale != "0") {
        f.cfg.autoscaler.enabled = true;
        f.cfg.autoscaler.max_servers = std::max(
            f.cfg.num_servers, static_cast<int>(args.num("max-servers")));
        if (autoscale == "slo") {
            f.cfg.autoscaler.mode =
                inference::AutoscalerConfig::Mode::SloLatency;
        }
    }
    f.arrival.kind = *stats::arrivalKindFromString(*args.flag("arrival"));

    f.solo = w.serviceTime(1, f.cfg.server.gpu,
                           f.cfg.launch_overhead) +
             w.inputTime(1, f.cfg.server.pcie_bandwidth);
    f.arrival.qps = args.num("qps", 0.5 * f.cfg.num_servers / f.solo);
    f.slo = args.num("slo-ms", 5.0 * f.solo * 1e3) * 1e-3;
    f.cfg.autoscaler.slo_latency = f.slo;
    f.requests = static_cast<int64_t>(args.num("requests"));
    return f;
}

int
cmdServe(const Args &args, std::ostream &out, std::ostream &err)
{
    auto model = findModel(args.positional[0], err);
    if (!model)
        return 1;
    auto w = inference::InferenceWorkload::fromTraining(*model);
    FleetArgs f = parseFleetArgs(args, w);

    inference::FleetSimulator fleet(f.cfg);
    auto r = fleet.run({{w, f.arrival}}, f.requests, 20190701);

    out << w.name << " inference @ " << stats::fmt(f.arrival.qps, 0)
        << " qps (" << stats::toString(f.arrival.kind)
        << " arrivals, " << f.cfg.num_servers << " server"
        << (f.cfg.num_servers == 1 ? "" : "s") << ", "
        << inference::toString(f.cfg.routing) << " routing, "
        << inference::toString(f.cfg.batching)
        << " batching, max batch " << f.cfg.max_batch << "):\n"
        << "  p50 " << stats::fmtSeconds(r.p50_latency) << ", p95 "
        << stats::fmtSeconds(r.p95_latency) << ", p99 "
        << stats::fmtSeconds(r.p99_latency) << ", p999 "
        << stats::fmtSeconds(r.p999_latency) << ", GPU util "
        << stats::fmtPct(r.gpu_utilization) << ", avg batch "
        << stats::fmt(r.avg_batch, 2) << ", verdict "
        << inference::toString(r.verdict)
        << (r.saturated ? "  [OVERLOAD]" : "") << "\n";
    if (f.cfg.admit_queue > 0) {
        out << "  admitted " << r.admitted << "/" << r.offered
            << " (" << r.rejected << " rejected at queue depth "
            << f.cfg.admit_queue << ")\n";
    }
    if (f.cfg.autoscaler.enabled) {
        out << "  autoscaler: " << r.scale_ups << " up / "
            << r.scale_downs << " down, peak " << r.peak_servers
            << " servers, final " << r.final_servers << "\n";
        if (f.cfg.autoscaler.mode ==
            inference::AutoscalerConfig::Mode::SloLatency) {
            out << "  slo mode: target p99 <= "
                << stats::fmtSeconds(f.cfg.autoscaler.slo_latency)
                << ", achieved p99 "
                << stats::fmtSeconds(r.p99_latency)
                << (r.p99_latency <= f.cfg.autoscaler.slo_latency
                        ? " [met]"
                        : " [missed]")
                << "\n";
        }
    }
    // The single-server SLO search (the seed scenario's headline
    // number) still anchors the default invocation.
    if (f.cfg.num_servers == 1 && !f.cfg.autoscaler.enabled &&
        f.cfg.batching == inference::Batching::Greedy &&
        f.arrival.kind == stats::ArrivalKind::Constant &&
        f.cfg.admit_queue == 0) {
        double cap = inference::maxQpsUnderSlo(
            f.cfg, w, f.slo, 50.0 / f.solo, 20000, 20190701);
        out << "  max QPS under p99 <= " << stats::fmtSeconds(f.slo)
            << ": " << stats::fmt(cap, 0) << "\n";
    }
    return 0;
}

int
cmdCapacity(const Args &args, std::ostream &out, std::ostream &err)
{
    auto model = findModel(args.positional[0], err);
    if (!model)
        return 1;
    auto w = inference::InferenceWorkload::fromTraining(*model);
    FleetArgs f = parseFleetArgs(args, w);
    int max_servers = static_cast<int>(args.num("max-servers"));

    out << "capacity: " << w.name << " @ "
        << stats::fmt(f.arrival.qps, 0) << " qps ("
        << stats::toString(f.arrival.kind) << " arrivals, "
        << inference::toString(f.cfg.routing) << " routing, "
        << inference::toString(f.cfg.batching)
        << " batching, max batch " << f.cfg.max_batch
        << "), SLO p99 <= " << stats::fmtSeconds(f.slo) << "\n";
    auto n = inference::minServersForSlo(
        f.cfg, {{w, f.arrival}}, f.slo, max_servers, f.requests,
        20190701);
    if (!n) {
        out << "  not attainable within " << max_servers
            << " servers\n";
        return 0;
    }
    inference::FleetConfig at = f.cfg;
    at.num_servers = *n;
    at.autoscaler.enabled = false;
    auto r = inference::FleetSimulator(at).run({{w, f.arrival}},
                                               f.requests, 20190701);
    out << "  servers needed: " << *n << "\n"
        << "  at " << *n << " servers: p99 "
        << stats::fmtSeconds(r.p99_latency) << ", GPU util "
        << stats::fmtPct(r.gpu_utilization) << ", avg batch "
        << stats::fmt(r.avg_batch, 2) << ", verdict "
        << inference::toString(r.verdict) << "\n";
    return 0;
}

std::optional<std::string> readTextFile(const std::string &path,
                                        std::ostream &err);

/** A --job-log or --metrics file, or nullopt + err report. */
std::optional<obs::RunData>
loadRun(const std::string &path, std::ostream &err)
{
    auto text = readTextFile(path, err);
    if (!text)
        return std::nullopt;
    auto r = obs::loadRunData(*text);
    if (!r.ok) {
        err << "error: " << path << ": " << r.error << "\n";
        return std::nullopt;
    }
    return std::move(r.data);
}

int
cmdSchedule(const Args &args, std::ostream &out, std::ostream &err)
{
    clustersim::SchedulerConfig cfg;
    cfg.num_servers = static_cast<int>(args.num("servers"));
    cfg.nvlink_fraction = args.num("nvlink-frac");
    cfg.port_ps_to_allreduce = args.num("port") != 0;
    double rate = args.num("rate");

    std::string policy_name = *args.flag("policy");
    cfg.policy = *clustersim::policyFromString(policy_name);
    std::string predictor_name = *args.flag("predictor");
    std::string placement_name = *args.flag("placement");
    cfg.placement = placement_name == "best-fit"
                        ? clustersim::PlacementStrategy::BestFit
                        : clustersim::PlacementStrategy::FirstFit;
    double quantile = args.num("quantile");
    cfg.old_gen_fraction = args.num("hetero");
    bool compare_fifo = args.num("compare-fifo") != 0;

    // Prediction-driven policies have nothing to order the queue by
    // when predictions are turned off entirely.
    if (predictor_name == "none" &&
        clustersim::predictionDriven(cfg.policy)) {
        throw std::invalid_argument(
            "--policy " + policy_name +
            " is prediction-driven and cannot run with --predictor none "
            "(use model, quantile or linear)");
    }

    // History-trained predictors fit on a recorded --job-log stream.
    std::vector<obs::JobRecord> history;
    if (predictor_name == "quantile" || predictor_name == "linear") {
        auto path = args.flag("history");
        if (!path) {
            throw std::invalid_argument(
                "--predictor " + predictor_name +
                " requires --history JOBLOG (a recorded --job-log file "
                "to fit on)");
        }
        auto run = loadRun(*path, err);
        if (!run)
            return 1;
        if (run->kind != obs::RunData::Kind::JobLog) {
            err << "error: --history requires a job log "
                   "(--job-log output)\n";
            return 1;
        }
        history = std::move(run->records);
    }
    std::unique_ptr<predict::DurationModel> duration_model;
    if (predictor_name == "quantile") {
        duration_model = std::make_unique<predict::QuantileDurationModel>(
            history, quantile);
    } else if (predictor_name == "linear") {
        duration_model =
            std::make_unique<predict::LinearDurationModel>(history);
    }
    if (duration_model) {
        cfg.predictor = [&m = *duration_model](
                            const TrainingJob &job, int64_t steps,
                            double model_run_s) {
            return m.predictRunSeconds(job, steps, model_run_s);
        };
    } else if (predictor_name == "model") {
        // The analytical model's own prediction. Distinct from
        // "none": Policy::Backfill upgrades from greedy skip-ahead
        // to EASY reservations when any predictor is present.
        cfg.predictor = [](const TrainingJob &, int64_t,
                           double model_run_s) {
            return model_run_s;
        };
    }

    // Validate the cluster and the stream before reading the trace:
    // both throw invalid_argument on out-of-range flags.
    core::AnalyticalModel model(hw::paiCluster());
    clustersim::ClusterScheduler sched(cfg, model);
    constexpr double kStepsMedian = 2000.0, kStepsSigma = 1.2;
    constexpr uint64_t kStreamSeed = 20181201;
    clustersim::poissonRequests({}, rate, kStepsMedian, kStepsSigma,
                                kStreamSeed);

    auto store = loadTraceStore(args.positional[0], err);
    if (!store)
        return 1;
    auto jobs = std::move(*store).materialize();
    // Clamp jobs to the cluster and build a submission stream.
    for (auto &j : jobs)
        j.num_cnodes = std::min(j.num_cnodes, cfg.num_servers);
    auto requests = clustersim::poissonRequests(
        jobs, rate, kStepsMedian, kStepsSigma, kStreamSeed);
    auto result = sched.run(requests);
    out << "scheduled " << result.jobs.size() << " jobs on "
        << cfg.num_servers << " servers ("
        << stats::fmtPct(cfg.nvlink_fraction, 0)
        << " NVLink, porting "
        << (cfg.port_ps_to_allreduce ? "on" : "off") << ")\n"
        << "  policy: " << policy_name << ", predictor: "
        << predictor_name << ", placement: " << placement_name
        << "\n"
        << "  mean wait: " << stats::fmtSeconds(result.mean_wait)
        << ", p95 wait: " << stats::fmtSeconds(result.p95_wait)
        << "\n  GPU utilization: "
        << stats::fmtPct(result.gpu_utilization)
        << ", makespan: " << stats::fmtSeconds(result.makespan)
        << ", ported jobs: " << result.ported_jobs
        << ", preempted: " << result.preemptions << "\n";

    // Submit-time queueing-delay estimate from the same history, the
    // "how long will a job like this wait" answer of DESIGN.md Sec 13.
    if (!history.empty()) {
        predict::QueueDelayModel delay(history, quantile);
        out << "  history-predicted wait (8-GPU job, q="
            << stats::fmt(quantile, 2)
            << "): " << stats::fmtSeconds(delay.predictQueueSeconds(8))
            << "\n";
    }

    // A second run of the identical submission stream under plain
    // FIFO quantifies what the chosen policy buys. The comparison
    // run never writes telemetry: the exported job log must keep
    // exactly one record per job.
    if (compare_fifo && cfg.policy != clustersim::Policy::Fifo) {
        clustersim::SchedulerConfig base = cfg;
        base.policy = clustersim::Policy::Fifo;
        base.record_job_log = false;
        base.record_timeline = false;
        clustersim::ClusterScheduler fifo(base, model);
        auto fifo_result = fifo.run(std::move(requests));
        double dm = fifo_result.mean_wait > 0.0
                        ? (fifo_result.mean_wait - result.mean_wait) /
                              fifo_result.mean_wait
                        : 0.0;
        out << "  vs fifo: mean wait "
            << stats::fmtSeconds(fifo_result.mean_wait) << " -> "
            << stats::fmtSeconds(result.mean_wait) << " ("
            << stats::fmtPct(dm) << " lower), p95 "
            << stats::fmtSeconds(fifo_result.p95_wait) << " -> "
            << stats::fmtSeconds(result.p95_wait)
            << ", utilization "
            << stats::fmtPct(fifo_result.gpu_utilization) << " -> "
            << stats::fmtPct(result.gpu_utilization) << "\n";
    }
    return 0;
}

/** A --timeline CSV file, or nullopt + err report. */
std::optional<obs::TimelineData>
loadTimeline(const std::string &path, std::ostream &err)
{
    auto text = readTextFile(path, err);
    if (!text)
        return std::nullopt;
    auto d = obs::loadTimelineCsv(*text);
    if (!d.ok) {
        err << "error: " << path << ": " << d.error << "\n";
        return std::nullopt;
    }
    return d;
}

int
cmdObsReport(const Args &args, std::ostream &out, std::ostream &err)
{
    auto run = loadRun(args.positional[0], err);
    if (!run)
        return 1;
    out << obs::reportText(*run);
    return 0;
}

int
cmdObsTop(const Args &args, std::ostream &out, std::ostream &err)
{
    auto run = loadRun(args.positional[0], err);
    if (!run)
        return 1;
    if (run->kind != obs::RunData::Kind::JobLog) {
        err << "error: obs top requires a job log "
               "(--job-log output)\n";
        return 1;
    }
    out << obs::topText(*run, static_cast<size_t>(args.num("limit")));
    return 0;
}

/** A timeline's per-series scalars, the RunData obs diff compares. */
std::optional<obs::RunData>
loadTimelineScalars(const std::string &path, std::ostream &err)
{
    auto data = loadTimeline(path, err);
    if (!data)
        return std::nullopt;
    return obs::timelineScalars(*data);
}

/**
 * `obs diff` and `obs timeline diff`: compare two runs read by
 * @p load. Exit 2 on regression so scripts can tell "worse than the
 * baseline" from "could not run" (exit 1); the CI perf gate relies on
 * it.
 */
template <auto load>
int
cmdDiff(const Args &args, std::ostream &out, std::ostream &err)
{
    auto a = load(args.positional[0], err);
    if (!a)
        return 1;
    auto b = load(args.positional[1], err);
    if (!b)
        return 1;
    auto diff = obs::diffRuns(*a, *b, args.num("tolerance"));
    out << obs::renderDiff(diff);
    return diff.regression ? 2 : 0;
}

int
cmdObsTimeline(const Args &args, std::ostream &out, std::ostream &err)
{
    auto data = loadTimeline(args.positional[0], err);
    if (!data)
        return 1;
    out << obs::renderTimelineReport(*data);
    if (auto plot = args.flag("plot")) {
        auto it = data->series.find(*plot);
        if (it == data->series.end()) {
            err << "error: no series '" << *plot
                << "' in the timeline (see the report above "
                   "for series names)\n";
            return 1;
        }
        out << "\n" << *plot << ":\n"
            << stats::renderSeriesPlot(it->second, 64, 16,
                                       "window end, seconds");
    }
    return 0;
}

/** Flags every command takes. */
const std::vector<Flag> &
globalFlags()
{
    static const std::vector<Flag> flags{
        // The cap $PAICHAR_THREADS has too.
        integer("threads", 1, 1 << 16, "",
                "worker threads (default: $PAICHAR_THREADS, else all)"),
        {"metrics", Kind::OptionalValue, 0, 0, {}, "", "FILE",
         "write the metric summary to FILE (default: stderr)"},
        choice("metrics-format", {"text", "openmetrics"}, "text",
               "metric summary format"),
        text("profile", "FILE", "",
             "write a Chrome trace of the run (Perfetto)"),
        text("job-log", "FILE", "",
             "write one JSONL record per simulated job"),
        text("job-trace", "FILE", "",
             "write a per-worker Chrome trace of the jobs"),
        text("timeline", "FILE", "",
             "write sim-time series (queue depth, fleet size, ...)"),
        number("timeline-interval", kPositive, kInf, "10",
               "timeline period in simulated seconds"),
        choice("timeline-format", {"csv", "json"}, "",
               "json for a .json --timeline, else csv"),
    };
    return flags;
}

/** Every subcommand, in --help order. */
const std::vector<Command> &
commands()
{
    static const double kMaxJobs =
        static_cast<double>(std::vector<TrainingJob>().max_size());
    static const Flag trace_format =
        choice("trace-format", {"csv", "bin"}, "",
               "bin for a .paib/.bin path, else csv");
    static const Flag tolerance = number(
        "tolerance", 0, kInf, "10", "percent a scalar may move");
    static const Flag gpu_mem = number("gpu-mem", kPositive, kInf,
                                       "32e9", "GPU memory, bytes");
    static const std::vector<Flag> fleet{
        number("qps", kPositive, kInf, "",
               "offered load (default: half of batch-1 capacity)"),
        number("slo-ms", kPositive, kInf, "",
               "p99 SLO (default: 5x the batch-1 latency)"),
        integer("servers", 1, kMaxInt, "1", "fleet size"),
        integer("max-batch", 1, kMaxInt, "8", "largest batch"),
        choice("routing", {"round-robin", "least-queue", "p2c"},
               "round-robin", "request routing"),
        choice("batching", {"greedy", "continuous"}, "greedy",
               "batch formation"),
        choice("arrival", {"constant", "diurnal", "bursty"},
               "constant", "arrival process"),
        integer("admit", 0, kMaxInt, "0", "queue depth cap; 0 = none"),
        choice("autoscale", {"0", "1", "queue", "slo"}, "0",
               "off, on queue depth (1, queue) or on p99 (slo)"),
        integer("max-servers", 1, kMaxInt, "64",
                "autoscaler ceiling; capacity's search limit"),
        integer("requests", 1, kMaxInt64, "20000", "requests to run"),
    };
    static const std::vector<Command> table{
        {"generate", "", "no arguments", cmdGenerate,
         "synthesize a PAI-like cluster trace",
         {integer("jobs", 1, kMaxJobs, "20000", "trace size"),
          integer("seed", 0, kMaxUint64, "20181201", "generator seed"),
          text("out", "FILE", "", "write to FILE, not stdout"),
          trace_format}},
        {"convert", "IN OUT", "an input and an output trace file",
         cmdConvert, "re-encode a trace as CSV or paib binary",
         {trace_format}},
        {"characterize", "TRACE", "a trace file", cmdCharacterize,
         "workload constitution and cNode-level breakdown", {}},
        {"project", "TRACE", "a trace file", cmdProject,
         "project PS/Worker jobs onto another architecture",
         {text("target", "ARCH", "AllReduce-Local",
               "architecture to project onto")}},
        {"sweep", "TRACE", "a trace file", cmdSweep,
         "sweep hardware resources for one architecture's jobs",
         {text("arch", "ARCH", "PS/Worker", "jobs to sweep")}},
        {"advise", "", "no arguments", cmdAdvise,
         "rank the architectures for one job",
         {number("flops", 0, kInf, "", "FLOPs per step (required)"),
          number("mem", 0, kInf, "", "memory bytes per step (required)"),
          number("input", 0, kInf, "", "input bytes per step (required)"),
          number("comm", 0, kInf, "", "comm bytes per step (required)"),
          number("dense-weights", 0, kInf, "",
                 "dense weight bytes (default: --comm)"),
          number("embedding-weights", 0, kInf, "0",
                 "embedding weight bytes"),
          number("batch", kPositive, kInf, "256", "batch size"),
          integer("cnodes", 1, kMaxInt, "8", "cNodes"), gpu_mem}},
        {"diagnose", "MODEL", "a model name", cmdDiagnose,
         "profile a model on the testbed and name its bottleneck", {}},
        {"plan", "MODEL", "a model name", cmdPlan,
         "search the optimization space for a model\n"
         "Prices every feasible plan analytically and measures the best\n"
         "--top K on the testbed. --passes is a comma list of the\n"
         "dimensions mixed-precision, xla-fusion, subgraph-partition,\n"
         "channel-split, micro-batch and arch.",
         {choice("search", {"exhaustive", "beam"}, "exhaustive",
                 "search strategy"),
          integer("top", 0, kMaxInt, "12", "plans measured"),
          integer("beam", 1, kMaxInt, "6", "beam width"),
          text("passes", "LIST", "",
               "dimensions to search (default: all)"),
          gpu_mem,
          choice("format", {"table", "json"}, "table",
                 "output format")}},
        {"serve", "MODEL", "a model name", cmdServe,
         "simulate an inference fleet\n"
         "--autoscale slo scales on the trailing window's p99\n"
         "latency against --slo-ms instead of queue depth.",
         fleet},
        {"capacity", "MODEL", "a model name", cmdCapacity,
         "find the smallest fleet that holds a p99 SLO", fleet},
        {"schedule", "TRACE", "a trace file", cmdSchedule,
         "replay a trace through a cluster under a queueing policy\n"
         "Prediction-driven policies (spf, spf-preempt, gang, and\n"
         "backfill's EASY reservations) order the queue by predicted\n"
         "run time: the analytical model's (--predictor model) or one\n"
         "fit on a recorded job log (--history).",
         {integer("servers", 1, kMaxInt, "64", "cluster size"),
          number("nvlink-frac", 0, 1, "0.5", "NVLink server share"),
          integer("port", 0, 1, "0", "1 ports PS/Worker to AllReduce"),
          number("rate", -kInf, kInf, "150", "submissions per hour"),
          choice("policy", clustersim::policyNames(), "backfill",
                 "queueing policy"),
          choice("predictor", {"model", "quantile", "linear", "none"},
                 "model", "run-time predictor"),
          text("history", "JOBLOG", "", "job log to fit predictors on"),
          number("quantile", 0, 1, "0.5", "history quantile"),
          choice("placement", {"first-fit", "best-fit"}, "first-fit",
                 "server choice"),
          number("hetero", 0, 1, "0", "share of older-GPU servers"),
          integer("compare-fifo", 0, 1, "0", "1 adds a FIFO rerun")}},
        {"obs report", "RUN", "a run file", cmdObsReport,
         "summarize a --job-log or --metrics file", {}},
        {"obs diff", "RUN_A RUN_B", "two run files", cmdDiff<loadRun>,
         "compare two runs; exit 2 on a regression", {tolerance}},
        {"obs top", "JOBLOG", "a job-log file", cmdObsTop,
         "the slowest jobs of a job log",
         {integer("limit", 1, kMaxInt64, "10", "jobs to list")}},
        {"obs timeline", "TIMELINE", "a timeline CSV file",
         cmdObsTimeline, "per-series stats of a --timeline CSV",
         {text("plot", "SERIES", "", "draw one series")}},
        {"obs timeline diff", "TIMELINE_A TIMELINE_B",
         "two timeline CSV files", cmdDiff<loadTimelineScalars>,
         "compare two timelines; exit 2 on a regression", {tolerance}},
    };
    return table;
}

size_t
wordCount(const std::string &s)
{
    return s.empty() ? 0 : std::count(s.begin(), s.end(), ' ') + 1;
}

/** The command whose words start @p argv, longest match first. */
const Command *
findCommand(const std::vector<std::string> &argv)
{
    const Command *best = nullptr;
    std::string words;
    for (const std::string &w : argv) {
        words += (words.empty() ? "" : " ") + w;
        for (const Command &c : commands()) {
            if (c.name == words)
                best = &c;
        }
    }
    return best;
}

const Flag *
findFlag(const Command &cmd, const std::string &name)
{
    for (const auto *list : {&cmd.flags, &globalFlags()}) {
        for (const Flag &f : *list) {
            if (f.name == name)
                return &f;
        }
    }
    return nullptr;
}

std::string
join(const std::vector<std::string> &words, const char *sep)
{
    std::string s;
    for (const std::string &w : words)
        s += (s.empty() ? "" : sep) + w;
    return s;
}

/** "a or b" for two choices, "one of a, b, c" for more. */
std::string
oneOf(const std::vector<std::string> &choices)
{
    if (choices.size() == 2)
        return choices[0] + " or " + choices[1];
    return "one of " + join(choices, ", ");
}

/** What a numeric flag accepts, for its error message. */
std::string
domain(const Flag &f)
{
    auto fmt = [&](double x) {
        char buf[40];
        std::snprintf(buf, sizeof buf,
                      f.kind == Kind::Int ? "%.0f" : "%g", x);
        return std::string(buf);
    };
    if (f.kind == Kind::Int) {
        return (f.lo == 0 ? "a non-negative" : "a positive") +
               std::string(" integer up to ") + fmt(f.hi);
    }
    if (f.lo == kPositive)
        return "a positive, finite number";
    if (f.lo == -kInf)
        return "a finite number";
    if (f.hi == kInf)
        return "a number >= " + fmt(f.lo);
    return "a number in [" + fmt(f.lo) + ", " + fmt(f.hi) + "]";
}

/** Throw invalid_argument unless @p v is a valid value for @p f. */
void
checkValue(const Flag &f, const std::string &v)
{
    auto reject = [&](const std::string &what) {
        throw std::invalid_argument("flag --" + f.name + " expects " +
                                    what + ", got '" + v + "'");
    };
    switch (f.kind) {
        case Kind::OptionalValue:
            return;
        case Kind::Text:
            if (v.empty())
                reject("a value");
            return;
        case Kind::Choice:
            if (std::find(f.choices.begin(), f.choices.end(), v) ==
                f.choices.end())
                reject(oneOf(f.choices));
            return;
        case Kind::Int:
        case Kind::Number:
            break;
    }
    const char *s = v.c_str();
    char *end = nullptr;
    double x = std::strtod(s, &end);
    while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    if (end == s || *end != '\0')
        reject("a number");
    // NaN fails every comparison, and no range reaches an infinity.
    bool whole = f.kind == Kind::Number || x == std::floor(x);
    if (!whole || !std::isfinite(x) || x < f.lo || x > f.hi)
        reject(domain(f));
}

/**
 * Split @p argv (the words after the command's name) into flags and
 * positionals and check both against @p cmd's table. Flags take their
 * value as the next argument or inline (--name=value).
 */
Args
parseArgs(const Command &cmd, const std::vector<std::string> &argv)
{
    Args a;
    for (size_t i = 0; i < argv.size(); ++i) {
        if (argv[i].rfind("--", 0) != 0) {
            a.positional.push_back(argv[i]);
            continue;
        }
        std::string body = argv[i].substr(2);
        auto eq = body.find('=');
        std::string name = body.substr(0, eq);
        if (name == "shards")
            throw std::invalid_argument("--shards was removed: the event "
                                        "engine is a single queue");
        const Flag *f = findFlag(cmd, name);
        if (!f)
            throw std::invalid_argument("unknown flag --" + name +
                                        " for " + cmd.name);
        std::string &value = a.flags[name];
        if (eq != std::string::npos)
            value = body.substr(eq + 1);
        else if (f->kind == Kind::OptionalValue)
            value.clear();
        else if (i + 1 < argv.size())
            value = argv[++i];
        else
            throw std::invalid_argument("flag --" + name +
                                        " expects a value");
        checkValue(*f, value);
    }
    size_t n = a.positional.size();
    if (n != wordCount(cmd.positionals)) {
        throw std::invalid_argument(
            cmd.name + " expects " + cmd.expects + ", got " +
            std::to_string(n) + " argument" + (n == 1 ? "" : "s"));
    }
    for (const auto *list : {&cmd.flags, &globalFlags()}) {
        for (const Flag &f : *list) {
            if (!f.def.empty())
                a.flags.emplace(f.name, f.def);
        }
    }
    return a;
}

/** @p left, then @p right from column 28 (on its own line if needed). */
void
printRow(std::ostream &out, const std::string &left,
         const std::string &right)
{
    constexpr size_t kColumn = 28;
    out << left;
    if (left.size() + 2 > kColumn)
        out << "\n" << std::string(kColumn, ' ');
    else
        out << std::string(kColumn - left.size(), ' ');
    out << right << "\n";
}

void
printFlags(std::ostream &out, const std::vector<Flag> &flags)
{
    for (const Flag &f : flags) {
        std::string left = "  --" + f.name;
        if (f.kind == Kind::OptionalValue)
            left += "[=" + f.metavar + "]";
        else if (f.kind == Kind::Choice)
            left += " " + join(f.choices, "|");
        else
            left += " " + f.metavar;
        printRow(out, left,
                 f.help + (f.def.empty() ? "" : " (default " + f.def +
                                                    ")"));
    }
}

std::string
usageLine(const Command &cmd)
{
    return cmd.positionals.empty() ? cmd.name
                                   : cmd.name + " " + cmd.positionals;
}

void
printUsage(std::ostream &out)
{
    out << "paichar -- Alibaba-PAI training-workload characterization "
           "(IISWC'19 reproduction)\n"
           "\n"
           "usage: paichar COMMAND [ARGS] [--flag VALUE ...]\n"
           "\n"
           "commands:\n";
    for (const Command &c : commands())
        printRow(out, "  " + usageLine(c),
                 c.help.substr(0, c.help.find('\n')));
    out << "\nglobal flags (every command; they never touch stdout):\n";
    printFlags(out, globalFlags());
    out << "\n"
           "Run 'paichar COMMAND --help' for a command's flags. Flags "
           "may be written\n--flag VALUE or --flag=VALUE; unknown "
           "flags are rejected.\n"
           "\n"
           "Quantities are base units (FLOPs, bytes); ARCH uses the "
           "paper names\n(\"PS/Worker\", \"AllReduce-Local\", "
           "\"AllReduce-Cluster\", \"PEARL\", ...); MODEL is\nresnet50, "
           "nmt, bert, speech, multi-interests or gcn. TRACE files "
           "may be\nCSV or paib binary; the format is auto-detected. "
           "Outputs are identical\nfor every --threads N. obs diff "
           "and obs timeline diff exit 2 on a\nregression.\n";
}

void
printHelp(const Command &cmd, std::ostream &out)
{
    out << "usage: paichar " << usageLine(cmd) << " [flags]\n\n"
        << cmd.help << "\n";
    if (!cmd.flags.empty()) {
        out << "\nflags:\n";
        printFlags(out, cmd.flags);
    }
    out << "\nEvery command also takes the global flags of "
           "'paichar --help'.\n";
}

/**
 * Write @p text to @p path, creating missing parent directories and
 * reporting failure (with the OS reason) on @p err.
 */
bool
writeTextFile(const std::string &path, const std::string &text,
              std::ostream &err)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            err << "error: cannot create directory '"
                << parent.string() << "': " << ec.message() << "\n";
            return false;
        }
    }
    errno = 0;
    std::ofstream f(path, std::ios::binary);
    f << text;
    f.flush();
    if (!f) {
        err << "error: cannot write '" << path << "'";
        if (errno != 0)
            err << ": " << std::strerror(errno);
        err << "\n";
        return false;
    }
    return true;
}

/** Read @p path whole, reporting failure on @p err. */
std::optional<std::string>
readTextFile(const std::string &path, std::ostream &err)
{
    errno = 0;
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        err << "error: cannot read '" << path << "'";
        if (errno != 0)
            err << ": " << std::strerror(errno);
        err << "\n";
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    if (f.bad()) {
        err << "error: cannot read '" << path << "'\n";
        return std::nullopt;
    }
    return std::move(buf).str();
}

/**
 * Run @p body, reporting what the libraries throw on bad input as
 * `error: ...` with exit 1 instead of letting it end the process.
 */
template <typename Body>
int
guarded(std::ostream &err, Body &&body)
{
    try {
        return body();
    } catch (const std::invalid_argument &e) {
        err << "error: " << e.what() << "\n";
    } catch (const std::length_error &e) {
        err << "error: size too large (" << e.what() << ")\n";
    } catch (const std::bad_alloc &) {
        err << "error: out of memory\n";
    }
    return 1;
}

/** Run @p cmd under the observability its global flags ask for. */
int
runObserved(const Command &cmd, const Args &args, std::ostream &out,
            std::ostream &err)
{
    if (args.flag("threads"))
        runtime::setThreadCount(static_cast<int>(args.num("threads")));
    auto metrics_dest = args.flag("metrics");
    auto profile_path = args.flag("profile");
    auto job_log_path = args.flag("job-log");
    auto job_trace_path = args.flag("job-trace");
    auto timeline_path = args.flag("timeline");
    if (profile_path)
        obs::startProfiling();
    if (job_log_path || job_trace_path)
        obs::startJobLog();
    if (timeline_path)
        obs::startTimeline(args.num("timeline-interval"));

    int rc;
    {
        // The root span: everything a subcommand does nests under
        // cli.<cmd> in the exported trace.
        obs::Span span(obs::internName(
            "cli." + cmd.name.substr(0, cmd.name.find(' '))));
        rc = guarded(err, [&] { return cmd.handler(args, out, err); });
    }

    // Exporters write to files or err only -- stdout stays
    // byte-identical with and without observability flags.
    auto write = [&](const std::string &path, const std::string &text) {
        if (!writeTextFile(path, text, err) && rc == 0)
            rc = 1;
    };
    if (profile_path) {
        obs::stopProfiling();
        write(*profile_path, obs::profileToJson());
    }
    if (timeline_path) {
        obs::stopTimeline();
        // Default format follows the extension, like generate's
        // --out (.json = JSON, anything else = CSV).
        bool json_ext =
            timeline_path->size() >= 5 &&
            timeline_path->compare(timeline_path->size() - 5, 5,
                                   ".json") == 0;
        bool json = args.flag("timeline-format")
                        .value_or(json_ext ? "json" : "csv") == "json";
        write(*timeline_path, json ? obs::renderTimelineJson()
                                   : obs::renderTimelineCsv());
    }
    if (job_log_path || job_trace_path) {
        obs::stopJobLog();
        auto records = obs::collectJobLog();
        if (job_log_path)
            write(*job_log_path, obs::renderJobLogJsonl(records));
        if (job_trace_path)
            write(*job_trace_path, obs::renderJobChromeTrace(records));
    }
    if (metrics_dest) {
        std::string text = *args.flag("metrics-format") == "openmetrics"
                               ? obs::renderMetricsOpenMetrics()
                               : obs::renderMetricsSummary();
        if (metrics_dest->empty())
            err << text;
        else
            write(*metrics_dest, text);
    }
    return rc;
}

} // namespace

int
run(const std::vector<std::string> &argv, std::ostream &out,
    std::ostream &err)
{
    if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
        printUsage(out);
        return argv.empty() ? 1 : 0;
    }
    const Command *cmd = findCommand(argv);
    if (!cmd) {
        err << "error: unknown command '" << argv[0] << "'\n";
        printUsage(err);
        return 1;
    }
    std::vector<std::string> rest(argv.begin() + wordCount(cmd->name),
                                  argv.end());
    if (std::find(rest.begin(), rest.end(), "--help") != rest.end()) {
        printHelp(*cmd, out);
        return 0;
    }
    // Nothing has started yet when argv is rejected; runObserved
    // guards the command itself so its exporters still run.
    return guarded(err, [&] {
        return runObserved(*cmd, parseArgs(*cmd, rest), out, err);
    });
}

} // namespace paichar::cli
