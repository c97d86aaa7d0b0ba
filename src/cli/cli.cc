#include "cli.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
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
#include "inference/serving_sim.h"
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

/** A malformed flag value; caught in run() and reported on err. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Parsed --flag value pairs plus positional arguments. */
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

    double
    numFlag(const std::string &name, double fallback) const
    {
        auto v = flag(name);
        if (!v)
            return fallback;
        const char *s = v->c_str();
        char *end = nullptr;
        double parsed = std::strtod(s, &end);
        while (end && *end != '\0' &&
               std::isspace(static_cast<unsigned char>(*end)))
            ++end;
        if (end == s || *end != '\0') {
            throw UsageError("error: flag --" + name +
                             " expects a number, got '" + *v + "'");
        }
        return parsed;
    }

    /**
     * A flag restricted to an enumerated value set. Unknown values
     * are a UsageError listing every valid spelling, so typos fail
     * loudly instead of silently falling back.
     */
    std::string
    choiceFlag(const std::string &name, const std::string &fallback,
               const std::vector<std::string> &valid) const
    {
        auto v = flag(name);
        std::string value = v ? *v : fallback;
        if (std::find(valid.begin(), valid.end(), value) ==
            valid.end()) {
            std::string list;
            for (const std::string &s : valid) {
                if (!list.empty())
                    list += ", ";
                list += s;
            }
            throw UsageError("error: flag --" + name +
                             " expects one of " + list + ", got '" +
                             value + "'");
        }
        return value;
    }
};

/** Flags that may appear bare, without a value. */
bool
isValuelessFlag(const std::string &name)
{
    // Bare --metrics sends the summary to stderr; --metrics=FILE
    // redirects it.
    return name == "metrics";
}

/**
 * Split args into flags and positionals. Flags take their value
 * either as the next argument (--name value) or inline
 * (--name=value); valueless flags record an empty value.
 */
std::optional<Args>
parseArgs(const std::vector<std::string> &raw, std::ostream &err)
{
    Args a;
    for (size_t i = 0; i < raw.size(); ++i) {
        if (raw[i].rfind("--", 0) == 0) {
            std::string body = raw[i].substr(2);
            auto eq = body.find('=');
            if (eq != std::string::npos) {
                a.flags[body.substr(0, eq)] = body.substr(eq + 1);
            } else if (isValuelessFlag(body)) {
                a.flags.emplace(body, "");
            } else if (i + 1 >= raw.size()) {
                err << "error: flag " << raw[i]
                    << " expects a value\n";
                return std::nullopt;
            } else {
                a.flags[body] = raw[i + 1];
                ++i;
            }
        } else {
            a.positional.push_back(raw[i]);
        }
    }
    return a;
}

void
printUsage(std::ostream &out)
{
    out << "paichar -- Alibaba-PAI training-workload characterization "
           "(IISWC'19 reproduction)\n"
           "\n"
           "usage:\n"
           "  paichar generate --jobs N [--seed S] [--out FILE]\n"
           "                   [--trace-format csv|bin]\n"
           "  paichar convert IN OUT [--trace-format csv|bin]\n"
           "  paichar characterize TRACE\n"
           "  paichar project TRACE [--target ARCH]\n"
           "  paichar sweep TRACE [--arch ARCH]\n"
           "  paichar advise --flops F --mem M --input I --comm C\n"
           "                 [--dense-weights D] "
           "[--embedding-weights E]\n"
           "                 [--cnodes N] [--gpu-mem BYTES]\n"
           "  paichar diagnose MODEL\n"
           "  paichar plan MODEL [--search exhaustive|beam] "
           "[--top K] [--beam W]\n"
           "               [--passes LIST] [--gpu-mem BYTES] "
           "[--format table|json]\n"
           "  paichar serve MODEL [--qps Q] [--max-batch B] "
           "[--slo-ms MS]\n"
           "                [--servers N] [--routing round-robin|"
           "least-queue|p2c]\n"
           "                [--batching greedy|continuous]\n"
           "                [--arrival constant|diurnal|bursty]\n"
           "                [--admit DEPTH] [--autoscale "
           "0|1|queue|slo] [--requests N]\n"
           "  paichar capacity MODEL --qps Q [--slo-ms MS] "
           "[--max-servers N]\n"
           "                   [--max-batch B] [--routing R] "
           "[--batching B] [--arrival K]\n"
           "  paichar schedule TRACE [--servers N] "
           "[--nvlink-frac F] [--port 0|1] [--rate R]\n"
           "                   [--policy fifo|backfill|spf|"
           "spf-preempt|gang]\n"
           "                   [--predictor model|quantile|linear|"
           "none] [--history JOBLOG]\n"
           "                   [--quantile Q] [--placement "
           "first-fit|best-fit]\n"
           "                   [--hetero F] [--compare-fifo 0|1]\n"
           "  paichar obs report RUN\n"
           "  paichar obs diff A B [--tolerance PCT]\n"
           "  paichar obs top JOBLOG [--limit N]\n"
           "  paichar obs timeline TIMELINE [--plot SERIES]\n"
           "  paichar obs timeline diff A B [--tolerance PCT]\n"
           "\n"
           "Quantities are base units (FLOPs, bytes); ARCH uses the "
           "paper names\n(\"PS/Worker\", \"AllReduce-Local\", "
           "\"AllReduce-Cluster\", \"PEARL\", ...).\n"
           "\n"
           "plan searches the optimization space (mixed precision, "
           "XLA fusion,\narchitecture, sub-graph / channel "
           "partitioning, micro-batching):\nevery feasible candidate "
           "is priced analytically, the best --top K are\nmeasured "
           "on the testbed. --passes restricts the dimensions "
           "(comma list\nof mixed-precision, xla-fusion, "
           "subgraph-partition, channel-split,\nmicro-batch, "
           "arch).\n"
           "\n"
           "schedule replays TRACE through a finite cluster under a "
           "queueing policy.\nPrediction-driven policies (spf, "
           "spf-preempt, gang, and backfill's EASY\nreservations) "
           "order the queue by predicted run time: the analytical\n"
           "model's own (--predictor model) or a predictor fit on a "
           "recorded job\nlog (--predictor quantile|linear --history "
           "LOG). --hetero F populates a\nfraction of servers with "
           "older, slower GPU generations; --compare-fifo 1\nre-runs "
           "the identical submissions under FIFO and prints the "
           "deltas.\n"
           "\n"
           "serve simulates an inference fleet (open-loop arrivals, "
           "pluggable\nrouting, greedy or continuous batching, "
           "optional admission control and\na reactive autoscaler); "
           "capacity bisects the smallest fleet that holds\na p99 "
           "SLO at the offered load. Both are byte-identical for "
           "every\n--threads setting. --autoscale slo "
           "scales on the trailing\nwindow's p99 latency against "
           "--slo-ms instead of queue depth.\n"
           "\n"
           "TRACE files may be CSV or paib binary; the format is "
           "auto-detected.\ngenerate and convert infer the output "
           "format from the --out extension\n(.paib/.bin = binary) "
           "unless --trace-format is given.\n"
           "\n"
           "Every command accepts --threads N (default: "
           "$PAICHAR_THREADS, else all\nhardware threads; 1 = serial). "
           "Outputs are identical for every N.\n"
           "\n"
           "Observability (never touches stdout):\n"
           "  --metrics[=FILE]  write the metric summary to FILE "
           "(default: stderr)\n"
           "  --metrics-format text|openmetrics\n"
           "                    metric summary format (default: "
           "text)\n"
           "  --profile FILE    write Chrome trace-event JSON of the "
           "run to FILE\n                    (load in Perfetto or "
           "chrome://tracing)\n"
           "  --job-log FILE    write one schema-v1 JSONL record per "
           "simulated job\n                    (schedule, diagnose; "
           "feed to paichar obs)\n"
           "  --job-trace FILE  write a per-worker Chrome trace of "
           "the job timeline\n"
           "  --timeline FILE   write sim-time series probes "
           "(queue depth, fleet size,\n                    arrival/"
           "preemption rates, windowed latency p50/p99)\n"
           "                    sampled every --timeline-interval "
           "simulated seconds\n                    (default 10; "
           "format csv, or json by --timeline-format /\n"
           "                    a .json extension)\n"
           "\n"
           "obs RUN files are --job-log JSONL or --metrics dumps; "
           "obs diff exits 2\nwhen a shared scalar moves past "
           "--tolerance (default 10%). obs timeline\nreads "
           "--timeline CSV: per-series stats plus a sparkline, "
           "--plot SERIES\ndraws one series full-size, and obs "
           "timeline diff gates per-series\nmean/max/last scalars "
           "like obs diff.\n"
           "\n"
           "Flags may be written --flag VALUE or --flag=VALUE.\n";
}

std::optional<std::vector<TrainingJob>>
loadTrace(const Args &args, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "error: expected a trace file\n";
        return std::nullopt;
    }
    // Format (CSV or paib binary) is auto-detected by magic; CSV
    // bodies parse in parallel on the global pool.
    auto r = trace::readTraceFile(args.positional[1],
                                  runtime::globalPool());
    if (!r.ok) {
        err << "error: " << r.error << "\n";
        return std::nullopt;
    }
    return std::move(r.jobs);
}

/**
 * Like loadTrace, but keeps `paib` traces in their mmap'd columnar
 * form: jobs decode on access instead of being materialized up
 * front. Rejects exactly the inputs loadTrace rejects, with the
 * same error text.
 */
std::optional<workload::JobStore>
loadTraceStore(const Args &args, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "error: expected a trace file\n";
        return std::nullopt;
    }
    auto r = trace::readTraceStore(args.positional[1],
                                   runtime::globalPool());
    if (!r.ok) {
        err << "error: " << r.error << "\n";
        return std::nullopt;
    }
    return std::move(r.store);
}

/**
 * The --trace-format flag ("csv" | "bin"). @p fallback covers the
 * unset case: cmdGenerate defaults to CSV, cmdConvert infers from
 * the output file extension.
 */
std::optional<trace::TraceFormat>
traceFormatFlag(const Args &args, trace::TraceFormat fallback,
                std::ostream &err)
{
    auto v = args.flag("trace-format");
    if (!v)
        return fallback;
    auto f = trace::traceFormatFromString(*v);
    if (!f) {
        err << "error: --trace-format expects csv or bin, got '"
            << *v << "'\n";
        return std::nullopt;
    }
    return f;
}

/** bin for .paib/.bin output paths, csv otherwise. */
trace::TraceFormat
formatFromExtension(const std::string &path)
{
    auto dot = path.rfind('.');
    std::string ext = dot == std::string::npos ? ""
                                               : path.substr(dot);
    return (ext == ".paib" || ext == ".bin")
               ? trace::TraceFormat::Binary
               : trace::TraceFormat::Csv;
}

int
cmdGenerate(const Args &args, std::ostream &out, std::ostream &err)
{
    // Checked before the cast: a negative count would wrap to a
    // vector length the generator cannot allocate.
    double jobs_flag = args.numFlag("jobs", 20000);
    if (!(jobs_flag >= 1) || jobs_flag != std::floor(jobs_flag) ||
        jobs_flag >
            static_cast<double>(std::vector<TrainingJob>().max_size())) {
        err << "error: --jobs expects a positive integer\n";
        return 1;
    }
    auto jobs_n = static_cast<size_t>(jobs_flag);
    auto seed = static_cast<uint64_t>(args.numFlag("seed", 20181201));
    auto out_file = args.flag("out");
    // Like convert: the --out extension picks the format (.paib/.bin
    // = binary), --trace-format overrides.
    auto format = traceFormatFlag(
        args,
        out_file ? formatFromExtension(*out_file)
                 : trace::TraceFormat::Csv,
        err);
    if (!format)
        return 1;
    trace::SyntheticClusterGenerator gen(seed);
    auto jobs = gen.generate(jobs_n, runtime::globalPool());
    if (out_file) {
        if (!trace::writeTraceFile(*out_file, jobs, *format)) {
            err << "error: cannot write '" << *out_file << "'\n";
            return 1;
        }
        out << "wrote " << jobs.size() << " jobs (seed " << seed
            << ", " << trace::toString(*format) << ") to "
            << *out_file << "\n";
    } else if (*format == trace::TraceFormat::Binary) {
        err << "error: --trace-format bin requires --out FILE\n";
        return 1;
    } else {
        out << trace::toCsv(jobs);
    }
    return 0;
}

int
cmdConvert(const Args &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() < 3) {
        err << "error: convert expects an input and an output trace "
               "file\n";
        return 1;
    }
    const std::string &in_path = args.positional[1];
    const std::string &out_path = args.positional[2];
    auto format =
        traceFormatFlag(args, formatFromExtension(out_path), err);
    if (!format)
        return 1;

    auto r = trace::readTraceFile(in_path, runtime::globalPool());
    if (!r.ok) {
        err << "error: " << r.error << "\n";
        return 1;
    }
    if (!trace::writeTraceFile(out_path, r.jobs, *format)) {
        err << "error: cannot write '" << out_path << "'\n";
        return 1;
    }
    out << "converted " << r.jobs.size() << " jobs: " << in_path
        << " -> " << out_path << " ("
        << trace::toString(*format) << ")\n";
    return 0;
}

int
cmdCharacterize(const Args &args, std::ostream &out, std::ostream &err)
{
    auto jobs = loadTraceStore(args, err);
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
    auto jobs = loadTrace(args, err);
    if (!jobs)
        return 1;
    std::string target_name =
        args.flag("target").value_or("AllReduce-Local");
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
    auto jobs = loadTrace(args, err);
    if (!jobs)
        return 1;
    std::string arch_name = args.flag("arch").value_or("PS/Worker");
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
    job.num_cnodes = static_cast<int>(args.numFlag("cnodes", 8));
    job.features.batch_size = args.numFlag("batch", 256);
    job.features.flop_count = args.numFlag("flops", -1);
    job.features.mem_access_bytes = args.numFlag("mem", -1);
    job.features.input_bytes = args.numFlag("input", -1);
    job.features.comm_bytes = args.numFlag("comm", -1);
    job.features.dense_weight_bytes =
        args.numFlag("dense-weights", job.features.comm_bytes);
    job.features.embedding_weight_bytes =
        args.numFlag("embedding-weights", 0.0);
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

    double gpu_mem = args.numFlag("gpu-mem", 32e9);
    core::AnalyticalModel model(hw::v100Testbed());
    core::ArchitectureAdvisor advisor(model, gpu_mem);
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
    if (args.positional.size() < 2) {
        err << "error: diagnose expects a model name\n";
        return 1;
    }
    auto model = findModel(args.positional[1], err);
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
    if (args.positional.size() < 2) {
        err << "error: plan expects a model name\n";
        return 1;
    }
    auto model = findModel(args.positional[1], err);
    if (!model)
        return 1;

    opt::PlannerConfig cfg;
    std::string search =
        args.flag("search").value_or("exhaustive");
    if (search == "beam") {
        cfg.search = opt::SearchMode::Beam;
    } else if (search != "exhaustive") {
        err << "error: --search expects exhaustive or beam, got '"
            << search << "'\n";
        return 1;
    }
    double top = args.numFlag("top", cfg.top_k);
    if (top < 0 || top != std::floor(top)) {
        err << "error: --top expects a non-negative integer\n";
        return 1;
    }
    cfg.top_k = static_cast<int>(top);
    double beam = args.numFlag("beam", cfg.beam_width);
    if (beam < 1 || beam != std::floor(beam)) {
        err << "error: --beam expects a positive integer\n";
        return 1;
    }
    cfg.beam_width = static_cast<int>(beam);
    cfg.gpu_memory_bytes =
        args.numFlag("gpu-mem", cfg.gpu_memory_bytes);
    if (cfg.gpu_memory_bytes <= 0.0) {
        err << "error: --gpu-mem expects a positive byte count\n";
        return 1;
    }
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
    std::string format = args.flag("format").value_or("table");
    if (format != "table" && format != "json") {
        err << "error: --format expects table or json, got '"
            << format << "'\n";
        return 1;
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

    if (format == "json") {
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

/**
 * Parse the fleet flags (--servers, --routing, --batching,
 * --arrival, --admit, --autoscale, --max-batch, --qps, --slo-ms,
 * --requests) for @p w. Throws UsageError on malformed values.
 */
FleetArgs
parseFleetArgs(const Args &args, const inference::InferenceWorkload &w)
{
    FleetArgs f;
    f.cfg.num_servers = static_cast<int>(args.numFlag("servers", 1));
    f.cfg.max_batch = static_cast<int>(args.numFlag("max-batch", 8));
    f.cfg.routing = *inference::routingFromString(args.choiceFlag(
        "routing", "round-robin",
        {"round-robin", "least-queue", "p2c"}));
    f.cfg.batching = *inference::batchingFromString(
        args.choiceFlag("batching", "greedy",
                        {"greedy", "continuous"}));
    f.cfg.admit_queue = static_cast<int>(args.numFlag("admit", 0));
    // "1" and "queue" are the original depth-driven controller;
    // "slo" reacts to the trailing-window p99 instead (the latency
    // target is fixed up below, once --slo-ms is known).
    std::string autoscale = args.choiceFlag(
        "autoscale", "0", {"0", "1", "queue", "slo"});
    if (autoscale != "0") {
        f.cfg.autoscaler.enabled = true;
        f.cfg.autoscaler.max_servers = std::max(
            f.cfg.num_servers,
            static_cast<int>(args.numFlag("max-servers", 64)));
        if (autoscale == "slo") {
            f.cfg.autoscaler.mode =
                inference::AutoscalerConfig::Mode::SloLatency;
        }
    }
    f.arrival.kind = *stats::arrivalKindFromString(args.choiceFlag(
        "arrival", "constant", {"constant", "diurnal", "bursty"}));

    f.solo = w.serviceTime(1, f.cfg.server.gpu,
                           f.cfg.launch_overhead) +
             w.inputTime(1, f.cfg.server.pcie_bandwidth);
    f.arrival.qps =
        args.numFlag("qps", 0.5 * f.cfg.num_servers / f.solo);
    f.slo = args.numFlag("slo-ms", 5.0 * f.solo * 1e3) * 1e-3;
    if (!(f.slo > 0.0) || !std::isfinite(f.slo))
        throw UsageError("error: flag --slo-ms expects a positive, "
                         "finite number");
    f.cfg.autoscaler.slo_latency = f.slo;
    f.requests =
        static_cast<int64_t>(args.numFlag("requests", 20000));
    return f;
}

int
cmdServe(const Args &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "error: serve expects a model name\n";
        return 1;
    }
    auto model = findModel(args.positional[1], err);
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
    // The single-server SLO search (the seed simulator's headline
    // number) still anchors the default invocation.
    if (f.cfg.num_servers == 1 && !f.cfg.autoscaler.enabled &&
        f.cfg.batching == inference::Batching::Greedy &&
        f.arrival.kind == stats::ArrivalKind::Constant &&
        f.cfg.admit_queue == 0) {
        inference::ServingConfig scfg;
        scfg.max_batch = f.cfg.max_batch;
        inference::ServingSimulator sim(scfg);
        double cap = sim.maxQpsUnderSlo(w, f.slo, 50.0 / f.solo,
                                        20190701);
        out << "  max QPS under p99 <= " << stats::fmtSeconds(f.slo)
            << ": " << stats::fmt(cap, 0) << "\n";
    }
    return 0;
}

int
cmdCapacity(const Args &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "error: capacity expects a model name\n";
        return 1;
    }
    auto model = findModel(args.positional[1], err);
    if (!model)
        return 1;
    auto w = inference::InferenceWorkload::fromTraining(*model);
    FleetArgs f = parseFleetArgs(args, w);
    int max_servers =
        static_cast<int>(args.numFlag("max-servers", 64));

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

int
cmdSchedule(const Args &args, std::ostream &out, std::ostream &err)
{
    clustersim::SchedulerConfig cfg;
    cfg.num_servers =
        static_cast<int>(args.numFlag("servers", 64));
    cfg.nvlink_fraction = args.numFlag("nvlink-frac", 0.5);
    cfg.port_ps_to_allreduce = args.numFlag("port", 0) != 0;
    double rate = args.numFlag("rate", 150.0);

    std::string policy_name = args.choiceFlag(
        "policy", "backfill", clustersim::policyNames());
    cfg.policy = *clustersim::policyFromString(policy_name);
    std::string predictor_name = args.choiceFlag(
        "predictor", "model", {"model", "quantile", "linear", "none"});
    std::string placement_name = args.choiceFlag(
        "placement", "first-fit", {"first-fit", "best-fit"});
    cfg.placement = placement_name == "best-fit"
                        ? clustersim::PlacementStrategy::BestFit
                        : clustersim::PlacementStrategy::FirstFit;
    double quantile = args.numFlag("quantile", 0.5);
    if (quantile < 0.0 || quantile > 1.0)
        throw UsageError("error: flag --quantile expects a value "
                         "in [0, 1]");
    cfg.old_gen_fraction = args.numFlag("hetero", 0.0);
    if (cfg.old_gen_fraction < 0.0 || cfg.old_gen_fraction > 1.0)
        throw UsageError("error: flag --hetero expects a fraction "
                         "in [0, 1]");
    bool compare_fifo = args.numFlag("compare-fifo", 0) != 0;

    // Prediction-driven policies have nothing to order the queue by
    // when predictions are turned off entirely.
    bool prediction_driven = cfg.policy == clustersim::Policy::Spf ||
                             cfg.policy ==
                                 clustersim::Policy::SpfPreempt ||
                             cfg.policy == clustersim::Policy::Gang;
    if (predictor_name == "none" && prediction_driven) {
        throw UsageError("error: --policy " + policy_name +
                         " is prediction-driven and cannot run with "
                         "--predictor none (use model, quantile or "
                         "linear)");
    }

    // History-trained predictors fit on a recorded --job-log stream.
    std::vector<obs::JobRecord> history;
    if (predictor_name == "quantile" || predictor_name == "linear") {
        auto path = args.flag("history");
        if (!path) {
            throw UsageError("error: --predictor " + predictor_name +
                             " requires --history JOBLOG (a recorded "
                             "--job-log file to fit on)");
        }
        auto text = readTextFile(*path, err);
        if (!text)
            return 1;
        auto r = obs::loadRunData(*text);
        if (!r.ok) {
            err << "error: " << *path << ": " << r.error << "\n";
            return 1;
        }
        if (r.data.kind != obs::RunData::Kind::JobLog) {
            err << "error: --history requires a job log "
                   "(--job-log output)\n";
            return 1;
        }
        history = std::move(r.data.records);
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

    auto store = loadTraceStore(args, err);
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

int
cmdObs(const Args &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() < 2) {
        err << "error: obs expects a verb: report | diff | top | "
               "timeline\n";
        return 1;
    }
    const std::string &verb = args.positional[1];

    auto load =
        [&](const std::string &path) -> std::optional<obs::RunData> {
        auto text = readTextFile(path, err);
        if (!text)
            return std::nullopt;
        auto r = obs::loadRunData(*text);
        if (!r.ok) {
            err << "error: " << path << ": " << r.error << "\n";
            return std::nullopt;
        }
        return std::move(r.data);
    };

    if (verb == "report") {
        if (args.positional.size() < 3) {
            err << "error: obs report expects a run file\n";
            return 1;
        }
        auto run = load(args.positional[2]);
        if (!run)
            return 1;
        out << obs::reportText(*run);
        return 0;
    }
    if (verb == "top") {
        if (args.positional.size() < 3) {
            err << "error: obs top expects a job-log file\n";
            return 1;
        }
        auto run = load(args.positional[2]);
        if (!run)
            return 1;
        if (run->kind != obs::RunData::Kind::JobLog) {
            err << "error: obs top requires a job log "
                   "(--job-log output)\n";
            return 1;
        }
        double limit = args.numFlag("limit", 10);
        if (limit < 1 || limit != std::floor(limit)) {
            err << "error: --limit expects a positive integer\n";
            return 1;
        }
        out << obs::topText(*run, static_cast<size_t>(limit));
        return 0;
    }
    if (verb == "diff") {
        if (args.positional.size() < 4) {
            err << "error: obs diff expects two run files\n";
            return 1;
        }
        auto a = load(args.positional[2]);
        if (!a)
            return 1;
        auto b = load(args.positional[3]);
        if (!b)
            return 1;
        double tolerance = args.numFlag("tolerance", 10.0);
        if (tolerance < 0.0) {
            err << "error: --tolerance expects a percentage >= 0\n";
            return 1;
        }
        auto diff = obs::diffRuns(*a, *b, tolerance);
        out << obs::renderDiff(diff);
        // Exit 2 on regression so scripts can tell "worse than the
        // baseline" from "could not run" (exit 1).
        return diff.regression ? 2 : 0;
    }
    if (verb == "timeline") {
        auto loadTl = [&](const std::string &path)
            -> std::optional<obs::TimelineData> {
            auto text = readTextFile(path, err);
            if (!text)
                return std::nullopt;
            auto d = obs::loadTimelineCsv(*text);
            if (!d.ok) {
                err << "error: " << path << ": " << d.error << "\n";
                return std::nullopt;
            }
            return std::move(d);
        };

        // `obs timeline diff A B` compares per-series scalars with
        // the same regression semantics (and exit code 2) as
        // `obs diff` -- the CI perf gate reuses it unchanged.
        if (args.positional.size() >= 3 &&
            args.positional[2] == "diff") {
            if (args.positional.size() < 5) {
                err << "error: obs timeline diff expects two "
                       "timeline CSV files\n";
                return 1;
            }
            auto a = loadTl(args.positional[3]);
            if (!a)
                return 1;
            auto b = loadTl(args.positional[4]);
            if (!b)
                return 1;
            double tolerance = args.numFlag("tolerance", 10.0);
            if (tolerance < 0.0) {
                err << "error: --tolerance expects a percentage >= "
                       "0\n";
                return 1;
            }
            auto diff =
                obs::diffRuns(obs::timelineScalars(*a),
                              obs::timelineScalars(*b), tolerance);
            out << obs::renderDiff(diff);
            return diff.regression ? 2 : 0;
        }

        if (args.positional.size() < 3) {
            err << "error: obs timeline expects a timeline CSV "
                   "file\n";
            return 1;
        }
        auto data = loadTl(args.positional[2]);
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
    err << "error: unknown obs verb '" << verb
        << "' (report | diff | top | timeline)\n";
    return 1;
}

/** Dispatch to the subcommand; nullopt for an unknown command. */
std::optional<int>
dispatch(const std::string &cmd, const Args &args, std::ostream &out,
         std::ostream &err)
{
    if (cmd == "generate")
        return cmdGenerate(args, out, err);
    if (cmd == "convert")
        return cmdConvert(args, out, err);
    if (cmd == "characterize")
        return cmdCharacterize(args, out, err);
    if (cmd == "project")
        return cmdProject(args, out, err);
    if (cmd == "sweep")
        return cmdSweep(args, out, err);
    if (cmd == "advise")
        return cmdAdvise(args, out, err);
    if (cmd == "diagnose")
        return cmdDiagnose(args, out, err);
    if (cmd == "plan")
        return cmdPlan(args, out, err);
    if (cmd == "serve" || cmd == "capacity" || cmd == "schedule") {
        // The fleet layer and the cluster scheduler validate by
        // throwing invalid_argument, and their bad values (qps,
        // requests, max-batch, servers, rate, ...) come straight from
        // the flags: report them as CLI errors instead of letting the
        // exception abort the process.
        try {
            if (cmd == "serve")
                return cmdServe(args, out, err);
            if (cmd == "capacity")
                return cmdCapacity(args, out, err);
            return cmdSchedule(args, out, err);
        } catch (const std::invalid_argument &e) {
            err << "error: " << e.what() << "\n";
            return 1;
        }
    }
    if (cmd == "obs")
        return cmdObs(args, out, err);
    return std::nullopt;
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

} // namespace

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        printUsage(out);
        return args.empty() ? 1 : 0;
    }
    auto parsed = parseArgs(args, err);
    if (!parsed)
        return 1;

    const std::string &cmd = args[0];
    try {
        if (parsed->flag("threads")) {
            double t = parsed->numFlag("threads", 0);
            if (t < 1 || t != std::floor(t)) {
                err << "error: --threads expects a positive "
                       "integer\n";
                return 1;
            }
            runtime::setThreadCount(static_cast<int>(t));
        }
        if (parsed->flag("shards")) {
            err << "error: --shards was removed: the event engine is "
                   "a single queue\n";
            return 1;
        }

        auto metrics_dest = parsed->flag("metrics");
        auto profile_path = parsed->flag("profile");
        if (profile_path && profile_path->empty()) {
            err << "error: --profile expects an output file\n";
            return 1;
        }
        std::string metrics_format =
            parsed->flag("metrics-format").value_or("text");
        if (metrics_format != "text" &&
            metrics_format != "openmetrics") {
            err << "error: --metrics-format expects text or "
                   "openmetrics, got '"
                << metrics_format << "'\n";
            return 1;
        }
        auto job_log_path = parsed->flag("job-log");
        auto job_trace_path = parsed->flag("job-trace");
        if ((job_log_path && job_log_path->empty()) ||
            (job_trace_path && job_trace_path->empty())) {
            err << "error: --job-log/--job-trace expect an output "
                   "file\n";
            return 1;
        }
        auto timeline_path = parsed->flag("timeline");
        if (timeline_path && timeline_path->empty()) {
            err << "error: --timeline expects an output file\n";
            return 1;
        }
        std::string timeline_format;
        if (timeline_path) {
            // Default format follows the extension, like generate's
            // --out (.json = JSON, anything else = CSV).
            bool json_ext =
                timeline_path->size() >= 5 &&
                timeline_path->compare(timeline_path->size() - 5, 5,
                                       ".json") == 0;
            timeline_format =
                parsed->flag("timeline-format")
                    .value_or(json_ext ? "json" : "csv");
            if (timeline_format != "csv" &&
                timeline_format != "json") {
                err << "error: --timeline-format expects csv or "
                       "json, got '"
                    << timeline_format << "'\n";
                return 1;
            }
        }
        if (profile_path)
            obs::startProfiling();
        if (job_log_path || job_trace_path)
            obs::startJobLog();
        if (timeline_path) {
            // Timeline validates by throwing: a bad
            // --timeline-interval must fail identically in NDEBUG
            // builds.
            try {
                obs::startTimeline(
                    parsed->numFlag("timeline-interval", 10.0));
            } catch (const std::invalid_argument &e) {
                err << "error: " << e.what() << "\n";
                return 1;
            }
        }

        std::optional<int> rc;
        {
            // The root span: everything a subcommand does nests
            // under cli.<cmd> in the exported trace.
            obs::Span span(obs::internName("cli." + cmd));
            rc = dispatch(cmd, *parsed, out, err);
        }

        // Exporters write to files or err only -- stdout stays
        // byte-identical with and without observability flags.
        if (profile_path) {
            obs::stopProfiling();
            if (rc &&
                !writeTextFile(*profile_path, obs::profileToJson(),
                               err) &&
                rc == 0) {
                rc = 1;
            }
        }
        if (timeline_path) {
            obs::stopTimeline();
            if (rc) {
                std::string text = timeline_format == "json"
                                       ? obs::renderTimelineJson()
                                       : obs::renderTimelineCsv();
                if (!writeTextFile(*timeline_path, text, err) &&
                    rc == 0) {
                    rc = 1;
                }
            }
        }
        if (job_log_path || job_trace_path) {
            obs::stopJobLog();
            if (rc) {
                auto records = obs::collectJobLog();
                if (job_log_path &&
                    !writeTextFile(*job_log_path,
                                   obs::renderJobLogJsonl(records),
                                   err) &&
                    rc == 0) {
                    rc = 1;
                }
                if (job_trace_path &&
                    !writeTextFile(
                        *job_trace_path,
                        obs::renderJobChromeTrace(records), err) &&
                    rc == 0) {
                    rc = 1;
                }
            }
        }
        if (metrics_dest && rc) {
            std::string text =
                metrics_format == "openmetrics"
                    ? obs::renderMetricsOpenMetrics()
                    : obs::renderMetricsSummary();
            if (metrics_dest->empty()) {
                err << text;
            } else if (!writeTextFile(*metrics_dest, text, err) &&
                       rc == 0) {
                rc = 1;
            }
        }
        if (rc)
            return *rc;
    } catch (const UsageError &e) {
        err << e.what() << "\n";
        return 1;
    }

    err << "error: unknown command '" << cmd << "'\n";
    printUsage(err);
    return 1;
}

} // namespace paichar::cli
