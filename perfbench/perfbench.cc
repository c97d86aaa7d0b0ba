/**
 * @file
 * perfbench: paichar's reference-scenario benchmark.
 *
 * One process runs one workload: it builds the workload's inputs from
 * the seed (set-up, repeated and timed), then, after one untimed
 * warm-up iteration, runs the scenario's fixed sequence of public
 * calls -- the same calls, in the same order, as the matching
 * `paichar` subcommand -- for a fixed wall-time budget. Every iteration is checked (invariants always; recorded
 * result values on the default seed), and the last stdout line is one
 * JSON object {correct, attempted, failed, metrics}.
 *
 * With --trace 0 the metrics are end-to-end (tracing off). With
 * --trace 1 the benchmark alternates traced and untraced iterations:
 * traced ones record a span around every public call and run with the
 * program's own profiling on, and the metrics are per layer, plus the
 * tracing overhead measured against the untraced iterations. README.md
 * in this directory maps each layer metric to the end-to-end metric
 * it should move.
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--threads T] [--iterations K]
 *                  [--work-dir DIR]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clustersim/scheduler.h"
#include "core/analytical_model.h"
#include "core/characterization.h"
#include "core/projection.h"
#include "core/sweep.h"
#include "hw/hardware_config.h"
#include "inference/fleet_sim.h"
#include "inference/inference_workload.h"
#include "obs/obs.h"
#include "opt/optimization_planner.h"
#include "runtime/parallel.h"
#include "testbed/training_sim.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"
#include "workload/model_zoo.h"

namespace {

using namespace paichar;
using Clock = std::chrono::steady_clock;

/** Recorded result values are checked on this seed only. */
constexpr uint64_t kDefaultSeed = 20181201;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fmtValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

/** A JSON number with every digit, or 0 for non-finite values. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each public call.
// ---------------------------------------------------------------------------

struct SpanRecord
{
    const char *name = nullptr;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    /** sim.events_executed advanced while the span was open. */
    uint64_t sim_events = 0;
};

class Tracer
{
  public:
    bool
    on() const
    {
        return on_;
    }

    void
    begin()
    {
        spans_.clear();
        open_ = -1;
        epoch_ = Clock::now();
        on_ = true;
    }

    /** Stops recording; the spans of the iteration stay readable. */
    const std::vector<SpanRecord> &
    end()
    {
        on_ = false;
        return spans_;
    }

    int
    open(const char *name)
    {
        SpanRecord s;
        s.name = name;
        s.parent = open_;
        s.sim_events = sim_events_.value();
        s.start = secondsSince(epoch_);
        spans_.push_back(s);
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    close(int idx)
    {
        SpanRecord &s = spans_[idx];
        s.end = secondsSince(epoch_);
        s.sim_events = sim_events_.value() - s.sim_events;
        open_ = s.parent;
    }

  private:
    bool on_ = false;
    std::vector<SpanRecord> spans_;
    int open_ = -1;
    Clock::time_point epoch_;
    obs::Counter &sim_events_ = obs::counter("sim.events_executed");
};

/** RAII span; a single branch while tracing is off. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t)
    {
        if (t_.on())
            idx_ = t_.open(name);
    }

    ~Scope()
    {
        if (idx_ >= 0)
            t_.close(idx_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int idx_ = -1;
};

/**
 * Moves the calling thread to the next of the CPUs it may run on, in
 * turn. On a host whose CPUs run at different speeds (cores shared
 * with other machines), a thread left alone spends a whole run on the
 * CPU it first landed on; moving it every iteration spreads each run
 * over all of them. Threads started earlier keep their own mask.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
        }
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** What one iteration produced, for checking. */
struct IterResult
{
    /** Jobs, requests or plans processed (items_per_s numerator). */
    int64_t items = 0;
    /** Broken invariants; any entry fails the iteration. */
    std::vector<std::string> violations;
    /** Result values, compared across iterations, threads and runs. */
    std::vector<std::pair<std::string, std::string>> values;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }

    void
    value(const std::string &key, double v)
    {
        values.emplace_back(key, fmtValue(v));
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the inputs from the seed; repeatable. */
    virtual void setup() = 0;

    /**
     * How many inputs set-up builds; iteration i runs input i modulo
     * this. Input 0 is the one built from the seed itself.
     */
    virtual size_t
    inputs() const
    {
        return 1;
    }

    virtual IterResult iterate(Tracer &tr, size_t input) = 0;
    /** Unit of IterResult::items. */
    virtual const char *itemUnit() const = 0;
};

workload::JobStore
loadStore(Tracer &tr, const std::string &path)
{
    Scope s(tr, "trace.readTraceStore");
    auto r = trace::readTraceStore(path, runtime::globalPool());
    if (!r.ok)
        throw std::runtime_error("readTraceStore: " + r.error);
    return std::move(r.store);
}

void
writeTrace(uint64_t seed, size_t jobs, const std::string &path)
{
    trace::SyntheticClusterGenerator gen(seed);
    auto generated = gen.generate(jobs, runtime::globalPool());
    if (!trace::writeTraceFile(path, generated,
                               trace::TraceFormat::Binary))
        throw std::runtime_error("cannot write " + path);
}

/** Where input @p i of a workload whose input 0 is @p path lives. */
std::string
inputPath(const std::string &path, size_t i)
{
    return i == 0 ? path : path + "." + std::to_string(i);
}

/** The seed of input @p i; input 0 uses the run's seed itself. */
uint64_t
inputSeed(uint64_t seed, size_t i)
{
    return seed ^ (0x9E3779B97F4A7C15ULL * i);
}

/**
 * characterize-1m: `paichar characterize`, `project` and `sweep` on a
 * 1M-job paib trace, sharing one read.
 */
class CharacterizeWorkload : public Workload
{
  public:
    CharacterizeWorkload(uint64_t seed, std::string path)
        : seed_(seed), path_(std::move(path))
    {
    }

    void
    setup() override
    {
        writeTrace(seed_, kJobs, path_);
    }

    const char *
    itemUnit() const override
    {
        return "jobs/s";
    }

    IterResult
    iterate(Tracer &tr, size_t) override
    {
        using workload::ArchType;
        IterResult res;
        workload::JobStore store = loadStore(tr, path_);
        res.items = static_cast<int64_t>(store.size());

        core::AnalyticalModel model(hw::paiCluster());
        std::optional<core::ClusterCharacterizer> ch;
        {
            Scope s(tr, "core.ClusterCharacterizer");
            ch.emplace(model, std::move(store));
        }

        // The Fig 5-8 queries: constitution, cNode-count and weight
        // CDFs, average breakdowns at both levels, time-component and
        // hardware-component CDFs.
        core::Constitution c;
        {
            Scope s(tr, "core.query.constitution");
            c = ch->constitution();
        }
        double cdf_digest = 0.0;
        auto sums_to_one = [&](const std::array<double, 4> &b,
                               const std::string &what) {
            res.check(std::abs(b[0] + b[1] + b[2] + b[3] - 1.0) < 1e-9,
                      "Fig 7 shares of " + what + " do not sum to 1");
        };
        for (ArchType arch : workload::kAllArchTypes) {
            if (c.job_counts.count(arch) == 0)
                continue;
            {
                Scope s(tr, "core.query.cnodeCountCdf");
                cdf_digest += ch->cnodeCountCdf(arch).median();
            }
            for (core::Level level :
                 {core::Level::Job, core::Level::CNode}) {
                Scope s(tr, "core.query.avgBreakdown");
                sums_to_one(ch->avgBreakdown(arch, level),
                            workload::toString(arch));
            }
        }
        {
            Scope s(tr, "core.query.weightSizeCdf");
            cdf_digest += ch->weightSizeCdf(std::nullopt).median();
        }
        for (core::Component comp : core::kAllComponents) {
            Scope s(tr, "core.query.componentCdf");
            cdf_digest +=
                ch->componentCdf(comp, std::nullopt, core::Level::CNode)
                    .median();
        }
        for (core::HwComponent h : core::kAllHwComponents) {
            Scope s(tr, "core.query.hwComponentCdf");
            cdf_digest +=
                ch->hwComponentCdf(h, core::Level::CNode).median();
        }
        std::array<double, 4> cluster;
        {
            Scope s(tr, "core.query.avgBreakdown");
            cluster = ch->avgBreakdown(std::nullopt, core::Level::CNode);
        }
        sums_to_one(cluster, "the cluster");
        int64_t counted = 0;
        for (const auto &[arch, n] : c.job_counts)
            counted += n;
        res.check(c.total_jobs == res.items && counted == res.items,
                  "constitution does not count every job");

        std::vector<workload::TrainingJob> ps;
        {
            Scope s(tr, "workload.select");
            for (const workload::TrainingJob &job : ch->jobs()) {
                if (job.arch == ArchType::PsWorker)
                    ps.push_back(job);
            }
        }
        res.check(!ps.empty(), "trace has no PS/Worker jobs");

        std::vector<core::ProjectionResult> projected;
        {
            Scope s(tr, "core.projectAll");
            projected = core::ArchitectureProjector(model).projectAll(
                ps, ArchType::AllReduceLocal);
        }
        double speedup_sum = 0.0;
        for (const auto &p : projected)
            speedup_sum += p.throughput_speedup;

        std::vector<core::SweepSeries> series;
        {
            Scope s(tr, "core.HardwareSweep");
            series = core::HardwareSweep(hw::paiCluster()).run(ps);
        }
        double sweep_digest = 0.0;
        for (const auto &ser : series) {
            for (const auto &p : ser.points)
                sweep_digest += p.avg_speedup;
        }

        res.value("comm_share", cluster[1]);
        res.value("cdf_digest", cdf_digest);
        res.value("ps_jobs", static_cast<double>(ps.size()));
        res.value("mean_speedup",
                  speedup_sum / static_cast<double>(projected.size()));
        res.value("sweep_digest", sweep_digest);
        return res;
    }

  private:
    static constexpr size_t kJobs = 1'000'000;
    uint64_t seed_;
    std::string path_;
};

/**
 * schedule-backlog: `paichar schedule TRACE --servers 64 --rate 1000
 * --predictor model --policy spf --compare-fifo 1` on 5k jobs.
 *
 * How long the backlog lasts, and so how much the scheduler scans,
 * changes from one seed to the next. Iterations therefore cycle
 * through kInputs traces and streams derived from the seed, so that a
 * run's median does not rest on a single draw.
 */
class ScheduleWorkload : public Workload
{
  public:
    ScheduleWorkload(uint64_t seed, std::string path)
        : seed_(seed), path_(std::move(path))
    {
    }

    void
    setup() override
    {
        for (size_t i = 0; i < kInputs; ++i)
            writeTrace(inputSeed(seed_, i), kJobs, inputPath(path_, i));
    }

    size_t
    inputs() const override
    {
        return kInputs;
    }

    const char *
    itemUnit() const override
    {
        return "jobs/s";
    }

    IterResult
    iterate(Tracer &tr, size_t input) override
    {
        IterResult res;
        workload::JobStore store =
            loadStore(tr, inputPath(path_, input));
        std::vector<workload::TrainingJob> jobs;
        {
            Scope s(tr, "workload.materialize");
            jobs = std::move(store).materialize();
        }
        clustersim::SchedulerConfig cfg;
        cfg.num_servers = 64;
        cfg.nvlink_fraction = 0.5;
        cfg.policy = clustersim::Policy::Spf;
        cfg.predictor = [](const workload::TrainingJob &, int64_t,
                           double model_run_s) { return model_run_s; };
        for (auto &j : jobs)
            j.num_cnodes = std::min(j.num_cnodes, cfg.num_servers);

        std::vector<clustersim::JobRequest> requests;
        {
            Scope s(tr, "clustersim.poissonRequests");
            requests = clustersim::poissonRequests(
                jobs, 1000.0, 2000.0, 1.2, inputSeed(seed_, input));
        }
        const auto submitted = static_cast<int64_t>(requests.size());
        res.check(submitted == static_cast<int64_t>(kJobs),
                  "poissonRequests dropped jobs");

        core::AnalyticalModel model(hw::paiCluster());
        auto account = [&](const clustersim::ClusterOutcome &o,
                           const std::string &prefix) {
            res.check(static_cast<int64_t>(o.jobs.size()) +
                              o.unplaceable_jobs ==
                          submitted,
                      prefix + "scheduled + unplaceable != submitted");
            res.items += submitted;
            res.value(prefix + "mean_wait", o.mean_wait);
            res.value(prefix + "p95_wait", o.p95_wait);
            res.value(prefix + "makespan", o.makespan);
            res.value(prefix + "gpu_utilization", o.gpu_utilization);
        };

        clustersim::ClusterOutcome result;
        {
            Scope s(tr, "clustersim.run");
            clustersim::ClusterScheduler sched(cfg, model);
            result = sched.run(requests);
        }
        account(result, "");

        clustersim::SchedulerConfig base = cfg;
        base.policy = clustersim::Policy::Fifo;
        base.record_job_log = false;
        base.record_timeline = false;
        clustersim::ClusterOutcome fifo;
        {
            Scope s(tr, "clustersim.fifo_run");
            fifo = clustersim::ClusterScheduler(base, model).run(
                std::move(requests));
        }
        account(fifo, "fifo_");
        return res;
    }

  private:
    static constexpr size_t kJobs = 5000;
    /** Odd, so traced and untraced iterations each see every input. */
    static constexpr size_t kInputs = 5;
    uint64_t seed_;
    std::string path_;
};

/**
 * bert-whatif: `paichar serve bert` (1 server, greedy), `serve bert
 * --servers 16 --routing p2c --batching continuous`, `capacity bert`,
 * then `diagnose`'s baseline step and `plan bert`.
 */
class BertWorkload : public Workload
{
  public:
    explicit BertWorkload(uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        // As `paichar serve bert` resolves its model argument.
        for (auto &m : workload::ModelZoo::all()) {
            if (m.name == "BERT")
                model_ = std::move(m);
        }
        if (model_.name != "BERT")
            throw std::runtime_error("the model zoo has no BERT");
        w_ = inference::InferenceWorkload::fromTraining(model_);
        inference::FleetConfig cfg;
        solo_ = w_.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
                w_.inputTime(1, cfg.server.pcie_bandwidth);
    }

    const char *
    itemUnit() const override
    {
        return "requests/s";
    }

    IterResult
    iterate(Tracer &tr, size_t) override
    {
        IterResult res;
        auto load = [&](double qps) {
            stats::ArrivalConfig a;
            a.qps = qps;
            return std::vector<inference::ModelLoad>{{w_, a}};
        };
        auto account = [&](const inference::FleetResult &r,
                           int64_t offered, const std::string &prefix) {
            res.check(r.offered == offered,
                      prefix + "offered != requested");
            res.check(r.completed + r.rejected == r.offered,
                      prefix + "completed + rejected != offered");
            res.items += r.offered;
            res.value(prefix + "p99_latency", r.p99_latency);
            res.value(prefix + "gpu_utilization", r.gpu_utilization);
        };

        inference::FleetConfig one;
        inference::FleetResult r1;
        {
            Scope s(tr, "inference.fleet_1server");
            r1 = inference::FleetSimulator(one).run(
                load(0.5 / solo_), kFleet1Requests, seed_);
        }
        account(r1, kFleet1Requests, "fleet1_");

        inference::FleetConfig sixteen;
        sixteen.num_servers = 16;
        sixteen.routing = inference::Routing::PowerOfTwo;
        sixteen.batching = inference::Batching::Continuous;
        inference::FleetResult r16;
        {
            Scope s(tr, "inference.fleet_16servers");
            r16 = inference::FleetSimulator(sixteen).run(
                load(0.5 * 16 / solo_), kFleet16Requests, seed_);
        }
        account(r16, kFleet16Requests, "fleet16_");

        std::optional<int> servers;
        {
            Scope s(tr, "inference.minServersForSlo");
            servers = inference::minServersForSlo(
                inference::FleetConfig{}, load(kCapacityQps),
                5.0 * solo_, 64, kCapacityRequests, seed_);
        }
        res.check(servers.has_value(), "capacity not attainable");
        res.value("servers_needed", servers.value_or(-1));

        testbed::StepResult step;
        {
            Scope s(tr, "testbed.TrainingSimulator");
            step = testbed::TrainingSimulator().run(model_);
        }
        res.check(step.total_time > 0.0, "baseline step time is not positive");
        res.value("baseline_step", step.total_time);

        std::vector<opt::Plan> plans;
        {
            Scope s(tr, "opt.evaluate");
            plans = opt::OptimizationPlanner().evaluate(model_);
        }
        res.check(!plans.empty() && plans[0].spec.isDefault() &&
                      plans[0].spec.arch == model_.arch,
                  "plan baseline is not first");
        if (!plans.empty()) {
            // `paichar plan`'s pick rule.
            const opt::Plan &best =
                plans.size() > 1 && plans[1].simulated &&
                        plans[1].speedup >= 1.0
                    ? plans[1]
                    : plans[0];
            res.values.emplace_back("best_plan", best.label());
            res.value("best_speedup", best.speedup);
        }
        return res;
    }

  private:
    static constexpr int64_t kFleet1Requests = 1'000'000;
    static constexpr int64_t kFleet16Requests = 1'000'000;
    static constexpr int64_t kCapacityRequests = 100'000;
    static constexpr double kCapacityQps = 2000.0;
    uint64_t seed_;
    workload::CaseStudyModel model_;
    inference::InferenceWorkload w_;
    double solo_ = 0.0;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed,
             const std::string &path)
{
    if (name == "characterize-1m")
        return std::make_unique<CharacterizeWorkload>(seed, path);
    if (name == "schedule-backlog")
        return std::make_unique<ScheduleWorkload>(seed, path);
    if (name == "bert-whatif")
        return std::make_unique<BertWorkload>(seed);
    return nullptr;
}

/**
 * Result values recorded on kDefaultSeed; every iteration on that
 * seed must reproduce them exactly (12 significant digits).
 */
const std::map<std::string,
               std::vector<std::pair<std::string, std::string>>> &
recordedValues()
{
    static const std::map<
        std::string, std::vector<std::pair<std::string, std::string>>>
        recorded = {
            {"characterize-1m",
             {{"comm_share", "0.654758047948"},
              {"cdf_digest", "136601384.342"},
              {"ps_jobs", "289347"},
              {"mean_speedup", "2.4332643579"},
              {"sweep_digest", "13.1667414631"}}},
            {"schedule-backlog",
             {{"mean_wait", "4746.11272053"},
              {"p95_wait", "33803.0617589"},
              {"makespan", "161675.015249"},
              {"gpu_utilization", "0.488228843507"},
              {"fifo_mean_wait", "138042.402269"},
              {"fifo_p95_wait", "255305.368163"},
              {"fifo_makespan", "337645.369955"},
              {"fifo_gpu_utilization", "0.233779025992"}}},
            {"bert-whatif",
             {{"fleet1_p99_latency", "0.0465174915262"},
              {"fleet1_gpu_utilization", "0.496141200178"},
              {"fleet16_p99_latency", "0.0166557127814"},
              {"fleet16_gpu_utilization", "0.470399437922"},
              {"servers_needed", "19"},
              {"baseline_step", "0.415540909722"},
              {"best_plan", "MP+XLA+acc4 on PEARL"},
              {"best_speedup", "2.63898910737"}}},
        };
    return recorded;
}

// ---------------------------------------------------------------------------
// Per-layer aggregation of traced iterations
// ---------------------------------------------------------------------------

struct SpanStats
{
    int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
};

/** Layers in report order; a span's layer is its name's prefix. */
const char *const kLayers[] = {"trace",     "workload", "core",
                               "clustersim", "sim",     "inference",
                               "opt",       "testbed",  "runtime",
                               "obs"};

std::string
layerOf(const std::string &span)
{
    return span.substr(0, span.find('.'));
}

class LayerProfile
{
  public:
    /** Fold one traced iteration's spans (root span first). */
    void
    add(const std::vector<SpanRecord> &spans)
    {
        std::vector<double> child(spans.size(), 0.0);
        for (const SpanRecord &s : spans) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> iter_total;
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &s = spans[i];
            double d = s.end - s.start;
            SpanStats &st = by_span_[s.name];
            ++st.calls;
            st.total += d;
            st.self += d - child[i];
            iter_total[s.name] += d;
            if (s.parent == 0 && s.sim_events > 0) {
                sim_events_ += s.sim_events;
                sim_seconds_ += d;
            }
        }
        per_iter_.push_back(std::move(iter_total));
    }

    /**
     * Median over traced iterations of the per-iteration time in spans
     * whose name starts with @p prefix.
     */
    double
    seconds(const std::string &prefix) const
    {
        std::vector<double> v;
        for (const auto &it : per_iter_) {
            double sum = 0.0;
            for (const auto &[name, d] : it) {
                if (name.rfind(prefix, 0) == 0)
                    sum += d;
            }
            v.push_back(sum);
        }
        return median(v);
    }

    double
    simEventsPerSecond() const
    {
        return sim_seconds_ > 0.0
                   ? static_cast<double>(sim_events_) / sim_seconds_
                   : 0.0;
    }

    std::string
    table() const
    {
        double iter_total = 0.0;
        if (auto it = by_span_.find("iteration"); it != by_span_.end())
            iter_total = it->second.total;
        auto share = [&](double self) {
            return iter_total > 0.0 ? self / iter_total : 0.0;
        };
        std::string out;
        char line[256];
        std::snprintf(line, sizeof line, "%-30s %7s %11s %11s %7s\n",
                      "span", "calls", "total_s", "self_s", "share");
        out += line;
        for (const auto &[name, st] : by_span_) {
            std::snprintf(line, sizeof line,
                          "%-30s %7" PRId64 " %11.6f %11.6f %6.2f%%\n",
                          name.c_str(), st.calls, st.total, st.self,
                          100.0 * share(st.self));
            out += line;
        }
        out += "\n";
        std::snprintf(line, sizeof line, "%-30s %7s %11s %11s %7s\n",
                      "layer", "calls", "total_s", "self_s", "share");
        out += line;
        for (const char *layer : kLayers) {
            SpanStats sum;
            for (const auto &[name, st] : by_span_) {
                if (layerOf(name) == layer) {
                    sum.calls += st.calls;
                    sum.total += st.total;
                    sum.self += st.self;
                }
            }
            std::snprintf(line, sizeof line,
                          "%-30s %7" PRId64 " %11.6f %11.6f %6.2f%%\n",
                          layer, sum.calls, sum.total, sum.self,
                          100.0 * share(sum.self));
            out += line;
        }
        return out;
    }

  private:
    std::map<std::string, SpanStats> by_span_;
    std::vector<std::map<std::string, double>> per_iter_;
    uint64_t sim_events_ = 0;
    double sim_seconds_ = 0.0;
};

/** Program counters, as per-iteration averages, by name. */
std::map<std::string, double>
counterSnapshot(int64_t iterations)
{
    std::map<std::string, double> out;
    obs::visitMetrics(
        [&](const std::string &n, const obs::Counter &c) {
            out[n] = static_cast<double>(c.value()) /
                     static_cast<double>(std::max<int64_t>(1, iterations));
        },
        [](const std::string &, const obs::Gauge &) {},
        [](const std::string &, const obs::Histogram &) {});
    return out;
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    int threads = 4;
    /** Fixed iteration count instead of the time budget (self-tests). */
    int64_t iterations = 0;
    std::string work_dir = ".bench_build/work";
};

/** A whole number in [0, max] spelled in decimal, or nullopt. */
std::optional<uint64_t>
parseCount(const std::string &v, uint64_t max)
{
    if (v.empty() || v.size() > 20 ||
        v.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    errno = 0;
    unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
    if (errno != 0 || n > max)
        return std::nullopt;
    return n;
}

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s expects a value\n",
                         flag.c_str());
            return std::nullopt;
        }
        std::string v = argv[++i];
        auto count = [&](uint64_t max) {
            auto n = parseCount(v, max);
            if (!n) {
                std::fprintf(stderr,
                             "error: %s expects a whole number in "
                             "[0, %" PRIu64 "], got '%s'\n",
                             flag.c_str(), max, v.c_str());
            }
            return n;
        };
        std::optional<uint64_t> n;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--work-dir") {
            o.work_dir = v;
        } else if (flag == "--seed") {
            if (!(n = count(UINT64_MAX)))
                return std::nullopt;
            o.seed = *n;
        } else if (flag == "--seconds") {
            if (!(n = count(3600)))
                return std::nullopt;
            o.seconds = static_cast<double>(*n);
        } else if (flag == "--trace") {
            if (!(n = count(1)))
                return std::nullopt;
            o.trace = *n == 1;
        } else if (flag == "--threads") {
            if (!(n = count(256)))
                return std::nullopt;
            if (*n == 0) {
                std::fprintf(stderr, "error: --threads expects >= 1\n");
                return std::nullopt;
            }
            o.threads = static_cast<int>(*n);
        } else if (flag == "--iterations") {
            if (!(n = count(1'000'000)))
                return std::nullopt;
            o.iterations = static_cast<int64_t>(*n);
        } else {
            std::fprintf(stderr, "error: unknown flag %s\n",
                         flag.c_str());
            return std::nullopt;
        }
    }
    return o;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The highest percentile with at least ten samples above it: the
 * (n-10)-th smallest of @p sorted, as {value, percentile}. With ten or
 * fewer samples there is none, and the minimum stands in.
 */
std::pair<double, double>
tailOf(const std::vector<double> &sorted)
{
    size_t n = sorted.size();
    if (n == 0)
        return {0.0, 0.0};
    size_t k = n > 10 ? n - 11 : 0;
    return {sorted[k], 100.0 * static_cast<double>(k + 1) /
                           static_cast<double>(n)};
}

int
runBenchmark(const Options &o)
{
    std::string path = o.work_dir + "/" + o.workload + "-" +
                       std::to_string(o.seed) + ".paib";
    auto w = makeWorkload(o.workload, o.seed, path);
    if (!w) {
        std::fprintf(stderr,
                     "error: unknown workload '%s' (characterize-1m, "
                     "schedule-backlog, bert-whatif)\n",
                     o.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(o.work_dir);
    runtime::setThreadCount(o.threads);
    runtime::globalPool();

    // Set-up is repeated until it has run at least three times and for
    // a second; its median is setup_s.
    std::vector<double> setups;
    auto setup_start = Clock::now();
    while (setups.size() < 3 ||
           (secondsSince(setup_start) < 1.0 && setups.size() < 1000)) {
        auto t0 = Clock::now();
        w->setup();
        setups.push_back(secondsSince(t0));
    }

    obs::resetMetrics();
    Tracer tracer;
    LayerProfile profile;
    std::vector<double> untraced, traced;
    int64_t attempted = 0, failed = 0, items = 0;
    // Result values of each input's first iteration.
    std::vector<std::vector<std::pair<std::string, std::string>>>
        first_values(w->inputs());
    const auto &recorded = recordedValues().at(o.workload);
    // After set-up: the runtime pool's workers already exist and keep
    // every CPU.
    CpuRotation cpus;

    auto run_start = Clock::now();
    for (;;) {
        // Past the untimed first iteration, at least two timed ones.
        if (o.iterations > 0 ? attempted >= o.iterations
                             : (attempted >= 3 &&
                                secondsSince(run_start) >= o.seconds))
            break;
        // The first iteration warms caches, the allocator and the
        // runtime pool: it is checked but not timed.
        bool warmup = attempted == 0;
        bool traced_iter = o.trace && !warmup && attempted % 2 == 1;
        size_t input = static_cast<size_t>(attempted) % w->inputs();
        ++attempted;
        cpus.next();
        IterResult res;
        bool threw = false;
        std::string error;
        if (traced_iter) {
            tracer.begin();
            obs::startProfiling();
        }
        auto t0 = Clock::now();
        try {
            Scope root(tracer, "iteration");
            res = w->iterate(tracer, input);
        } catch (const std::exception &e) {
            threw = true;
            error = e.what();
        }
        double dt = secondsSince(t0);
        if (traced_iter) {
            obs::stopProfiling();
            profile.add(tracer.end());
        }
        if (warmup)
            run_start = Clock::now();
        else
            (traced_iter ? traced : untraced).push_back(dt);

        std::vector<std::string> problems = res.violations;
        if (threw)
            problems.push_back("threw: " + error);
        auto &first = first_values[input];
        if (!threw && first.empty())
            first = res.values;
        else if (!threw && res.values != first)
            problems.push_back("result values differ from the first "
                               "iteration on this input");
        if (!threw && input == 0 && o.seed == kDefaultSeed &&
            !recorded.empty() && res.values != recorded)
            problems.push_back("result values differ from the "
                               "recorded ones");
        if (problems.empty()) {
            items += res.items;
        } else {
            ++failed;
            for (const auto &p : problems)
                std::fprintf(stderr, "iteration %" PRId64 ": %s\n",
                             attempted, p.c_str());
        }
    }
    double run_seconds = secondsSince(run_start);
    std::error_code ec;
    for (size_t i = 0; i < w->inputs(); ++i)
        std::filesystem::remove(inputPath(path, i), ec);

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::vector<double> sorted = untraced;
    std::sort(sorted.begin(), sorted.end());
    auto [tail, tail_pct] = tailOf(sorted);
    // Items per attempted iteration over the median iteration: failed
    // iterations count no items, so failures lower the rate.
    double items_per_s =
        sorted.empty() ? 0.0
                       : static_cast<double>(items) /
                             static_cast<double>(attempted) /
                             median(sorted);

    // Input 0's result values, for the thread-identity and seed
    // self-tests.
    std::string values = "{";
    const auto &input0 = first_values[0];
    for (size_t i = 0; i < input0.size(); ++i) {
        values += (i ? "," : "") + jsonString(input0[i].first) + ":" +
                  jsonString(input0[i].second);
    }
    values += "}";
    std::printf("results %s\n", values.c_str());

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"items_per_s", items_per_s, "items/s"},
            {"iter_s.p50", median(untraced), "s"},
            {"iter_s.tail", tail, "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
        std::printf("workload %s, seed %" PRIu64 ", %d threads, %" PRId64
                    " iterations in %.3f s\n",
                    o.workload.c_str(), o.seed, o.threads, attempted,
                    run_seconds);
        for (const Metric &m : metrics)
            std::printf("  %-14s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("  iteration times (s):");
        for (double d : untraced)
            std::printf(" %.4f", d);
        std::printf("\n  items_per_s counts %s\n", w->itemUnit());
        std::printf("  iter_s.tail is p%.1f over %zu samples\n",
                    tail_pct, sorted.size());
        std::printf("  failed_ratio   %14.6f ratio (%" PRId64
                    " of %" PRId64 ")\n",
                    static_cast<double>(failed) /
                        static_cast<double>(attempted),
                    failed, attempted);
    } else {
        auto counters = counterSnapshot(attempted);
        auto ctr = [&](const char *name) {
            auto it = counters.find(name);
            return it == counters.end() ? 0.0 : it->second;
        };
        auto per_s = [](double n, double s) {
            return s > 0.0 ? n / s : 0.0;
        };
        double load_s = profile.seconds("trace.readTraceStore");
        double attempts = ctr("clustersim.placement_attempts");
        double inference_s =
            profile.seconds("inference.fleet_1server") +
            profile.seconds("inference.fleet_16servers") +
            profile.seconds("inference.minServersForSlo");
        double untraced_p50 = median(untraced);
        metrics = {
            {"trace.load_s", load_s, "s"},
            {"trace.rows_per_s",
             per_s(ctr("trace.rows_mapped") + ctr("trace.rows_parsed"),
                   load_s),
             "1/s"},
            {"core.characterize_s",
             profile.seconds("core.ClusterCharacterizer"), "s"},
            {"core.queries_s", profile.seconds("core.query."), "s"},
            {"core.project_s", profile.seconds("core.projectAll"), "s"},
            {"core.sweep_s", profile.seconds("core.HardwareSweep"), "s"},
            {"workload.materialize_s",
             profile.seconds("workload.materialize"), "s"},
            {"clustersim.requests_s",
             profile.seconds("clustersim.poissonRequests"), "s"},
            {"clustersim.run_s", profile.seconds("clustersim.run"), "s"},
            {"clustersim.fifo_run_s",
             profile.seconds("clustersim.fifo_run"), "s"},
            {"clustersim.placement_attempts", attempts, "count"},
            {"clustersim.placement_hit_ratio",
             attempts > 0.0
                 ? 1.0 - ctr("clustersim.placement_failures") / attempts
                 : 0.0,
             "ratio"},
            {"sim.events_executed", ctr("sim.events_executed"), "count"},
            {"sim.sync_rounds", ctr("sim.sync_rounds"), "count"},
            {"sim.events_per_s", profile.simEventsPerSecond(), "1/s"},
            {"inference.fleet1_s",
             profile.seconds("inference.fleet_1server"), "s"},
            {"inference.fleet16_s",
             profile.seconds("inference.fleet_16servers"), "s"},
            {"inference.requests_per_s",
             per_s(ctr("inference.fleet.requests"), inference_s), "1/s"},
            {"inference.capacity_s",
             profile.seconds("inference.minServersForSlo"), "s"},
            {"inference.capacity_probes",
             ctr("inference.fleet.capacity_probes"), "count"},
            {"inference.fleet.batches", ctr("inference.fleet.batches"),
             "count"},
            {"opt.evaluate_s", profile.seconds("opt.evaluate"), "s"},
            {"opt.candidates_analytical",
             ctr("opt.candidates_analytical"), "count"},
            {"opt.candidates_simulated", ctr("opt.candidates_simulated"),
             "count"},
            {"testbed.baseline_step_s",
             profile.seconds("testbed.TrainingSimulator"), "s"},
            {"runtime.tasks", ctr("runtime.tasks"), "count"},
            {"obs.trace_overhead_ratio",
             traced.empty() || untraced.empty()
                 ? 0.0
                 : median(traced) / untraced_p50 - 1.0,
             "ratio"},
        };
        std::printf("workload %s, seed %" PRIu64 ", %d threads: %zu "
                    "traced and %zu untraced iterations, iteration "
                    "p50 %.6f s traced, %.6f s untraced\n\n%s\n",
                    o.workload.c_str(), o.seed, o.threads, traced.size(),
                    untraced.size(), median(traced), untraced_p50,
                    profile.table().c_str());
        std::printf("program counters per iteration:\n");
        for (const auto &[name, v] : counters)
            std::printf("  %-36s %16.1f\n", name.c_str(), v);
        std::printf("\nper-layer metrics:\n");
        for (const Metric &m : metrics)
            std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto o = parseOptions(argc, argv);
    if (!o)
        return 2;
    try {
        return runBenchmark(*o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
