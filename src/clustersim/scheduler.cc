#include "scheduler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "hw/hardware_config.h"
#include "obs/job_log.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_engine.h"
#include "stats/cdf.h"
#include "stats/rng.h"

namespace paichar::clustersim {

using workload::ArchType;
using workload::TrainingJob;

std::string
toString(Policy p)
{
    switch (p) {
      case Policy::Fifo:
        return "fifo";
      case Policy::Backfill:
        return "backfill";
      case Policy::Spf:
        return "spf";
      case Policy::SpfPreempt:
        return "spf-preempt";
      case Policy::Gang:
        return "gang";
    }
    return "?";
}

std::optional<Policy>
policyFromString(const std::string &name)
{
    if (name == "fifo")
        return Policy::Fifo;
    if (name == "backfill")
        return Policy::Backfill;
    if (name == "spf")
        return Policy::Spf;
    if (name == "spf-preempt")
        return Policy::SpfPreempt;
    if (name == "gang")
        return Policy::Gang;
    return std::nullopt;
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names{
        "fifo", "backfill", "spf", "spf-preempt", "gang"};
    return names;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** (server index, gpus taken) pairs of one job's allocation. */
using Allocation = std::vector<std::pair<int, int>>;

/**
 * Mutable cluster capacity. Besides each server's free GPUs it keeps
 * servers_with[nvlink][k], the number of servers of each kind with
 * exactly k free GPUs, so "does any server of this kind have g free?"
 * is an O(gpus_per_server) count instead of an O(servers) scan. The
 * count answers feasibility exactly, so callers reject with it before
 * scanning and every placement they do make is unchanged.
 */
struct Capacity
{
    std::vector<int> free_gpus;
    std::vector<bool> nvlink;
    /** Per-server generation speed factor (1.0 = Table I). */
    std::vector<double> speed;
    std::array<std::vector<int>, 2> servers_with;
    int64_t total_free = 0;

    Capacity(int num_servers, int gpus_per_server)
        : free_gpus(static_cast<size_t>(num_servers), gpus_per_server),
          nvlink(static_cast<size_t>(num_servers), false),
          speed(static_cast<size_t>(num_servers), 1.0)
    {
    }

    /** Build the free-GPU counts; call once the nvlink flags are set. */
    void
    countServers(int gpus_per_server)
    {
        for (auto &counts : servers_with)
            counts.assign(static_cast<size_t>(gpus_per_server) + 1, 0);
        total_free = 0;
        for (size_t s = 0; s < free_gpus.size(); ++s) {
            ++servers_with[nvlink[s]][static_cast<size_t>(free_gpus[s])];
            total_free += free_gpus[s];
        }
    }

    void
    take(const Allocation &alloc)
    {
        for (auto [s, g] : alloc) {
            assert(free_gpus[static_cast<size_t>(s)] >= g);
            adjust(static_cast<size_t>(s), -g);
        }
    }

    void
    release(const Allocation &alloc)
    {
        for (auto [s, g] : alloc)
            adjust(static_cast<size_t>(s), g);
    }

    /**
     * Servers with at least @p gpus free GPUs, counting only NVLink
     * servers when @p nvlink_only.
     */
    int
    serversWithAtLeast(int gpus, bool nvlink_only) const
    {
        int n = 0;
        for (size_t k = static_cast<size_t>(std::max(gpus, 0));
             k < servers_with[1].size(); ++k) {
            n += servers_with[1][k];
            if (!nvlink_only)
                n += servers_with[0][k];
        }
        return n;
    }

    /** Slowest generation among @p alloc's servers. */
    double
    slowestSpeed(const Allocation &alloc) const
    {
        double v = 1.0;
        for (auto [s, g] : alloc) {
            (void)g;
            v = std::min(v, speed[static_cast<size_t>(s)]);
        }
        return v;
    }

  private:
    void
    adjust(size_t s, int delta)
    {
        auto &counts = servers_with[nvlink[s]];
        --counts[static_cast<size_t>(free_gpus[s])];
        free_gpus[s] += delta;
        ++counts[static_cast<size_t>(free_gpus[s])];
        total_free += delta;
    }
};

/**
 * Find a single server with @p gpus free. Non-NVLink servers are
 * preferred unless NVLink is required, preserving scarce NVLink
 * capacity for the jobs that need it. Best-fit additionally prefers
 * the fitting server leaving the fewest GPUs free (then the fastest
 * generation, then scan order) instead of the first hit.
 */
bool
findOneServer(const Capacity &cap, int gpus, bool need_nvlink,
              PlacementStrategy strategy, Allocation *alloc)
{
    if (cap.serversWithAtLeast(gpus, need_nvlink) == 0)
        return false;
    if (strategy == PlacementStrategy::BestFit) {
        // (prefer non-NVLink when allowed, leftover, -speed, index)
        int best = -1;
        auto better = [&](size_t s, int against) {
            if (against < 0)
                return true;
            auto a = static_cast<size_t>(against);
            bool s_nvl = cap.nvlink[s], a_nvl = cap.nvlink[a];
            if (!need_nvlink && s_nvl != a_nvl)
                return a_nvl; // the non-NVLink server wins
            int s_left = cap.free_gpus[s] - gpus;
            int a_left = cap.free_gpus[a] - gpus;
            if (s_left != a_left)
                return s_left < a_left;
            if (cap.speed[s] != cap.speed[a])
                return cap.speed[s] > cap.speed[a];
            return false; // scan order: earlier index already held
        };
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (cap.free_gpus[s] < gpus)
                continue;
            if (need_nvlink && !cap.nvlink[s])
                continue;
            if (better(s, best))
                best = static_cast<int>(s);
        }
        if (best < 0)
            return false;
        alloc->assign(1, {best, gpus});
        return true;
    }

    int fallback = -1;
    for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
        if (cap.free_gpus[s] < gpus)
            continue;
        if (need_nvlink && !cap.nvlink[s])
            continue;
        if (!need_nvlink && cap.nvlink[s]) {
            if (fallback < 0)
                fallback = static_cast<int>(s);
            continue;
        }
        alloc->assign(1, {static_cast<int>(s), gpus});
        return true;
    }
    if (!need_nvlink && fallback >= 0) {
        alloc->assign(1, {fallback, gpus});
        return true;
    }
    return false;
}

/**
 * Find @p count distinct servers with one free GPU each. Best-fit
 * fills the most-fragmented (fewest free GPUs) servers first so the
 * large contiguous blocks stay whole.
 */
bool
findSpreadServers(const Capacity &cap, int count,
                  PlacementStrategy strategy, Allocation *alloc)
{
    alloc->clear();
    if (cap.serversWithAtLeast(1, false) < count)
        return false;
    if (strategy == PlacementStrategy::BestFit) {
        std::vector<int> candidates;
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (cap.free_gpus[s] >= 1)
                candidates.push_back(static_cast<int>(s));
        }
        std::stable_sort(
            candidates.begin(), candidates.end(), [&](int a, int b) {
                auto sa = static_cast<size_t>(a);
                auto sb = static_cast<size_t>(b);
                if (cap.nvlink[sa] != cap.nvlink[sb])
                    return !cap.nvlink[sa]; // non-NVLink first
                if (cap.free_gpus[sa] != cap.free_gpus[sb])
                    return cap.free_gpus[sa] < cap.free_gpus[sb];
                return a < b;
            });
        for (int s : candidates) {
            if (static_cast<int>(alloc->size()) == count)
                break;
            alloc->push_back({s, 1});
        }
        return static_cast<int>(alloc->size()) == count;
    }
    // Non-NVLink servers first, then NVLink as overflow.
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (static_cast<int>(alloc->size()) == count)
                return true;
            bool is_nvl = cap.nvlink[s];
            if ((pass == 0 && is_nvl) || (pass == 1 && !is_nvl))
                continue;
            if (cap.free_gpus[s] >= 1)
                alloc->push_back({static_cast<int>(s), 1});
        }
    }
    return static_cast<int>(alloc->size()) == count;
}

/** Placement for @p job as-is (no porting decision). */
bool
findFor(const Capacity &cap, const TrainingJob &job,
        const SchedulerConfig &cfg, Allocation *alloc)
{
    switch (job.arch) {
      case ArchType::OneWorkerOneGpu:
        return findOneServer(cap, 1, false, cfg.placement, alloc);
      case ArchType::OneWorkerMultiGpu:
        return findOneServer(cap, job.num_cnodes, false,
                             cfg.placement, alloc);
      case ArchType::PsWorker:
        return findSpreadServers(cap, job.num_cnodes, cfg.placement,
                                 alloc);
      case ArchType::AllReduceLocal:
      case ArchType::Pearl:
        return findOneServer(cap, job.num_cnodes, true,
                             cfg.placement, alloc);
      case ArchType::AllReduceCluster: {
        // Whole NVLink servers, packed.
        int need = job.num_cnodes;
        alloc->clear();
        if (cap.serversWithAtLeast(cfg.gpus_per_server, true) *
                cfg.gpus_per_server <
            need) {
            return false;
        }
        for (size_t s = 0; s < cap.free_gpus.size() && need > 0;
             ++s) {
            if (!cap.nvlink[s] ||
                cap.free_gpus[s] < cfg.gpus_per_server) {
                continue;
            }
            int take = std::min(need, cfg.gpus_per_server);
            alloc->push_back({static_cast<int>(s), take});
            need -= take;
        }
        return need == 0;
      }
    }
    return false;
}

/** True when the policy orders or gates the queue by predictions. */
bool
predictionDriven(Policy p)
{
    return p == Policy::Spf || p == Policy::SpfPreempt ||
           p == Policy::Gang;
}

/**
 * The spf queue: queued requests ordered by (predicted remaining
 * seconds, arrival index), split into shapes. A shape groups the
 * jobs whose placement feasibility is the same function of capacity
 * (the port-or-plain path, the planned arch and cNodes), so when a
 * shape's head does not fit, none of its jobs fits either.
 */
class SpfQueue
{
  public:
    using Entry = std::pair<double, size_t>; // (predicted s, request)

    explicit SpfQueue(size_t num_requests) : shape_of_(num_requests) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    push(const std::tuple<bool, int, int> &shape_key, Entry e)
    {
        auto [it, fresh] = shape_ids_.try_emplace(shape_key,
                                                  shapes_.size());
        if (fresh)
            shapes_.emplace_back();
        shapes_[it->second].insert(e);
        shape_of_[e.second] = it->second;
        ++size_;
    }

    void
    erase(Entry e)
    {
        shapes_[shape_of_[e.second]].erase(e);
        --size_;
    }

    /** The queue-wide smallest entry; the queue must be non-empty. */
    Entry
    front() const
    {
        Entry best{kInf, std::numeric_limits<size_t>::max()};
        for (const auto &shape : shapes_) {
            if (!shape.empty())
                best = std::min(best, *shape.begin());
        }
        return best;
    }

    /**
     * One pass in queue order: offer each shape's head to @p place
     * (true = placed and dequeued), smallest head first. A head that
     * does not fit drops its whole shape for the rest of the pass;
     * capacity only shrinks during a pass, so it could not fit later
     * either.
     */
    template <typename Place>
    void
    pass(Place &&place)
    {
        using Head = std::pair<Entry, size_t>; // (head, shape)
        std::priority_queue<Head, std::vector<Head>, std::greater<>>
            heads;
        for (size_t shape = 0; shape < shapes_.size(); ++shape) {
            if (!shapes_[shape].empty())
                heads.push({*shapes_[shape].begin(), shape});
        }
        while (!heads.empty()) {
            auto [e, shape] = heads.top();
            heads.pop();
            if (!place(e.second))
                continue;
            erase(e);
            if (!shapes_[shape].empty())
                heads.push({*shapes_[shape].begin(), shape});
        }
    }

  private:
    std::map<std::tuple<bool, int, int>, size_t> shape_ids_;
    std::vector<std::set<Entry>> shapes_;
    /** Shape of each queued request, by request index. */
    std::vector<size_t> shape_of_;
    size_t size_ = 0;
};

} // namespace

ClusterScheduler::ClusterScheduler(const SchedulerConfig &cfg,
                                   const core::AnalyticalModel &model)
    : cfg_(cfg), model_(model)
{
    // The config comes straight from user flags: reject it with real
    // errors, which survive release builds. The negated comparisons
    // also reject NaN.
    auto require = [](bool ok, const std::string &what) {
        if (!ok)
            throw std::invalid_argument("ClusterScheduler: " + what);
    };
    require(cfg_.num_servers >= 1,
            "num_servers must be >= 1, got " +
                std::to_string(cfg_.num_servers));
    require(cfg_.gpus_per_server >= 1,
            "gpus_per_server must be >= 1, got " +
                std::to_string(cfg_.gpus_per_server));
    require(cfg_.nvlink_fraction >= 0.0 && cfg_.nvlink_fraction <= 1.0,
            "nvlink_fraction must be in [0, 1], got " +
                std::to_string(cfg_.nvlink_fraction));
    require(cfg_.old_gen_fraction >= 0.0 &&
                cfg_.old_gen_fraction <= 1.0,
            "old_gen_fraction must be in [0, 1], got " +
                std::to_string(cfg_.old_gen_fraction));
    require(cfg_.preempt_ratio > 1.0,
            "preempt_ratio must be > 1 (preemption does not terminate "
            "otherwise), got " + std::to_string(cfg_.preempt_ratio));
}

bool
ClusterScheduler::placeable(const TrainingJob &job) const
{
    int nvl_servers = static_cast<int>(cfg_.num_servers *
                                       cfg_.nvlink_fraction);
    switch (job.arch) {
      case ArchType::OneWorkerOneGpu:
        return true;
      case ArchType::OneWorkerMultiGpu:
      case ArchType::Pearl:
        return job.num_cnodes <= cfg_.gpus_per_server &&
               (job.arch != ArchType::Pearl || nvl_servers >= 1);
      case ArchType::PsWorker:
        return job.num_cnodes <= cfg_.num_servers;
      case ArchType::AllReduceLocal:
        return job.num_cnodes <= cfg_.gpus_per_server &&
               nvl_servers >= 1;
      case ArchType::AllReduceCluster:
        return nvl_servers * cfg_.gpus_per_server >= job.num_cnodes;
    }
    return false;
}

ClusterOutcome
ClusterScheduler::run(std::vector<JobRequest> requests) const
{
    obs::Span run_span("clustersim.run",
                       static_cast<int64_t>(requests.size()));
    static obs::Counter &placement_attempts =
        obs::counter("clustersim.placement_attempts");
    static obs::Counter &placement_failures =
        obs::counter("clustersim.placement_failures");

    std::stable_sort(requests.begin(), requests.end(),
                     [](const JobRequest &a, const JobRequest &b) {
                         return a.submit_time < b.submit_time;
                     });

    Capacity cap(cfg_.num_servers, cfg_.gpus_per_server);
    int nvl_servers = static_cast<int>(cfg_.num_servers *
                                       cfg_.nvlink_fraction);
    for (int s = 0; s < nvl_servers; ++s)
        cap.nvlink[static_cast<size_t>(s)] = true;
    // Heterogeneous generations occupy the tail of the server range,
    // clamped so they never eat into the NVLink head: placeable()
    // promises nvl_servers NVLink servers and admission relies on it.
    int old_servers =
        std::min(static_cast<int>(cfg_.num_servers *
                                  cfg_.old_gen_fraction),
                 cfg_.num_servers - nvl_servers);
    const auto generations = hw::paiGenerations();
    int old_gens = static_cast<int>(generations.size()) - 1;
    for (int k = 0; k < old_servers && old_gens > 0; ++k) {
        const hw::GpuGeneration &g =
            generations[static_cast<size_t>(1 + k % old_gens)];
        auto s = static_cast<size_t>(cfg_.num_servers - 1 - k);
        cap.speed[s] = g.speed;
        cap.nvlink[s] = cap.nvlink[s] && g.has_nvlink;
    }
    cap.countServers(cfg_.gpus_per_server);

    // Completion events run on a sharded discrete-event engine: a
    // job's finish event lives on the shard of its first allocated
    // server, so completions at the same timestamp on different
    // domains drain in parallel. Releases commute (they only add
    // capacity back), which keeps the outcome byte-identical for any
    // shard count, including the serial shards=1 fast path.
    int num_shards = sim::shardCount();
    sim::ShardedEngine engine(num_shards, /*lookahead=*/0.0,
                              runtime::globalPool());

    // Timeline probes: scheduler-loop observations sampled at the
    // simulated-time cadence (levels are "as seen by the control
    // loop" at each pass; rates count admissions/preemptions/drops).
    // A record_timeline=false run (the FIFO comparison) suspends the
    // process-wide timeline so the engine's probes stay quiet too.
    std::optional<obs::TimelineSuspend> tl_suspend;
    if (!cfg_.record_timeline)
        tl_suspend.emplace();
    obs::Timeline *tl =
        obs::timelineActive() ? obs::timeline() : nullptr;
    obs::Timeline::Level *tl_pending =
        tl ? &tl->level("clustersim.pending_jobs") : nullptr;
    obs::Timeline::Level *tl_running =
        tl ? &tl->level("clustersim.running_jobs") : nullptr;
    obs::Timeline::Level *tl_free_gpus =
        tl ? &tl->level("clustersim.free_gpus") : nullptr;
    obs::Timeline::Rate *tl_arrivals =
        tl ? &tl->rate("clustersim.arrivals") : nullptr;
    obs::Timeline::Rate *tl_preemptions =
        tl ? &tl->rate("clustersim.preemptions") : nullptr;
    obs::Timeline::Rate *tl_unplaceable =
        tl ? &tl->rate("clustersim.unplaceable") : nullptr;

    // In-flight jobs, indexed by slot; finished slots are recycled
    // through a free list so long traces do not grow the table past
    // the peak concurrency. The generation counter invalidates the
    // completion event of a preempted job: the stale event still
    // fires but its (slot, gen) pair no longer matches.
    struct Slot
    {
        Allocation alloc;
        TrainingJob executed;
        size_t req = 0;
        size_t out = 0;
        double seg_start = 0.0;
        double step_s = 0.0;
        double pred_finish = kInf;
        int64_t steps_left = 0;
        uint64_t gen = 0;
        int gpus = 0;
        bool active = false;
    };
    std::vector<Slot> slots;
    std::vector<size_t> free_slots;
    // Per-shard buffers of (slot, gen) whose completion fired in the
    // last drain; a shard's completion callbacks are the only
    // writers of its buffer, so no locks are needed.
    std::vector<std::vector<std::pair<size_t, uint64_t>>> finished(
        static_cast<size_t>(engine.numShards()));

    ClusterOutcome out;
    out.jobs.reserve(requests.size());
    // Queued requests (indices into requests): arrival order for fifo,
    // backfill and gang, the shape-split index for spf and
    // spf-preempt.
    const bool spf_order = cfg_.policy == Policy::Spf ||
                           cfg_.policy == Policy::SpfPreempt;
    std::deque<size_t> pending;
    SpfQueue spf_queue(requests.size());
    size_t arrival = 0;
    double now = 0.0;
    double gpu_seconds = 0.0;
    int running = 0; // active slots

    // Refresh the timeline level probes with the control loop's view
    // of the cluster at `now`. Last-set-wins within a window, so the
    // value sampled at each window close is the state just before
    // time crossed the boundary.
    auto sampleLevels = [&] {
        if (!tl)
            return;
        tl_pending->set(
            static_cast<double>(pending.size() + spf_queue.size()));
        tl_running->set(static_cast<double>(running));
        tl_free_gpus->set(static_cast<double>(cap.total_free));
    };

    // As-submitted step times are pure per-job model evaluations:
    // price them up front in parallel. Ported placements execute a
    // different architecture and are priced on demand.
    std::vector<double> submitted_step = runtime::parallelMap<double>(
        runtime::globalPool(), requests.size(), [&](size_t i) {
            return model_.stepTime(requests[i].job);
        });

    // Predicted run seconds per request (policy ordering input): the
    // configured predictor, else the analytical prediction itself.
    const bool wants_predictions =
        predictionDriven(cfg_.policy) ||
        (cfg_.policy == Policy::Backfill && cfg_.predictor);
    std::vector<double> pred_run;
    std::vector<double> pred_per_step;
    if (wants_predictions) {
        pred_run = runtime::parallelMap<double>(
            runtime::globalPool(), requests.size(), [&](size_t i) {
                double model_run =
                    submitted_step[i] *
                    static_cast<double>(requests[i].num_steps);
                if (!cfg_.predictor)
                    return model_run;
                double p = cfg_.predictor(requests[i].job,
                                          requests[i].num_steps,
                                          model_run);
                return std::isfinite(p) && p >= 0.0 ? p : model_run;
            });
        pred_per_step.resize(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            pred_per_step[i] =
                pred_run[i] /
                static_cast<double>(requests[i].num_steps);
        }
    }
    // Predicted *remaining* run seconds; shrinks when a preempted
    // job is re-queued with only its unfinished steps.
    std::vector<double> pred_remaining = pred_run;

    // Per-request mutable state across preemption/restart cycles.
    std::vector<int64_t> steps_remaining(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        steps_remaining[i] = requests[i].num_steps;
    std::vector<int64_t> attempts(requests.size(), 0);
    constexpr size_t kNoOutcome = static_cast<size_t>(-1);
    std::vector<size_t> out_index(requests.size(), kNoOutcome);
    // A restarted job resumes its pinned execution plan (same
    // architecture/porting decision), as a checkpoint restore would.
    std::vector<std::optional<TrainingJob>> pinned_exec(
        requests.size());

    // A first start of an eligible PS/Worker job tries an
    // AllReduce-Local port before its own placement.
    auto portable = [&](const TrainingJob &job) {
        return cfg_.port_ps_to_allreduce &&
               job.arch == ArchType::PsWorker &&
               job.features.weightBytes() <= cfg_.gpu_memory_bytes;
    };

    // Queue a request under the policy's order. Its spf shape is what
    // tryPlace() searches for: a restart's pinned plan, else the job
    // as submitted plus whether it may port. Pinned and unpinned
    // plans of one arch and size search identically.
    auto enqueue = [&](size_t req_index) {
        if (!spf_order) {
            pending.push_back(req_index);
            return;
        }
        const TrainingJob &job = pinned_exec[req_index]
                                     ? *pinned_exec[req_index]
                                     : requests[req_index].job;
        bool port = !pinned_exec[req_index] && portable(job);
        spf_queue.push({port, static_cast<int>(job.arch), job.num_cnodes},
                       {pred_remaining[req_index], req_index});
    };

    auto emitJobRecord = [&](size_t req_index, const JobOutcome &jo,
                             const TrainingJob &executed,
                             int server) {
        if (!cfg_.record_job_log || !obs::jobLogActive())
            return;
        const JobRequest &req = requests[req_index];
        obs::JobRecord rec;
        rec.job_id = jo.job_id;
        rec.source = "clustersim";
        rec.arch = workload::toString(req.job.arch);
        rec.executed_arch = workload::toString(executed.arch);
        rec.ported = jo.ported;
        rec.num_cnodes = executed.num_cnodes;
        rec.gpus = jo.gpus;
        rec.server = server;
        rec.num_steps = req.num_steps;
        rec.placement_attempts = attempts[req_index];
        rec.submit_s = jo.submit_time;
        rec.start_s = jo.start_time;
        rec.finish_s = jo.finish_time;
        // Predicted = the job as submitted; simulated = the job as
        // executed under its actual placement, so porting, generation
        // slowdown and preemption effects become the recorded skew.
        core::TimeBreakdown pred = model_.breakdown(req.job);
        rec.pred_td_s = pred.t_data;
        rec.pred_tc_flops_s = pred.t_comp_flops;
        rec.pred_tc_mem_s = pred.t_comp_mem;
        rec.pred_tw_s = pred.t_weight;
        rec.pred_step_s = pred.total();
        core::TimeBreakdown sim = model_.breakdown(executed);
        rec.sim_td_s = sim.t_data;
        rec.sim_tc_s = sim.compute();
        rec.sim_tw_s = sim.t_weight;
        rec.sim_step_s = jo.step_s;
        obs::recordJob(std::move(rec));
    };

    // Attempt to place one request; on success records/updates the
    // outcome and consumes capacity.
    auto tryPlace = [&](size_t req_index) -> bool {
        const JobRequest &req = requests[req_index];
        placement_attempts.add();
        ++attempts[req_index];
        const TrainingJob &job = req.job;
        Allocation alloc;
        // The plan to execute; a ported plan is built only once its
        // placement is found.
        const TrainingJob *plan = &job;
        std::optional<TrainingJob> ported_plan;

        if (pinned_exec[req_index]) {
            // Restart after preemption: resume the recorded plan.
            plan = &*pinned_exec[req_index];
        } else if (portable(job)) {
            int n = std::min(job.num_cnodes, cfg_.gpus_per_server);
            if (findOneServer(cap, n, /*need_nvlink=*/true,
                              cfg_.placement, &alloc)) {
                ported_plan.emplace(job);
                ported_plan->arch = ArchType::AllReduceLocal;
                ported_plan->num_cnodes = n;
                ported_plan->num_ps = 0;
                plan = &*ported_plan;
            }
        }
        if (!ported_plan && !findFor(cap, *plan, cfg_, &alloc)) {
            placement_failures.add();
            return false;
        }
        const TrainingJob &executed = *plan;
        bool ported = executed.arch != job.arch;

        cap.take(alloc);
        double base_step = ported ? model_.stepTime(executed)
                                  : submitted_step[req_index];
        // Older generations stretch every step by 1/speed.
        double step = base_step / cap.slowestSpeed(alloc);
        int64_t steps_left = steps_remaining[req_index];
        double runtime = step * static_cast<double>(steps_left);
        int gpus = 0;
        for (auto [s, g] : alloc) {
            (void)s;
            gpus += g;
        }

        size_t oi = out_index[req_index];
        if (oi == kNoOutcome) {
            JobOutcome jo;
            jo.job_id = job.id;
            jo.submit_time = req.submit_time;
            jo.start_time = now;
            jo.finish_time = now + runtime;
            jo.executed_arch = executed.arch;
            jo.ported = ported;
            jo.gpus = gpus;
            jo.step_s = step;
            jo.num_steps = req.num_steps;
            jo.predicted_run_s = wants_predictions
                                     ? pred_run[req_index]
                                     : submitted_step[req_index] *
                                           static_cast<double>(
                                               req.num_steps);
            oi = out.jobs.size();
            out_index[req_index] = oi;
            out.jobs.push_back(std::move(jo));
            out.ported_jobs += ported;
        } else {
            // Restart: keep first-start fields, refresh execution.
            JobOutcome &jo = out.jobs[oi];
            jo.finish_time = now + runtime;
            jo.step_s = step;
            jo.gpus = gpus;
        }
        gpu_seconds += gpus * runtime;

        if (std::isfinite(runtime)) {
            size_t slot;
            if (!free_slots.empty()) {
                slot = free_slots.back();
                free_slots.pop_back();
            } else {
                slot = slots.size();
                slots.push_back(Slot{});
            }
            Slot &sl = slots[slot];
            sl.alloc = std::move(alloc);
            sl.executed = executed;
            sl.req = req_index;
            sl.out = oi;
            sl.seg_start = now;
            sl.step_s = step;
            sl.steps_left = steps_left;
            sl.pred_finish =
                wants_predictions
                    ? now + pred_per_step[req_index] *
                                static_cast<double>(steps_left)
                    : now + runtime;
            sl.gpus = gpus;
            sl.active = true;
            ++running;
            uint64_t gen = ++sl.gen;
            int shard = sl.alloc.front().first % engine.numShards();
            engine.schedule(shard, now + runtime,
                            [&finished, shard, slot, gen] {
                                finished[static_cast<size_t>(shard)]
                                    .push_back({slot, gen});
                            });
        } else {
            // A non-finite finish never fires: the job holds its
            // GPUs forever, exactly as the old priority-queue loop
            // (which broke out before ever popping it) behaved. The
            // outcome is final, so the record is emitted here.
            emitJobRecord(req_index, out.jobs[oi], executed,
                          alloc.empty() ? -1 : alloc.front().first);
        }
        return true;
    };

    // Earliest predicted time the queue head could start, assuming
    // running jobs release at their *predicted* finishes (EASY
    // backfill's reservation). +inf when some blocking job never
    // finishes.
    auto reservationTime = [&](size_t head_req) -> double {
        Capacity sim_cap = cap;
        Allocation scratch;
        std::vector<std::pair<double, size_t>> releases;
        for (size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].active)
                releases.push_back({slots[s].pred_finish, s});
        }
        std::sort(releases.begin(), releases.end(),
                  [&](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return slots[a.second].out < slots[b.second].out;
                  });
        const TrainingJob &job = requests[head_req].job;
        for (auto [t, s] : releases) {
            if (!std::isfinite(t))
                break;
            sim_cap.release(slots[s].alloc);
            if (findFor(sim_cap, job, cfg_, &scratch))
                return std::max(now, t);
        }
        return kInf;
    };

    // Preempt the running job in @p slot at `now`, re-queueing its
    // remaining steps. Work conservation: completed steps stay
    // completed; only the partial step in flight is redone.
    auto preempt = [&](size_t slot) {
        Slot &sl = slots[slot];
        assert(sl.active);
        auto done = static_cast<int64_t>(
            std::floor((now - sl.seg_start) / sl.step_s + 1e-9));
        done = std::clamp<int64_t>(done, 0, sl.steps_left - 1);
        int64_t left = sl.steps_left - done;

        // Return the unexecuted share of the GPU-seconds charged at
        // placement.
        gpu_seconds -=
            sl.gpus * (sl.step_s * static_cast<double>(sl.steps_left) -
                       (now - sl.seg_start));
        cap.release(sl.alloc);

        JobOutcome &jo = out.jobs[sl.out];
        if (jo.segments.empty())
            jo.segments.push_back({jo.start_time, now});
        else
            jo.segments.push_back({sl.seg_start, now});
        ++jo.preemptions;
        ++out.preemptions;
        if (tl_preemptions)
            tl_preemptions->add();

        steps_remaining[sl.req] = left;
        if (wants_predictions) {
            pred_remaining[sl.req] =
                pred_per_step[sl.req] * static_cast<double>(left);
        }
        pinned_exec[sl.req] = sl.executed;
        enqueue(sl.req);

        ++sl.gen; // invalidate the in-flight completion event
        sl.active = false;
        --running;
        sl.alloc.clear();
        free_slots.push_back(slot);
    };

    // Nothing fits: let the queue head @p head preempt the running
    // jobs with the longest predicted remaining time, one at a time,
    // while the imbalance is worth a restart. True once the head is
    // placed (and dequeued).
    auto preemptFor = [&](SpfQueue::Entry head) -> bool {
        while (true) {
            size_t victim = static_cast<size_t>(-1);
            double victim_rem = -1.0;
            for (size_t s = 0; s < slots.size(); ++s) {
                const Slot &sl = slots[s];
                if (!sl.active)
                    continue;
                if (out.jobs[sl.out].preemptions >=
                    cfg_.max_preemptions) {
                    continue;
                }
                auto done = static_cast<int64_t>(std::floor(
                    (now - sl.seg_start) / sl.step_s + 1e-9));
                done = std::clamp<int64_t>(done, 0, sl.steps_left - 1);
                double rem = pred_per_step[sl.req] *
                             static_cast<double>(sl.steps_left - done);
                if (rem > victim_rem ||
                    (rem == victim_rem &&
                     victim != static_cast<size_t>(-1) &&
                     sl.out < slots[victim].out)) {
                    victim = s;
                    victim_rem = rem;
                }
            }
            if (victim == static_cast<size_t>(-1) ||
                victim_rem <= cfg_.preempt_ratio * head.first) {
                return false;
            }
            preempt(victim);
            if (tryPlace(head.second)) {
                spf_queue.erase(head);
                return true;
            }
        }
    };

    // One scheduling pass over the queue at time `now`, under the
    // configured policy. Returns when no further job can start.
    auto schedulePass = [&] {
        switch (cfg_.policy) {
          case Policy::Fifo: {
            while (!pending.empty() && tryPlace(pending.front()))
                pending.pop_front();
            break;
          }
          case Policy::Backfill: {
            if (!cfg_.predictor) {
                // Greedy skip-ahead (the original behavior): any
                // fitting job starts, in queue order.
                bool progress = true;
                while (progress && !pending.empty()) {
                    progress = false;
                    for (auto it = pending.begin();
                         it != pending.end(); ++it) {
                        if (tryPlace(*it)) {
                            pending.erase(it);
                            progress = true;
                            break;
                        }
                    }
                }
                break;
            }
            [[fallthrough]];
          }
          case Policy::Gang: {
            // EASY: drain the head chain, then let later jobs start
            // only when their predicted completion respects the
            // head's reservation. Gang additionally restricts
            // backfill to single-GPU jobs.
            bool gang = cfg_.policy == Policy::Gang;
            bool progress = true;
            while (progress) {
                progress = false;
                while (!pending.empty() &&
                       tryPlace(pending.front())) {
                    pending.pop_front();
                    progress = true;
                }
                if (pending.empty())
                    break;
                double t_res = reservationTime(pending.front());
                for (auto it = std::next(pending.begin());
                     it != pending.end(); ++it) {
                    if (gang && requests[*it].job.num_cnodes > 1)
                        continue;
                    if (std::isfinite(t_res) &&
                        now + pred_remaining[*it] > t_res) {
                        continue;
                    }
                    if (tryPlace(*it)) {
                        pending.erase(it);
                        progress = true;
                        break;
                    }
                }
            }
            break;
          }
          case Policy::Spf:
          case Policy::SpfPreempt: {
            // One pass places every job that fits, in queue order.
            // Nothing fits afterwards, which is where spf-preempt may
            // free capacity for the queue head; a head placed that way
            // changes capacity, so another pass follows.
            while (true) {
                spf_queue.pass(tryPlace);
                if (cfg_.policy != Policy::SpfPreempt ||
                    spf_queue.empty() || !preemptFor(spf_queue.front())) {
                    break;
                }
            }
            break;
          }
        }
    };

    while (arrival < requests.size() || !pending.empty() ||
           !spf_queue.empty() ||
           engine.pending() > 0) {
        // Admit all submissions up to `now`, dropping jobs the
        // cluster can never host (e.g. more cNodes than NVLink
        // capacity). Admitting them would starve the queue forever
        // under FIFO -- this must hold in release builds too, so it
        // is a counted drop rather than an assert.
        while (arrival < requests.size() &&
               requests[arrival].submit_time <= now) {
            if (placeable(requests[arrival].job)) {
                enqueue(arrival);
                if (tl_arrivals)
                    tl_arrivals->add();
            } else {
                ++out.unplaceable_jobs;
                if (tl_unplaceable)
                    tl_unplaceable->add();
                obs::counter("clustersim.unplaceable_jobs").add();
                if (cfg_.record_job_log && obs::jobLogActive()) {
                    const JobRequest &req = requests[arrival];
                    obs::JobRecord rec;
                    rec.job_id = req.job.id;
                    rec.source = "clustersim";
                    rec.status = "dropped";
                    rec.arch = workload::toString(req.job.arch);
                    rec.executed_arch = rec.arch;
                    rec.num_cnodes = req.job.num_cnodes;
                    rec.num_steps = req.num_steps;
                    rec.submit_s = req.submit_time;
                    rec.start_s = req.submit_time;
                    rec.finish_s = req.submit_time;
                    core::TimeBreakdown pred =
                        model_.breakdown(req.job);
                    rec.pred_td_s = pred.t_data;
                    rec.pred_tc_flops_s = pred.t_comp_flops;
                    rec.pred_tc_mem_s = pred.t_comp_mem;
                    rec.pred_tw_s = pred.t_weight;
                    rec.pred_step_s = pred.total();
                    obs::recordJob(std::move(rec));
                }
            }
            ++arrival;
        }

        // Schedule from the queue under the policy.
        schedulePass();
        sampleLevels();

        // Advance time to the next event.
        double next = std::numeric_limits<double>::infinity();
        if (arrival < requests.size())
            next = requests[arrival].submit_time;
        next = std::min(next, engine.nextEventTime());
        if (!std::isfinite(next))
            break; // queue non-empty but nothing can ever finish
        now = std::max(now, next);

        // Fire every completion up to `now` and release its GPUs. A
        // (slot, gen) pair that no longer matches belongs to a
        // preempted-and-restarted job: its stale event is a no-op.
        engine.runUntil(now);
        for (auto &shard_done : finished) {
            for (auto [slot, gen] : shard_done) {
                Slot &sl = slots[slot];
                if (!sl.active || sl.gen != gen)
                    continue;
                cap.release(sl.alloc);
                JobOutcome &jo = out.jobs[sl.out];
                if (!jo.segments.empty())
                    jo.segments.push_back(
                        {sl.seg_start, jo.finish_time});
                emitJobRecord(sl.req, jo, sl.executed,
                              sl.alloc.empty()
                                  ? -1
                                  : sl.alloc.front().first);
                sl.active = false;
                --running;
                sl.alloc.clear();
                free_slots.push_back(slot);
            }
            shard_done.clear();
        }
        sampleLevels();
    }
    // Every admitted job is placeable on an empty cluster, so the
    // queue always drains once the running set does.
    assert(pending.empty() && spf_queue.empty() &&
           "placeable job starved the queue");

    // Aggregate metrics.
    obs::counter("clustersim.jobs_scheduled").add(out.jobs.size());
    obs::counter("clustersim.jobs_ported")
        .add(static_cast<uint64_t>(out.ported_jobs));
    obs::counter("clustersim.preemptions")
        .add(static_cast<uint64_t>(out.preemptions));
    static obs::Histogram &wait_hist =
        obs::histogram("clustersim.wait_s");
    stats::WeightedCdf waits;
    for (const JobOutcome &jo : out.jobs) {
        out.makespan = std::max(out.makespan, jo.finish_time);
        waits.add(jo.wait());
        wait_hist.observe(jo.wait());
    }
    if (!out.jobs.empty()) {
        out.mean_wait = waits.mean();
        out.p95_wait = waits.quantile(0.95);
        double total =
            static_cast<double>(cfg_.num_servers) *
            cfg_.gpus_per_server * out.makespan;
        out.gpu_utilization = total > 0.0 ? gpu_seconds / total : 0.0;
    }
    return out;
}

std::vector<JobRequest>
poissonRequests(const std::vector<TrainingJob> &jobs,
                double jobs_per_hour, double steps_median,
                double steps_sigma, uint64_t seed)
{
    if (!(jobs_per_hour > 0.0) || !std::isfinite(jobs_per_hour)) {
        throw std::invalid_argument(
            "poissonRequests: jobs_per_hour must be positive and "
            "finite, got " + std::to_string(jobs_per_hour));
    }
    if (!(steps_median >= 1.0) || !std::isfinite(steps_median) ||
        !(steps_sigma >= 0.0) || !std::isfinite(steps_sigma)) {
        throw std::invalid_argument(
            "poissonRequests: steps_median must be >= 1 and "
            "steps_sigma >= 0, both finite");
    }
    stats::Rng rng(seed);
    std::vector<JobRequest> requests;
    requests.reserve(jobs.size());
    double rate_per_sec = jobs_per_hour / 3600.0;
    double t = 0.0;
    for (const TrainingJob &job : jobs) {
        t += -std::log(1.0 - rng.uniform()) / rate_per_sec;
        JobRequest req;
        req.job = job;
        req.submit_time = t;
        req.num_steps = std::max<int64_t>(
            1, static_cast<int64_t>(std::llround(rng.logNormal(
                   std::log(steps_median), steps_sigma))));
        requests.push_back(std::move(req));
    }
    return requests;
}

} // namespace paichar::clustersim
