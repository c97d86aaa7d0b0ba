#include "scheduler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
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

bool
predictionDriven(Policy p)
{
    return p == Policy::Spf || p == Policy::SpfPreempt ||
           p == Policy::Gang;
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

    /**
     * An idle cluster. NVLink servers head the range; older
     * generations take its tail but never the NVLink head, whose
     * size placeable() promises and admission relies on.
     */
    explicit Capacity(const SchedulerConfig &cfg)
        : free_gpus(static_cast<size_t>(cfg.num_servers),
                    cfg.gpus_per_server),
          nvlink(static_cast<size_t>(cfg.num_servers), false),
          speed(static_cast<size_t>(cfg.num_servers), 1.0)
    {
        int nvl_servers =
            static_cast<int>(cfg.num_servers * cfg.nvlink_fraction);
        for (int s = 0; s < nvl_servers; ++s)
            nvlink[static_cast<size_t>(s)] = true;
        int old_servers = std::min(
            static_cast<int>(cfg.num_servers * cfg.old_gen_fraction),
            cfg.num_servers - nvl_servers);
        const auto generations = hw::paiGenerations();
        int old_gens = static_cast<int>(generations.size()) - 1;
        for (int k = 0; k < old_servers && old_gens > 0; ++k) {
            const hw::GpuGeneration &g =
                generations[static_cast<size_t>(1 + k % old_gens)];
            auto s = static_cast<size_t>(cfg.num_servers - 1 - k);
            speed[s] = g.speed;
            nvlink[s] = nvlink[s] && g.has_nvlink;
        }
        for (auto &counts : servers_with)
            counts.assign(static_cast<size_t>(cfg.gpus_per_server) + 1, 0);
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

/**
 * A queued job's placement search: the port-or-plain path, the
 * planned arch and cNodes. Jobs of one shape fit or fail together.
 */
struct Shape
{
    bool port = false;
    int arch = 0;
    int cnodes = 0;

    auto operator<=>(const Shape &) const = default;
};

/**
 * The queue every policy schedules from: queued requests split into
 * shapes, each a set ordered by (key, request index). The key is the
 * predicted remaining seconds under spf and spf-preempt and the
 * request index, i.e. arrival order, under fifo, backfill and gang.
 * The heads of the non-empty shapes are kept in a map of their own,
 * so the queue-wide head is O(1).
 */
class ShapeQueue
{
  public:
    using Entry = std::pair<double, size_t>; // (key, request)

    explicit ShapeQueue(size_t num_requests) : shape_of_(num_requests) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The queue-wide smallest entry; the queue must be non-empty. */
    Entry front() const { return heads_.begin()->first; }

    /** The shape queued request @p req belongs to. */
    const Shape &shapeOf(size_t req) const { return shape_of_[req]->first; }

    void
    push(const Shape &shape, Entry e)
    {
        auto it = shapes_.try_emplace(shape).first;
        std::set<Entry> &entries = it->second;
        if (entries.empty() || e < *entries.begin()) {
            if (!entries.empty())
                heads_.erase(*entries.begin());
            heads_.emplace(e, it);
        }
        entries.insert(e);
        shape_of_[e.second] = it;
        ++size_;
    }

    void
    erase(Entry e)
    {
        auto it = shape_of_[e.second];
        std::set<Entry> &entries = it->second;
        if (e == *entries.begin()) {
            heads_.erase(e);
            if (entries.size() > 1)
                heads_.emplace(*std::next(entries.begin()), it);
        }
        entries.erase(e);
        --size_;
    }

    /**
     * One pass in queue order: offer entries to @p place (true =
     * placed, and the entry is dequeued), smallest first. Shapes for
     * which @p skip_shape holds are left out, and so are entries (by
     * request) for which @p skip_entry holds: those are walked past
     * inside their shape before its first remaining entry goes on the
     * heap. An offered entry that does not fit drops its whole shape
     * for the rest of the pass; capacity only shrinks during a pass,
     * so no later entry of the shape could fit either.
     */
    template <typename SkipShape, typename SkipEntry, typename Place>
    void
    pass(SkipShape &&skip_shape, SkipEntry &&skip_entry, Place &&place)
    {
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
            heap;
        auto offerFrom = [&](const std::set<Entry> &entries,
                             std::set<Entry>::const_iterator it) {
            for (; it != entries.end(); ++it) {
                if (!skip_entry(it->second)) {
                    heap.push(*it);
                    return;
                }
            }
        };
        for (const auto &[head, shape] : heads_) {
            if (!skip_shape(shape->first))
                offerFrom(shape->second, shape->second.begin());
        }
        while (!heap.empty()) {
            Entry e = heap.top();
            heap.pop();
            if (!place(e.second))
                continue;
            erase(e);
            const std::set<Entry> &entries = shape_of_[e.second]->second;
            offerFrom(entries, entries.upper_bound(e));
        }
    }

  private:
    using Shapes = std::map<Shape, std::set<Entry>>;
    Shapes shapes_;
    /** The head entry of every non-empty shape, and that shape. */
    std::map<Entry, Shapes::iterator> heads_;
    /** Shape of each queued request, by request index. */
    std::vector<Shapes::iterator> shape_of_;
    size_t size_ = 0;
};

/** One ClusterScheduler::run: state as members, one function per phase. */
class SchedulerRun
{
  public:
    SchedulerRun(const ClusterScheduler &sched, const SchedulerConfig &cfg,
                 const core::AnalyticalModel &model,
                 const std::vector<JobRequest> &requests)
        : sched_(sched), cfg_(cfg), model_(model), requests_(requests),
          spf_order_(cfg.policy == Policy::Spf ||
                     cfg.policy == Policy::SpfPreempt),
          cap_(cfg), queue_(requests.size()),
          attempts_(requests.size(), 0),
          out_index_(requests.size(), kNone),
          pinned_exec_(requests.size())
    {
        // A record_timeline=false run (the FIFO comparison) suspends
        // the process-wide timeline.
        if (!cfg_.record_timeline)
            tl_suspend_.emplace();
        if (obs::timelineActive()) {
            tl_ = obs::timeline();
            tl_pending_ = &tl_->level("clustersim.pending_jobs");
            tl_running_ = &tl_->level("clustersim.running_jobs");
            tl_free_gpus_ = &tl_->level("clustersim.free_gpus");
            tl_arrivals_ = &tl_->rate("clustersim.arrivals");
            tl_preemptions_ = &tl_->rate("clustersim.preemptions");
            tl_unplaceable_ = &tl_->rate("clustersim.unplaceable");
        }
        out_.jobs.reserve(requests.size());

        // Step times are priced up front (ported plans on demand). A
        // predictor replaces the analytical run prediction under the
        // policies that read predictions.
        const bool wants_predictions =
            predictionDriven(cfg_.policy) ||
            (cfg_.policy == Policy::Backfill && cfg_.predictor);
        reserving_ = !spf_order_ && wants_predictions; // EASY, gang
        submitted_step_ = runtime::parallelMap<double>(
            runtime::globalPool(), requests.size(),
            [&](size_t i) { return model_.stepTime(requests[i].job); });
        for (size_t i = 0; i < requests.size(); ++i) {
            pred_run_.push_back(submitted_step_[i] *
                                static_cast<double>(requests[i].num_steps));
        }
        if (wants_predictions && cfg_.predictor) {
            pred_run_ = runtime::parallelMap<double>(
                runtime::globalPool(), requests.size(), [&](size_t i) {
                    const JobRequest &r = requests[i];
                    double p =
                        cfg_.predictor(r.job, r.num_steps, pred_run_[i]);
                    return std::isfinite(p) && p >= 0.0 ? p : pred_run_[i];
                });
        }
        for (size_t i = 0; i < requests.size(); ++i) {
            steps_remaining_.push_back(requests[i].num_steps);
            pred_per_step_.push_back(
                pred_run_[i] / static_cast<double>(requests[i].num_steps));
        }
        pred_remaining_ = pred_run_;
    }

    /**
     * Run the event loop to the end: admit arrivals, pass, advance
     * `now`, complete. The outcome has no aggregates.
     */
    ClusterOutcome
    loop()
    {
        while (arrival_ < requests_.size() || !queue_.empty() ||
               !completions_.empty()) {
            admitArrivals();
            pass();
            sampleLevels();
            // The next arrival or completion, stale ones included.
            double next = arrival_ < requests_.size()
                              ? requests_[arrival_].submit_time
                              : kInf;
            if (!completions_.empty())
                next = std::min(next, std::get<0>(completions_.top()));
            if (!std::isfinite(next))
                break; // queue non-empty but nothing can ever finish
            now_ = std::max(now_, next);
            complete();
            sampleLevels();
        }
        // Every admitted job is placeable on an empty cluster, so the
        // queue always drains once the running set does.
        assert(queue_.empty() && "placeable job starved the queue");
        if (completed_)
            obs::counter("sim.events_executed").add(events_);
        return std::move(out_);
    }

    /** GPU-seconds the placed jobs ran, preempted work excluded. */
    double gpuSeconds() const { return gpu_seconds_; }

  private:
    static constexpr size_t kNone = static_cast<size_t>(-1);

    // An in-flight job. Freed slots are recycled, so the table holds
    // the peak concurrency and the free list the idle slots. `seq`
    // names the live completion; a preempted job's entry goes stale.
    struct Slot
    {
        Allocation alloc;
        TrainingJob executed;
        size_t req = 0, out = 0;
        double seg_start = 0.0, step_s = 0.0, pred_finish = kInf;
        int64_t steps_left = 0;
        uint64_t seq = 0;
        int gpus = 0;
        bool active = false;
    };

    // A pending completion; equal finishes pop in push (seq) order.
    using Completion = std::tuple<double, uint64_t, size_t>;

    // Admit the submissions up to `now`. A job the cluster can never
    // host would starve the queue forever under FIFO, so it is
    // dropped and counted, in release builds too.
    void
    admitArrivals()
    {
        for (; arrival_ < requests_.size() &&
               requests_[arrival_].submit_time <= now_;
             ++arrival_) {
            if (sched_.placeable(requests_[arrival_].job)) {
                enqueue(arrival_);
                if (tl_arrivals_)
                    tl_arrivals_->add();
                continue;
            }
            ++out_.unplaceable_jobs;
            if (tl_unplaceable_)
                tl_unplaceable_->add();
            obs::counter("clustersim.unplaceable_jobs").add();
            if (cfg_.record_job_log && obs::jobLogActive()) {
                obs::JobRecord rec = submittedRecord(arrival_);
                rec.status = "dropped";
                obs::recordJob(std::move(rec));
            }
        }
    }

    // A first start of an eligible PS/Worker job tries a port first.
    bool
    portable(const TrainingJob &job) const
    {
        return cfg_.port_ps_to_allreduce &&
               job.arch == ArchType::PsWorker &&
               job.features.weightBytes() <= cfg_.gpu_memory_bytes;
    }

    // Queue a request keyed by predicted remaining seconds under spf
    // and spf-preempt, else by arrival, in the shape place() searches:
    // a restart's pinned plan, else the job and whether it may port.
    void
    enqueue(size_t req)
    {
        const TrainingJob &job =
            pinned_exec_[req] ? *pinned_exec_[req] : requests_[req].job;
        bool port = !pinned_exec_[req] && portable(job);
        double key = spf_order_ ? pred_remaining_[req]
                                : static_cast<double>(req);
        queue_.push({port, static_cast<int>(job.arch), job.num_cnodes},
                    {key, req});
    }

    // One scheduling pass at `now`; returns when no job can start.
    void
    pass()
    {
        // 1. Fifo, backfill and gang start the queue head while it
        // fits. Fifo stops behind a blocked head.
        std::optional<Shape> blocked;
        if (!spf_order_) {
            while (!queue_.empty() && place(queue_.front().second))
                queue_.erase(queue_.front());
            if (cfg_.policy == Policy::Fifo || queue_.empty())
                return;
            blocked = queue_.shapeOf(queue_.front().second);
        }
        // 2. One pass places every other job that fits, in queue
        // order. Backfill and gang skip the blocked head's shape, gang
        // every multi-cNode shape, and EASY and gang every job
        // predicted to run past the head's reservation t_res. A job
        // released past t_res may move it, so the pass restarts
        // (DESIGN.md Sec 13).
        const bool gang = cfg_.policy == Policy::Gang;
        for (bool moved = true; moved;) {
            moved = false;
            double t_res =
                reserving_ ? reservationTime(queue_.front().second) : kInf;
            queue_.pass(
                [&](const Shape &shape) {
                    return shape == blocked || (gang && shape.cnodes > 1);
                },
                [&](size_t r) {
                    return reserving_ && now_ + pred_remaining_[r] > t_res;
                },
                [&](size_t r) {
                    if (moved || !place(r))
                        return false;
                    moved = !(placed_release_ <= t_res);
                    return true;
                });
        }
        // 3. Nothing fits now, which is where spf-preempt may free
        // capacity for the queue head; a head placed that way changes
        // capacity, so another pass follows.
        auto never = [](const auto &) { return false; };
        while (cfg_.policy == Policy::SpfPreempt && !queue_.empty() &&
               preemptForHead()) {
            queue_.pass(never, never, [this](size_t r) { return place(r); });
        }
    }

    // Place one request and start it if it fits. A restart resumes
    // its pinned plan; a ported plan is built only once it fits.
    bool
    place(size_t req)
    {
        placement_attempts_.add();
        ++attempts_[req];
        const JobRequest &request = requests_[req];
        const TrainingJob &job = request.job;
        Allocation alloc;
        const TrainingJob *plan =
            pinned_exec_[req] ? &*pinned_exec_[req] : &job;
        std::optional<TrainingJob> ported_plan;
        if (!pinned_exec_[req] && portable(job)) {
            int n = std::min(job.num_cnodes, cfg_.gpus_per_server);
            if (findOneServer(cap_, n, /*need_nvlink=*/true,
                              cfg_.placement, &alloc)) {
                ported_plan.emplace(job);
                ported_plan->arch = ArchType::AllReduceLocal;
                ported_plan->num_cnodes = n;
                ported_plan->num_ps = 0;
                plan = &*ported_plan;
            }
        }
        if (!ported_plan && !findFor(cap_, *plan, cfg_, &alloc)) {
            placement_failures_.add();
            return false;
        }
        // Start it: record the outcome, take the GPUs, push completion.
        const TrainingJob &executed = *plan;
        bool ported = executed.arch != job.arch;
        cap_.take(alloc);
        double base_step =
            ported ? model_.stepTime(executed) : submitted_step_[req];
        // Older generations stretch every step by 1/speed.
        double step = base_step / cap_.slowestSpeed(alloc);
        int64_t steps_left = steps_remaining_[req];
        double runtime = step * static_cast<double>(steps_left);
        int gpus = 0;
        for (const auto &server_gpus : alloc)
            gpus += server_gpus.second;

        size_t oi = out_index_[req];
        if (oi == kNone) {
            oi = out_index_[req] = out_.jobs.size();
            out_.jobs.push_back(
                {.job_id = request.job.id, .submit_time = request.submit_time,
                 .start_time = now_, .executed_arch = executed.arch,
                 .ported = ported, .num_steps = request.num_steps,
                 .predicted_run_s = pred_run_[req], .segments = {}});
            out_.ported_jobs += ported;
        }
        // A restart keeps its first-start fields and refreshes these.
        JobOutcome &jo = out_.jobs[oi];
        jo.finish_time = now_ + runtime;
        jo.step_s = step;
        jo.gpus = gpus;
        gpu_seconds_ += gpus * runtime;

        if (!std::isfinite(jo.finish_time)) {
            // A job that never finishes holds its GPUs forever. Its
            // outcome is final, so the record is emitted here.
            placed_release_ = kInf;
            emitRecord(req, jo, executed, alloc);
            return true;
        }
        if (free_slots_.empty()) {
            free_slots_.push_back(slots_.size());
            slots_.emplace_back();
        }
        size_t slot = free_slots_.back();
        free_slots_.pop_back();
        placed_release_ =
            now_ + pred_per_step_[req] * static_cast<double>(steps_left);
        slots_[slot] = {.alloc = std::move(alloc), .executed = executed,
                        .req = req, .out = oi, .seg_start = now_,
                        .step_s = step, .pred_finish = placed_release_,
                        .steps_left = steps_left, .seq = next_seq_,
                        .gpus = gpus, .active = true};
        completions_.push({jo.finish_time, next_seq_++, slot});
        return true;
    }

    // Earliest predicted time the queue head could start if running
    // jobs release at their predicted finishes, ties in outcome order
    // (EASY's reservation); +inf when a blocking job never finishes.
    double
    reservationTime(size_t head_req) const
    {
        Capacity sim_cap = cap_;
        Allocation scratch;
        std::vector<std::tuple<double, size_t, size_t>> releases;
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (slots_[s].active)
                releases.push_back({slots_[s].pred_finish, slots_[s].out, s});
        }
        std::sort(releases.begin(), releases.end());
        const TrainingJob &job = requests_[head_req].job;
        for (auto [t, out, s] : releases) {
            if (!std::isfinite(t))
                break;
            sim_cap.release(slots_[s].alloc);
            if (findFor(sim_cap, job, cfg_, &scratch))
                return std::max(now_, t);
        }
        return kInf;
    }

    // Steps a running slot has completed by `now`, leaving >= 1 to do.
    int64_t
    completedSteps(const Slot &sl) const
    {
        auto done = static_cast<int64_t>(
            std::floor((now_ - sl.seg_start) / sl.step_s + 1e-9));
        return std::clamp<int64_t>(done, 0, sl.steps_left - 1);
    }

    // Preempt the job in @p slot at `now` and re-queue its remaining
    // steps; only the partial step in flight is redone.
    void
    preempt(size_t slot)
    {
        Slot &sl = slots_[slot];
        assert(sl.active);
        int64_t left = sl.steps_left - completedSteps(sl);
        // Return the unexecuted share of the GPU-seconds charged.
        gpu_seconds_ -=
            sl.gpus * (sl.step_s * static_cast<double>(sl.steps_left) -
                       (now_ - sl.seg_start));

        JobOutcome &jo = out_.jobs[sl.out];
        jo.segments.push_back(
            {jo.segments.empty() ? jo.start_time : sl.seg_start, now_});
        ++jo.preemptions;
        ++out_.preemptions;
        if (tl_preemptions_)
            tl_preemptions_->add();

        steps_remaining_[sl.req] = left;
        pred_remaining_[sl.req] =
            pred_per_step_[sl.req] * static_cast<double>(left);
        pinned_exec_[sl.req] = sl.executed;
        enqueue(sl.req);
        vacate(slot);
    }

    // Nothing fits: the queue head preempts the running jobs with the
    // longest predicted remaining time, one at a time, while that is
    // worth a restart. True once the head is placed and dequeued.
    bool
    preemptForHead()
    {
        const ShapeQueue::Entry head = queue_.front();
        while (true) {
            size_t victim = kNone;
            double victim_rem = -1.0;
            for (size_t s = 0; s < slots_.size(); ++s) {
                const Slot &sl = slots_[s];
                if (!sl.active ||
                    out_.jobs[sl.out].preemptions >= cfg_.max_preemptions)
                    continue;
                double rem = pred_per_step_[sl.req] *
                             static_cast<double>(sl.steps_left -
                                                 completedSteps(sl));
                if (rem > victim_rem ||
                    (rem == victim_rem && victim != kNone &&
                     sl.out < slots_[victim].out)) {
                    victim = s;
                    victim_rem = rem;
                }
            }
            if (victim == kNone ||
                victim_rem <= cfg_.preempt_ratio * head.first)
                return false;
            preempt(victim);
            if (place(head.second)) {
                queue_.erase(head);
                return true;
            }
        }
    }

    // Pop every completion due by `now`, stale ones included, and
    // finish the live ones. A recording timeline advances to each
    // finish time t, counts t's pops in `sim.events`, then to `now`.
    void
    complete()
    {
        completed_ = true;
        obs::Timeline::Rate *tl_events =
            tl_ ? &tl_->rate("sim.events") : nullptr;
        while (!completions_.empty() &&
               std::get<0>(completions_.top()) <= now_) {
            double t = std::get<0>(completions_.top());
            if (tl_)
                tl_->advanceTo(t);
            uint64_t before = events_;
            for (; !completions_.empty() &&
                   std::get<0>(completions_.top()) == t;
                 ++events_) {
                auto [finish, seq, slot] = completions_.top();
                completions_.pop();
                Slot &sl = slots_[slot];
                if (!sl.active || sl.seq != seq)
                    continue; // stale: the job was preempted
                JobOutcome &jo = out_.jobs[sl.out];
                if (!jo.segments.empty())
                    jo.segments.push_back({sl.seg_start, finish});
                emitRecord(sl.req, jo, sl.executed, sl.alloc);
                vacate(slot);
            }
            if (tl_events)
                tl_events->add(static_cast<double>(events_ - before));
        }
        if (tl_)
            tl_->advanceTo(now_);
    }

    // Release @p slot's GPUs and return the slot to the free list.
    void
    vacate(size_t slot)
    {
        Slot &sl = slots_[slot];
        cap_.release(sl.alloc);
        sl.alloc.clear();
        sl.active = false;
        free_slots_.push_back(slot);
    }

    // A record of request @p req as submitted, with the analytical
    // prediction, that starts and finishes on submission.
    obs::JobRecord
    submittedRecord(size_t req) const
    {
        const JobRequest &request = requests_[req];
        obs::JobRecord rec;
        rec.job_id = request.job.id;
        rec.source = "clustersim";
        rec.arch = workload::toString(request.job.arch);
        rec.num_cnodes = request.job.num_cnodes;
        rec.num_steps = request.num_steps;
        rec.executed_arch = rec.arch;
        rec.submit_s = rec.start_s = rec.finish_s = request.submit_time;
        core::TimeBreakdown pred = model_.breakdown(request.job);
        rec.pred_td_s = pred.t_data;
        rec.pred_tc_flops_s = pred.t_comp_flops;
        rec.pred_tc_mem_s = pred.t_comp_mem;
        rec.pred_tw_s = pred.t_weight;
        rec.pred_step_s = pred.total();
        return rec;
    }

    // Record a finished job as executed on @p alloc: porting, slower
    // generations and preemption show as skew against the prediction.
    void
    emitRecord(size_t req, const JobOutcome &jo,
               const TrainingJob &executed, const Allocation &alloc) const
    {
        if (!cfg_.record_job_log || !obs::jobLogActive())
            return;
        obs::JobRecord rec = submittedRecord(req);
        rec.executed_arch = workload::toString(executed.arch);
        rec.ported = jo.ported;
        rec.num_cnodes = executed.num_cnodes;
        rec.gpus = jo.gpus;
        rec.server = alloc.empty() ? -1 : alloc.front().first;
        rec.placement_attempts = attempts_[req];
        rec.start_s = jo.start_time;
        rec.finish_s = jo.finish_time;
        core::TimeBreakdown sim = model_.breakdown(executed);
        rec.sim_td_s = sim.t_data;
        rec.sim_tc_s = sim.compute();
        rec.sim_tw_s = sim.t_weight;
        rec.sim_step_s = jo.step_s;
        obs::recordJob(std::move(rec));
    }

    // Set the timeline levels to the cluster at `now`; each window
    // reports the last state set before time crossed its end.
    void
    sampleLevels()
    {
        if (!tl_)
            return;
        tl_pending_->set(static_cast<double>(queue_.size()));
        tl_running_->set(
            static_cast<double>(slots_.size() - free_slots_.size()));
        tl_free_gpus_->set(static_cast<double>(cap_.total_free));
    }

    const ClusterScheduler &sched_;
    const SchedulerConfig &cfg_;
    const core::AnalyticalModel &model_;
    const std::vector<JobRequest> &requests_;
    const bool spf_order_;
    bool reserving_ = false;
    obs::Counter &placement_attempts_ =
        obs::counter("clustersim.placement_attempts");
    obs::Counter &placement_failures_ =
        obs::counter("clustersim.placement_failures");

    std::optional<obs::TimelineSuspend> tl_suspend_;
    obs::Timeline *tl_ = nullptr;
    obs::Timeline::Level *tl_pending_ = nullptr, *tl_running_ = nullptr,
                         *tl_free_gpus_ = nullptr;
    obs::Timeline::Rate *tl_arrivals_ = nullptr,
                        *tl_preemptions_ = nullptr,
                        *tl_unplaceable_ = nullptr;

    Capacity cap_;
    ShapeQueue queue_;
    std::vector<Slot> slots_;
    std::vector<size_t> free_slots_;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        completions_;
    uint64_t next_seq_ = 0;
    uint64_t events_ = 0; // completions popped, stale ones included
    bool completed_ = false; // reports sim.events_executed once set

    // Per request: step time as submitted, predicted run, per-step and
    // remaining seconds, steps left, attempts, outcome, pinned plan.
    std::vector<double> submitted_step_, pred_run_, pred_per_step_,
        pred_remaining_;
    std::vector<int64_t> steps_remaining_, attempts_;
    std::vector<size_t> out_index_;
    std::vector<std::optional<TrainingJob>> pinned_exec_;

    ClusterOutcome out_;
    size_t arrival_ = 0;
    double now_ = 0.0;
    double gpu_seconds_ = 0.0;
    // The last placed job's release in the reservation replay.
    double placed_release_ = kInf;
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
    std::stable_sort(requests.begin(), requests.end(),
                     [](const JobRequest &a, const JobRequest &b) {
                         return a.submit_time < b.submit_time;
                     });
    SchedulerRun sim(*this, cfg_, model_, requests);
    ClusterOutcome out = sim.loop();

    // Aggregate metrics.
    obs::counter("clustersim.jobs_scheduled").add(out.jobs.size());
    obs::counter("clustersim.jobs_ported")
        .add(static_cast<uint64_t>(out.ported_jobs));
    obs::counter("clustersim.preemptions")
        .add(static_cast<uint64_t>(out.preemptions));
    static obs::Histogram &wait_hist =
        obs::histogram("clustersim.wait_s");
    std::vector<double> waits;
    waits.reserve(out.jobs.size());
    double wait_sum = 0.0;
    for (const JobOutcome &jo : out.jobs) {
        out.makespan = std::max(out.makespan, jo.finish_time);
        double wait = jo.wait();
        stats::requireFiniteSample(wait);
        waits.push_back(wait);
        wait_sum += wait;
        wait_hist.observe(wait);
    }
    if (!out.jobs.empty()) {
        out.mean_wait = wait_sum / static_cast<double>(waits.size());
        out.p95_wait =
            obs::nearestRankQuantile(std::move(waits), 0.95);
        double total =
            static_cast<double>(cfg_.num_servers) *
            cfg_.gpus_per_server * out.makespan;
        out.gpu_utilization = total > 0.0 ? sim.gpuSeconds() / total : 0.0;
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
