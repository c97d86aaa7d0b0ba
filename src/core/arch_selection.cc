#include "arch_selection.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/arch_feasibility.h"
#include "obs/obs.h"

namespace paichar::core {

using workload::ArchType;
using workload::TrainingJob;

ArchitectureAdvisor::ArchitectureAdvisor(const AnalyticalModel &model,
                                         double gpu_memory_bytes)
    : model_(model), gpu_memory_bytes_(gpu_memory_bytes)
{
    if (!(gpu_memory_bytes_ > 0.0)) {
        throw std::invalid_argument(
            "ArchitectureAdvisor: GPU memory must be positive, got " +
            std::to_string(gpu_memory_bytes_));
    }
}

ArchOption
ArchitectureAdvisor::evaluateOne(const TrainingJob &job, ArchType arch,
                                 OverlapMode mode) const
{
    // Placement and feasibility come from the shared rules (also used
    // by the optimization planner's cost models).
    Placement p =
        resolvePlacement(job.features, arch, job.num_cnodes,
                         model_.spec().server, gpu_memory_bytes_);

    ArchOption opt;
    opt.arch = arch;
    opt.num_cnodes = p.num_cnodes;
    opt.per_gpu_weight_bytes = p.per_gpu_weight_bytes;
    opt.feasible = p.feasible;
    opt.reason = p.reason;
    if (!opt.feasible)
        return opt;
    TrainingJob variant = job;
    variant.arch = arch;
    variant.num_cnodes = opt.num_cnodes;
    variant.num_ps = arch == ArchType::PsWorker
                         ? std::max(1, opt.num_cnodes / 4)
                         : 0;
    opt.step_time = model_.stepTime(variant, mode);
    opt.throughput = model_.throughput(variant, mode);
    return opt;
}

std::vector<ArchOption>
ArchitectureAdvisor::evaluate(const TrainingJob &job,
                              OverlapMode mode) const
{
    std::vector<ArchOption> options;
    for (ArchType arch : workload::kAllArchTypes)
        options.push_back(evaluateOne(job, arch, mode));
    std::stable_sort(options.begin(), options.end(),
                     [](const ArchOption &a, const ArchOption &b) {
                         if (a.feasible != b.feasible)
                             return a.feasible;
                         return a.throughput > b.throughput;
                     });
    return options;
}

ArchOption
ArchitectureAdvisor::recommend(const TrainingJob &job,
                               OverlapMode mode) const
{
    auto options = evaluate(job, mode);
    assert(!options.empty());
    // Feasible options sort first. PS/Worker and 1w1g keep weights in
    // host memory, but even they need the per-GPU working set, so a
    // small enough budget leaves nothing feasible.
    if (!options.front().feasible) {
        throw std::invalid_argument(
            "ArchitectureAdvisor: no architecture fits the job in " +
            std::to_string(gpu_memory_bytes_) +
            " bytes of GPU memory (" + options.front().reason + ")");
    }
    return options.front();
}

std::vector<ArchOption>
ArchitectureAdvisor::recommendAll(const std::vector<TrainingJob> &jobs,
                                  OverlapMode mode,
                                  runtime::ThreadPool *pool) const
{
    obs::Span span("core.advise", static_cast<int64_t>(jobs.size()));
    obs::counter("core.jobs_advised").add(jobs.size());
    return runtime::parallelMap<ArchOption>(
        pool, jobs.size(),
        [&](size_t i) { return recommend(jobs[i], mode); });
}

} // namespace paichar::core
