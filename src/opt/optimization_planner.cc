#include "optimization_planner.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/arch_feasibility.h"
#include "obs/obs.h"
#include "obs/timeline.h"

namespace paichar::opt {

using workload::ArchType;
using workload::CaseStudyModel;

namespace {

/** Conv share of the graph's compute-bound FLOPs exceeds 50%. */
bool
convHeavy(const workload::OpGraph &graph)
{
    double conv = 0.0;
    auto totals = graph.totals();
    for (const workload::Op &op : graph.ops()) {
        if (op.type == workload::OpType::Conv)
            conv += op.flops;
    }
    return totals.flops > 0.0 && conv > 0.5 * totals.flops;
}

/** Analytically prepared candidate. */
struct Candidate
{
    PreparedPlan prep;
    CostEstimate analytical;
};

/** Indices of @p ests sorted by throughput desc, spec tiebreak. */
std::vector<size_t>
rankByThroughput(const std::vector<PlanSpec> &specs,
                 const std::vector<double> &throughput)
{
    std::vector<size_t> order(specs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) {
                  if (throughput[a] != throughput[b])
                      return throughput[a] > throughput[b];
                  return specs[a].orderBefore(specs[b]);
              });
    return order;
}

} // namespace

OptimizationPlanner::OptimizationPlanner(PlannerConfig cfg)
    : cfg_(std::move(cfg))
{
    if (!(cfg_.gpu_memory_bytes > 0.0)) {
        throw std::invalid_argument(
            "OptimizationPlanner: gpu_memory_bytes must be positive, "
            "got " + std::to_string(cfg_.gpu_memory_bytes));
    }
    if (cfg_.beam_width < 1) {
        throw std::invalid_argument(
            "OptimizationPlanner: beam_width must be >= 1, got " +
            std::to_string(cfg_.beam_width));
    }
}

std::vector<PlanSpec>
OptimizationPlanner::enumerate(const CaseStudyModel &model) const
{
    const auto &srv = cfg_.sim.cluster.server;
    const bool conv_heavy = convHeavy(model.graph);

    std::vector<ArchType> archs{model.arch};
    if (cfg_.explore_architectures) {
        for (ArchType a : workload::kAllArchTypes) {
            if (a != model.arch)
                archs.push_back(a);
        }
    }

    // The partition dimension matching the graph shape: channel/
    // filter splitting for Conv-dominated graphs, sub-graph
    // partitioning otherwise; the dimensions never combine.
    std::vector<int> ways_options{1};
    const bool partition_enabled = conv_heavy
                                       ? cfg_.enable_channel_split
                                       : cfg_.enable_subgraph_partition;
    if (partition_enabled) {
        for (int w : cfg_.split_ways) {
            if (w > 1)
                ways_options.push_back(w);
        }
    }

    std::vector<int> micro_options{1};
    if (cfg_.enable_micro_batching) {
        for (int k : cfg_.micro_batch_options) {
            if (k > 1)
                micro_options.push_back(k);
        }
    }

    std::vector<bool> mp_options{false};
    if (cfg_.enable_mixed_precision)
        mp_options.push_back(true);
    std::vector<bool> xla_options{false};
    if (cfg_.enable_xla_fusion)
        xla_options.push_back(true);

    std::vector<PlanSpec> specs;
    for (ArchType arch : archs) {
        for (int ways : ways_options) {
            core::Placement p = core::resolvePlacement(
                model.features, arch, model.num_cnodes, srv,
                cfg_.gpu_memory_bytes, ways);
            if (!p.feasible)
                continue;
            for (bool mp : mp_options) {
                for (bool xla : xla_options) {
                    for (int micro : micro_options) {
                        PlanSpec spec;
                        spec.mixed_precision = mp;
                        spec.xla_fusion = xla;
                        spec.arch = arch;
                        spec.num_cnodes = p.num_cnodes;
                        if (ways > 1) {
                            if (conv_heavy)
                                spec.channel_split_ways = ways;
                            else
                                spec.partition_ways = ways;
                        }
                        spec.micro_batches = micro;
                        specs.push_back(spec);
                    }
                }
            }
        }
    }
    return specs;
}

std::vector<PlanSpec>
OptimizationPlanner::beamSearch(const CaseStudyModel &model,
                                runtime::ThreadPool *pool) const
{
    AnalyticalCostModel analytical(cfg_.sim);
    // Prune a spec pool to the analytically best beam_width specs.
    auto prune = [&](std::vector<PlanSpec> specs) {
        auto throughput = runtime::parallelMap<double>(
            pool, specs.size(), [&](size_t i) {
                return analytical
                    .estimate(preparePlan(model, specs[i]))
                    .throughput;
            });
        auto order = rankByThroughput(specs, throughput);
        std::vector<PlanSpec> kept;
        size_t width = static_cast<size_t>(cfg_.beam_width);
        for (size_t idx : order) {
            if (kept.size() >= width)
                break;
            kept.push_back(specs[idx]);
        }
        return kept;
    };

    // Stage 1: placement beam -- the default plan on every feasible
    // (architecture x partition degree) pair.
    std::vector<PlanSpec> beam;
    {
        PlannerConfig seed_cfg = cfg_;
        seed_cfg.enable_mixed_precision = false;
        seed_cfg.enable_xla_fusion = false;
        seed_cfg.enable_micro_batching = false;
        beam = prune(
            OptimizationPlanner(seed_cfg).enumerate(model));
    }

    // Stages 2-4: branch one dimension at a time, re-pruning.
    auto branch = [&](bool enabled, auto mutate) {
        if (!enabled)
            return;
        std::vector<PlanSpec> pool_specs = beam;
        for (const PlanSpec &s : beam)
            mutate(s, pool_specs);
        beam = prune(std::move(pool_specs));
    };
    branch(cfg_.enable_mixed_precision,
           [](const PlanSpec &s, std::vector<PlanSpec> &out) {
               PlanSpec v = s;
               v.mixed_precision = true;
               out.push_back(v);
           });
    branch(cfg_.enable_xla_fusion,
           [](const PlanSpec &s, std::vector<PlanSpec> &out) {
               PlanSpec v = s;
               v.xla_fusion = true;
               out.push_back(v);
           });
    branch(cfg_.enable_micro_batching,
           [this](const PlanSpec &s, std::vector<PlanSpec> &out) {
               for (int k : cfg_.micro_batch_options) {
                   if (k <= 1)
                       continue;
                   PlanSpec v = s;
                   v.micro_batches = k;
                   out.push_back(v);
               }
           });

    // The baseline must be in the pool for speedup normalization.
    bool has_baseline = false;
    for (const PlanSpec &s : beam) {
        if (s.isDefault() && s.arch == model.arch)
            has_baseline = true;
    }
    if (!has_baseline) {
        core::Placement p = core::resolvePlacement(
            model.features, model.arch, model.num_cnodes,
            cfg_.sim.cluster.server, cfg_.gpu_memory_bytes);
        assert(p.feasible);
        PlanSpec base;
        base.arch = model.arch;
        base.num_cnodes = p.num_cnodes;
        beam.push_back(base);
    }
    return beam;
}

std::vector<Plan>
OptimizationPlanner::evaluate(const CaseStudyModel &model,
                              runtime::ThreadPool *pool) const
{
    // Plan-grained instrumentation: one span per evaluate() call,
    // one counter bump per candidate plan priced.
    obs::Span span("opt.evaluate");
    static obs::Counter &plans_ctr =
        obs::counter("opt.plans_evaluated");

    // Every speedup is relative to the measured baseline, so a budget
    // the baseline does not fit in leaves nothing to compare against.
    // Both searches keep a feasible baseline, so specs is non-empty.
    core::Placement baseline = core::resolvePlacement(
        model.features, model.arch, model.num_cnodes,
        cfg_.sim.cluster.server, cfg_.gpu_memory_bytes);
    if (!baseline.feasible) {
        throw std::invalid_argument(
            "OptimizationPlanner: " + model.name +
            "'s baseline does not fit in " +
            std::to_string(cfg_.gpu_memory_bytes) +
            " bytes of GPU memory (" + baseline.reason + ")");
    }
    std::vector<PlanSpec> specs = cfg_.search == SearchMode::Beam
                                      ? beamSearch(model, pool)
                                      : enumerate(model);
    assert(!specs.empty());
    plans_ctr.add(specs.size());

    // Phase 1: prepare + fast analytical estimate, every candidate.
    AnalyticalCostModel analytical(cfg_.sim);
    auto cands = runtime::parallelMap<Candidate>(
        pool, specs.size(), [&](size_t i) {
            Candidate c;
            c.prep = preparePlan(model, specs[i]);
            c.analytical = analytical.estimate(c.prep);
            return c;
        });

    size_t base = specs.size();
    for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].isDefault() && specs[i].arch == model.arch)
            base = i;
    }
    assert(base < specs.size() && "baseline plan must be feasible");

    // Phase 2: simulate the analytically top-K candidates, plus the
    // baseline (always measured, so speedups are measured-vs-
    // measured).
    std::vector<double> ana_tp(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        ana_tp[i] = cands[i].analytical.throughput;
    auto order = rankByThroughput(specs, ana_tp);

    std::vector<char> simulate(specs.size(), 0);
    simulate[base] = 1;
    size_t budget = cfg_.top_k <= 0
                        ? specs.size()
                        : static_cast<size_t>(cfg_.top_k);
    for (size_t idx : order) {
        if (budget == 0)
            break;
        if (idx == base)
            continue; // simulated regardless, not charged
        simulate[idx] = 1;
        --budget;
    }
    std::vector<size_t> sel;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (simulate[i])
            sel.push_back(i);
    }

    SimulatedCostModel sim(cfg_.sim);
    std::vector<testbed::StepResult> results;
    {
        // Pool workers run these simulations, and only the calling
        // thread may record into the timeline: keep them out of it.
        obs::TimelineSuspend quiet;
        results = runtime::parallelMap<testbed::StepResult>(
            pool, sel.size(),
            [&](size_t k) { return sim.simulate(cands[sel[k]].prep); });
    }

    // Phase 3: assemble and rank.
    std::vector<Plan> plans(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        plans[i].spec = specs[i];
        plans[i].analytical = cands[i].analytical;
        plans[i].diagnostics = std::move(cands[i].prep.diagnostics);
        plans[i].throughput = cands[i].analytical.throughput;
    }
    for (size_t k = 0; k < sel.size(); ++k) {
        Plan &p = plans[sel[k]];
        p.simulated = true;
        p.result = results[k];
        p.measured = estimateFromResult(cands[sel[k]].prep,
                                        results[k]);
        p.throughput = p.measured.throughput;
    }

    const double base_measured = plans[base].measured.throughput;
    const double base_analytical =
        plans[base].analytical.throughput;
    assert(base_measured > 0.0 && base_analytical > 0.0);
    for (Plan &p : plans) {
        p.speedup = p.simulated
                        ? p.measured.throughput / base_measured
                        : p.analytical.throughput / base_analytical;
    }

    // Baseline first; then measured plans by measured speedup; then
    // pruned candidates by estimated speedup.
    std::vector<Plan> out;
    out.reserve(plans.size());
    out.push_back(std::move(plans[base]));
    std::vector<size_t> rest;
    for (size_t i = 0; i < plans.size(); ++i) {
        if (i != base)
            rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
        if (plans[a].simulated != plans[b].simulated)
            return plans[a].simulated;
        if (plans[a].speedup != plans[b].speedup)
            return plans[a].speedup > plans[b].speedup;
        return plans[a].spec.orderBefore(plans[b].spec);
    });
    for (size_t i : rest)
        out.push_back(std::move(plans[i]));
    return out;
}

Plan
OptimizationPlanner::best(const CaseStudyModel &model,
                          runtime::ThreadPool *pool) const
{
    auto plans = evaluate(model, pool);
    assert(!plans.empty());
    // plans[0] is the baseline; the best measured candidate follows
    // unless the baseline is unbeatable.
    if (plans.size() > 1 && plans[1].simulated &&
        plans[1].speedup >= 1.0) {
        return plans[1];
    }
    return plans[0];
}

} // namespace paichar::opt
