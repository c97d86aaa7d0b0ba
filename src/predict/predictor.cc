#include "predictor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/timeline.h"
#include "workload/arch_type.h"

namespace paichar::predict {

namespace {

/** Completed records with usable run times are the training set. */
bool
usable(const obs::JobRecord &rec)
{
    return rec.status == "completed" && rec.num_steps >= 1 &&
           std::isfinite(rec.runSeconds()) && rec.runSeconds() >= 0.0;
}

void
requireQuantile(double q)
{
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument(
            "predict: quantile must be in [0, 1], got " +
            std::to_string(q));
}

obs::Counter &
coldStartCounter()
{
    static obs::Counter &c = obs::counter("predict.cold_start");
    return c;
}

int
log2Bucket(int n)
{
    int b = 0;
    for (int v = std::max(n, 1); v > 1; v >>= 1)
        ++b;
    return b;
}

} // namespace

std::string
durationBucketKey(const std::string &arch, int num_cnodes)
{
    return arch + "/" + std::to_string(log2Bucket(num_cnodes));
}

double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    requireQuantile(q);
    return sorted[obs::nearestRank(q, sorted.size()) - 1];
}

QuantileDurationModel::QuantileDurationModel(
    const std::vector<obs::JobRecord> &history, double q)
    : q_(q)
{
    requireQuantile(q);
    for (const obs::JobRecord &rec : history) {
        if (!usable(rec))
            continue;
        double per_step =
            rec.runSeconds() / static_cast<double>(rec.num_steps);
        buckets_[durationBucketKey(rec.arch, rec.num_cnodes)]
            .push_back(per_step);
        arch_buckets_[rec.arch].push_back(per_step);
        global_.push_back(per_step);
        ++samples_;
    }
    for (auto &[key, v] : buckets_)
        std::sort(v.begin(), v.end());
    for (auto &[key, v] : arch_buckets_)
        std::sort(v.begin(), v.end());
    std::sort(global_.begin(), global_.end());
}

const std::vector<double> *
QuantileDurationModel::lookup(const workload::TrainingJob &job) const
{
    std::string arch = workload::toString(job.arch);
    auto it = buckets_.find(durationBucketKey(arch, job.num_cnodes));
    if (it != buckets_.end())
        return &it->second;
    auto ait = arch_buckets_.find(arch);
    if (ait != arch_buckets_.end())
        return &ait->second;
    if (!global_.empty())
        return &global_;
    return nullptr;
}

double
QuantileDurationModel::predictRunSeconds(
    const workload::TrainingJob &job, int64_t num_steps,
    double model_run_s) const
{
    const std::vector<double> *bucket = lookup(job);
    if (bucket == nullptr) {
        coldStartCounter().add();
        return model_run_s;
    }
    return sortedQuantile(*bucket, q_) *
           static_cast<double>(num_steps);
}

LinearDurationModel::LinearDurationModel(
    const std::vector<obs::JobRecord> &history)
{
    // Closed-form least squares of run_s on the analytical
    // prediction pred_step_s * num_steps. Records without a recorded
    // prediction cannot recalibrate anything and are skipped.
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    double n = 0.0;
    for (const obs::JobRecord &rec : history) {
        if (!usable(rec) || !(rec.pred_step_s > 0.0))
            continue;
        double x =
            rec.pred_step_s * static_cast<double>(rec.num_steps);
        double y = rec.runSeconds();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        n += 1.0;
        ++samples_;
    }
    double denom = n * sxx - sx * sx;
    // Fewer than two distinct x values make the slope indeterminate;
    // keep the identity so the model degrades to the analytical one.
    if (n >= 2.0 && std::abs(denom) > 1e-12 * std::max(1.0, sxx)) {
        b_ = (n * sxy - sx * sy) / denom;
        a_ = (sy - b_ * sx) / n;
    }
}

double
LinearDurationModel::predictRunSeconds(const workload::TrainingJob &,
                                       int64_t,
                                       double model_run_s) const
{
    if (samples_ == 0) {
        coldStartCounter().add();
        return model_run_s;
    }
    return std::max(0.0, a_ + b_ * model_run_s);
}

QueueDelayModel::QueueDelayModel(
    const std::vector<obs::JobRecord> &history, double q)
    : q_(q)
{
    requireQuantile(q);
    for (const obs::JobRecord &rec : history) {
        if (rec.status != "completed")
            continue;
        double wait = rec.queueSeconds();
        if (!std::isfinite(wait) || wait < 0.0)
            continue;
        buckets_[log2Bucket(std::max(rec.gpus, 1))].push_back(wait);
        global_.push_back(wait);
        ++samples_;
    }
    for (auto &[key, v] : buckets_)
        std::sort(v.begin(), v.end());
    std::sort(global_.begin(), global_.end());
}

double
QueueDelayModel::predictQueueSeconds(int gpus) const
{
    auto it = buckets_.find(log2Bucket(std::max(gpus, 1)));
    if (it != buckets_.end())
        return sortedQuantile(it->second, q_);
    if (!global_.empty())
        return sortedQuantile(global_, q_);
    coldStartCounter().add();
    return 0.0;
}

} // namespace paichar::predict
