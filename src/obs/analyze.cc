#include "analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "json_util.h"

namespace paichar::obs {

namespace {

/** Nearest-rank percentile of an ascending-sorted vector. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    double rank = std::ceil(q * static_cast<double>(sorted.size()));
    auto idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** One derived distribution over the completed jobs. */
struct Dist
{
    const char *name;
    std::vector<double> values; // sorted before use
};

std::vector<Dist>
jobDistributions(const std::vector<JobRecord> &records)
{
    std::vector<Dist> dists;
    dists.push_back({"queue_s", {}});
    dists.push_back({"run_s", {}});
    dists.push_back({"step_s", {}});
    dists.push_back({"skew_pct", {}});
    dists.push_back({"placement_attempts", {}});
    for (const JobRecord &r : records) {
        if (r.status != "completed")
            continue;
        dists[0].values.push_back(r.queueSeconds());
        dists[1].values.push_back(r.runSeconds());
        dists[2].values.push_back(r.sim_step_s);
        dists[3].values.push_back(r.skewPct());
        dists[4].values.push_back(
            static_cast<double>(r.placement_attempts));
    }
    for (Dist &d : dists)
        std::sort(d.values.begin(), d.values.end());
    return dists;
}

/** Mean Td/Tc/Tw shares over completed jobs with a phase breakdown. */
struct PhaseShares
{
    double td = 0.0, tc = 0.0, tw = 0.0;
    bool any = false;
};

PhaseShares
phaseShares(const std::vector<JobRecord> &records)
{
    PhaseShares out;
    size_t n = 0;
    for (const JobRecord &r : records) {
        if (r.status != "completed")
            continue;
        double sum = r.sim_td_s + r.sim_tc_s + r.sim_tw_s;
        if (sum <= 0.0)
            continue;
        out.td += r.sim_td_s / sum;
        out.tc += r.sim_tc_s / sum;
        out.tw += r.sim_tw_s / sum;
        ++n;
    }
    if (n) {
        out.any = true;
        out.td /= static_cast<double>(n);
        out.tc /= static_cast<double>(n);
        out.tw /= static_cast<double>(n);
    }
    return out;
}

void
deriveJobScalars(RunData &run)
{
    uint64_t completed = 0, dropped = 0, ported = 0;
    for (const JobRecord &r : run.records) {
        if (r.status == "completed")
            ++completed;
        else
            ++dropped;
        if (r.ported)
            ++ported;
    }
    run.scalars["job.count"] =
        static_cast<double>(run.records.size());
    run.scalars["job.completed"] = static_cast<double>(completed);
    run.scalars["job.dropped"] = static_cast<double>(dropped);
    run.scalars["job.ported"] = static_cast<double>(ported);

    for (const Dist &d : jobDistributions(run.records)) {
        std::string base = std::string("job.") + d.name + ".";
        run.scalars[base + "mean"] = meanOf(d.values);
        run.scalars[base + "p50"] = percentile(d.values, 0.5);
        run.scalars[base + "p95"] = percentile(d.values, 0.95);
        run.scalars[base + "max"] =
            d.values.empty() ? 0.0 : d.values.back();
    }

    PhaseShares ph = phaseShares(run.records);
    run.scalars["job.phase_share.td"] = ph.td;
    run.scalars["job.phase_share.tc"] = ph.tc;
    run.scalars["job.phase_share.tw"] = ph.tw;
}

/** Split a line into whitespace-separated tokens. */
std::vector<std::string_view>
tokens(std::string_view line)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
        size_t start = i;
        while (i < line.size() && line[i] != ' ' &&
               line[i] != '\t')
            ++i;
        if (i > start)
            out.push_back(line.substr(start, i - start));
    }
    return out;
}

bool
parseDouble(std::string_view s, double *out)
{
    // strtod via a NUL-terminated copy; tokens are short.
    std::string tmp(s);
    char *end = nullptr;
    *out = std::strtod(tmp.c_str(), &end);
    return end == tmp.c_str() + tmp.size() && !tmp.empty();
}

/** Parse the `# paichar metrics` summary-text format. */
RunLoad
loadMetricsText(std::string_view text)
{
    RunLoad out;
    out.data.kind = RunData::Kind::Metrics;
    size_t pos = 0, line_no = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, nl == std::string_view::npos ? std::string_view::npos
                                              : nl - pos);
        pos = nl == std::string_view::npos ? text.size() : nl + 1;
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        auto tok = tokens(line);
        auto fail = [&](const char *what) {
            out.ok = false;
            out.error = "line " + std::to_string(line_no) + ": " +
                        what;
            return out;
        };
        auto num = [&](std::string_view s, double *v) {
            return parseDouble(s, v);
        };
        double v = 0.0;
        if (tok.size() == 3 && tok[0] == "counter") {
            if (!num(tok[2], &v))
                return fail("bad counter value");
            out.data.scalars[std::string(tok[1])] = v;
        } else if (tok.size() == 5 && tok[0] == "gauge" &&
                   tok[3] == "peak") {
            double peak = 0.0;
            if (!num(tok[2], &v) || !num(tok[4], &peak))
                return fail("bad gauge value");
            out.data.scalars[std::string(tok[1])] = v;
            out.data.scalars[std::string(tok[1]) + ".peak"] = peak;
        } else if (tok.size() == 12 && tok[0] == "histogram") {
            // histogram NAME count N mean M p50 X p95 Y max Z
            // An empty histogram renders its stats as '-' (its
            // quantiles are NaN); those fields are simply absent
            // from the scalar view rather than recorded as 0.
            static const char *kFields[] = {"count", "mean", "p50",
                                            "p95", "max"};
            for (int f = 0; f < 5; ++f) {
                if (tok[2 + 2 * f] != kFields[f])
                    return fail("bad histogram line");
                if (tok[3 + 2 * f] == "-")
                    continue;
                if (!num(tok[3 + 2 * f], &v))
                    return fail("bad histogram value");
                out.data.scalars[std::string(tok[1]) + "." +
                                 kFields[f]] = v;
            }
        } else {
            return fail("unrecognized metrics line");
        }
    }
    return out;
}

/** Parse OpenMetrics text: unlabeled `name value` samples only --
 * labeled samples (histogram buckets) are summarized by their
 * _count/_sum companions, which are unlabeled. */
RunLoad
loadOpenMetrics(std::string_view text)
{
    RunLoad out;
    out.data.kind = RunData::Kind::Metrics;
    size_t pos = 0, line_no = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, nl == std::string_view::npos ? std::string_view::npos
                                              : nl - pos);
        pos = nl == std::string_view::npos ? text.size() : nl + 1;
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        if (line.find('{') != std::string_view::npos)
            continue; // labeled sample (bucket); skip
        auto tok = tokens(line);
        if (tok.size() != 2) {
            out.ok = false;
            out.error = "line " + std::to_string(line_no) +
                        ": expected 'name value'";
            return out;
        }
        double v = 0.0;
        if (!parseDouble(tok[1], &v)) {
            out.ok = false;
            out.error = "line " + std::to_string(line_no) +
                        ": bad sample value";
            return out;
        }
        out.data.scalars[std::string(tok[0])] = v;
    }
    return out;
}

} // namespace

RunLoad
loadRunData(std::string_view text)
{
    size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string_view::npos) {
        RunLoad out;
        out.ok = false;
        out.error = "empty input";
        return out;
    }
    if (text[first] == '{') {
        RunLoad out;
        JobLogParse parsed = parseJobLogJsonl(text);
        if (!parsed.ok) {
            out.ok = false;
            out.error = parsed.error;
            return out;
        }
        out.data.kind = RunData::Kind::JobLog;
        out.data.records = std::move(parsed.records);
        deriveJobScalars(out.data);
        return out;
    }
    std::string_view rest = text.substr(first);
    if (rest.substr(0, 17) == "# paichar metrics")
        return loadMetricsText(text);
    if (text.find("# TYPE ") != std::string_view::npos ||
        text.find("# EOF") != std::string_view::npos)
        return loadOpenMetrics(text);
    RunLoad out;
    out.ok = false;
    out.error = "unrecognized run format (expected a JSONL job log, "
                "a '# paichar metrics' dump, or OpenMetrics text)";
    return out;
}

std::string
reportText(const RunData &run)
{
    if (run.kind == RunData::Kind::Metrics) {
        std::string out = "# paichar obs report (metrics)\n";
        for (const auto &[key, value] : run.scalars)
            out += format("%-44s %.6g\n", key.c_str(), value);
        return out;
    }

    std::string out = "# paichar obs report (job log)\n";
    out += format(
        "jobs %llu  completed %llu  dropped %llu  ported %llu\n",
        static_cast<unsigned long long>(run.scalars.at("job.count")),
        static_cast<unsigned long long>(
            run.scalars.at("job.completed")),
        static_cast<unsigned long long>(
            run.scalars.at("job.dropped")),
        static_cast<unsigned long long>(
            run.scalars.at("job.ported")));
    out += format("%-22s %9s %10s %10s %10s %10s\n", "metric",
                  "count", "mean", "p50", "p95", "max");
    for (const Dist &d : jobDistributions(run.records)) {
        out += format(
            "%-22s %9llu %10.3f %10.3f %10.3f %10.3f\n", d.name,
            static_cast<unsigned long long>(d.values.size()),
            meanOf(d.values), percentile(d.values, 0.5),
            percentile(d.values, 0.95),
            d.values.empty() ? 0.0 : d.values.back());
    }
    PhaseShares ph = phaseShares(run.records);
    if (ph.any) {
        out += format(
            "phase shares (mean): Td %.1f%%  Tc %.1f%%  Tw %.1f%%\n",
            ph.td * 100.0, ph.tc * 100.0, ph.tw * 100.0);
    }
    return out;
}

DiffResult
diffRuns(const RunData &a, const RunData &b, double tolerance_pct)
{
    DiffResult out;
    out.tolerance_pct = tolerance_pct;
    for (const auto &[key, av] : a.scalars) {
        auto it = b.scalars.find(key);
        if (it == b.scalars.end()) {
            out.only_in_a.push_back(key);
            continue;
        }
        DiffEntry e;
        e.key = key;
        e.a = av;
        e.b = it->second;
        if (e.a == 0.0) {
            e.delta_pct =
                e.b == 0.0
                    ? 0.0
                    : std::numeric_limits<double>::infinity();
        } else {
            e.delta_pct = (e.b - e.a) / std::fabs(e.a) * 100.0;
        }
        e.violation = std::fabs(e.delta_pct) > tolerance_pct;
        if (e.violation)
            out.regression = true;
        out.entries.push_back(std::move(e));
    }
    for (const auto &[key, bv] : b.scalars) {
        (void)bv;
        if (!a.scalars.count(key))
            out.only_in_b.push_back(key);
    }
    return out;
}

std::string
renderDiff(const DiffResult &diff)
{
    std::string out = format("# paichar obs diff (tolerance %.6g%%)\n",
                             diff.tolerance_pct);
    out += format("%-38s %12s %12s %9s\n", "key", "a", "b", "delta%");
    size_t violations = 0;
    for (const DiffEntry &e : diff.entries) {
        std::string delta =
            std::isinf(e.delta_pct) ? std::string("     +inf")
                                    : format("%+9.1f", e.delta_pct);
        out += format("%-38s %12.6g %12.6g %s%s\n", e.key.c_str(),
                      e.a, e.b, delta.c_str(),
                      e.violation ? "  VIOLATION" : "");
        if (e.violation)
            ++violations;
    }
    for (const std::string &key : diff.only_in_a)
        out += "only in a: " + key + "\n";
    for (const std::string &key : diff.only_in_b)
        out += "only in b: " + key + "\n";
    if (diff.regression) {
        out += format("REGRESSION: %zu of %zu shared scalars past "
                      "tolerance\n",
                      violations, diff.entries.size());
    } else {
        out += format("ok: %zu shared scalars within tolerance\n",
                      diff.entries.size());
    }
    return out;
}

std::string
topText(const RunData &run, size_t n)
{
    std::vector<const JobRecord *> jobs;
    for (const JobRecord &r : run.records)
        if (r.status == "completed")
            jobs.push_back(&r);
    std::sort(jobs.begin(), jobs.end(),
              [](const JobRecord *a, const JobRecord *b) {
                  double ra = a->runSeconds(), rb = b->runSeconds();
                  if (ra != rb)
                      return ra > rb;
                  return a->job_id < b->job_id;
              });
    if (jobs.size() > n)
        jobs.resize(n);

    std::string out =
        format("# paichar obs top (%zu slowest jobs by run_s)\n",
               jobs.size());
    out += format("%8s %-16s %-20s %10s %10s %10s %9s %-5s\n",
                  "job_id", "name", "arch", "run_s", "step_s",
                  "queue_s", "skew%", "phase");
    for (const JobRecord *r : jobs) {
        const char *phase = "-";
        double td = r->sim_td_s, tc = r->sim_tc_s, tw = r->sim_tw_s;
        if (td + tc + tw > 0.0)
            phase = (tc >= td && tc >= tw) ? "Tc"
                    : (td >= tw)           ? "Td"
                                           : "Tw";
        const std::string &arch =
            r->executed_arch.empty() ? r->arch : r->executed_arch;
        out += format(
            "%8lld %-16s %-20s %10.3f %10.6f %10.3f %+9.1f %-5s\n",
            static_cast<long long>(r->job_id),
            r->name.empty() ? "-" : r->name.c_str(), arch.c_str(),
            r->runSeconds(), r->sim_step_s, r->queueSeconds(),
            r->skewPct(), phase);
    }

    // Aggregate phase split: each job's running time divided in its
    // simulated phase proportions, summed over all completed jobs.
    double total = 0.0, ptd = 0.0, ptc = 0.0, ptw = 0.0;
    for (const JobRecord &r : run.records) {
        if (r.status != "completed")
            continue;
        double sum = r.sim_td_s + r.sim_tc_s + r.sim_tw_s;
        double runtime = r.runSeconds();
        total += runtime;
        if (sum > 0.0) {
            ptd += runtime * r.sim_td_s / sum;
            ptc += runtime * r.sim_tc_s / sum;
            ptw += runtime * r.sim_tw_s / sum;
        }
    }
    if (total > 0.0) {
        out += format(
            "phase totals: Td %.3fs (%.1f%%)  Tc %.3fs (%.1f%%)  "
            "Tw %.3fs (%.1f%%)\n",
            ptd, ptd / total * 100.0, ptc, ptc / total * 100.0, ptw,
            ptw / total * 100.0);
    }
    return out;
}

} // namespace paichar::obs
