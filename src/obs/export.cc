#include "obs.h"

#include "json_util.h"

namespace paichar::obs {

std::string
renderMetricsSummary()
{
    std::string out = "# paichar metrics\n";
    // visitMetrics walks the registry in name order (std::map), so
    // the summary is stable across runs for deterministic metrics.
    visitMetrics(
        [&](const std::string &name, const Counter &c) {
            out += format("counter   %-34s %llu\n", name.c_str(),
                          static_cast<unsigned long long>(c.value()));
        },
        [&](const std::string &name, const Gauge &g) {
            out += format("gauge     %-34s %lld peak %lld\n",
                          name.c_str(),
                          static_cast<long long>(g.value()),
                          static_cast<long long>(g.peak()));
        },
        [&](const std::string &name, const Histogram &h) {
            if (h.empty()) {
                // No observations: quantile() is NaN and mean/max
                // are meaningless, so print '-' instead of numbers
                // that read as measurements.
                out += format("histogram %-34s count 0 mean - "
                              "p50 - p95 - max -\n",
                              name.c_str());
                return;
            }
            out += format(
                "histogram %-34s count %llu mean %.3f p50 %.0f "
                "p95 %.0f max %.3f\n",
                name.c_str(),
                static_cast<unsigned long long>(h.count()), h.mean(),
                h.quantile(0.5), h.quantile(0.95), h.max());
        });
    return out;
}

namespace {

/** A metric name restricted to the OpenMetrics charset
 * [a-zA-Z0-9_:], invalid characters replaced by '_'. */
std::string
openMetricsName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

void
appendSample(std::string &out, const std::string &name, double value)
{
    out += name;
    out += ' ';
    appendJsonNumber(out, value);
    out += '\n';
}

void
appendSample(std::string &out, const std::string &name,
             uint64_t value)
{
    out += name;
    out += ' ';
    out += format("%llu", static_cast<unsigned long long>(value));
    out += '\n';
}

} // namespace

std::string
renderMetricsOpenMetrics()
{
    std::string out;
    visitMetrics(
        [&](const std::string &raw, const Counter &c) {
            std::string name = openMetricsName(raw);
            out += "# TYPE " + name + " counter\n";
            appendSample(out, name + "_total", c.value());
        },
        [&](const std::string &raw, const Gauge &g) {
            std::string name = openMetricsName(raw);
            out += "# TYPE " + name + " gauge\n";
            appendSample(out, name,
                         static_cast<double>(g.value()));
            out += "# TYPE " + name + "_peak gauge\n";
            appendSample(out, name + "_peak",
                         static_cast<double>(g.peak()));
        },
        [&](const std::string &raw, const Histogram &h) {
            std::string name = openMetricsName(raw);
            out += "# TYPE " + name + " histogram\n";
            // Cumulative buckets up to the last non-empty one;
            // everything after collapses into +Inf.
            int last = -1;
            for (int b = 0; b < Histogram::kBuckets; ++b)
                if (h.bucketCount(b))
                    last = b;
            uint64_t acc = 0;
            for (int b = 0; b <= last; ++b) {
                acc += h.bucketCount(b);
                std::string le;
                appendJsonNumber(le,
                                 Histogram::bucketUpperBound(b));
                appendSample(out,
                             name + "_bucket{le=\"" + le + "\"}",
                             acc);
            }
            appendSample(out, name + "_bucket{le=\"+Inf\"}",
                         h.count());
            appendSample(out, name + "_count", h.count());
            appendSample(out, name + "_sum", h.sum());
        });
    out += "# EOF\n";
    return out;
}

} // namespace paichar::obs
