#include "obs.h"

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <variant>

namespace paichar::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{true};
std::atomic<bool> g_profiling{false};
} // namespace detail

namespace {

using MetricSlot = std::variant<std::unique_ptr<Counter>,
                                std::unique_ptr<Gauge>,
                                std::unique_ptr<Histogram>>;

/**
 * Name -> metric, one slot per name so a counter and a gauge can
 * never alias. Leaked on purpose: call sites cache references in
 * function-local statics, which may run during late shutdown.
 */
struct Registry
{
    std::mutex mu;
    std::map<std::string, MetricSlot, std::less<>> slots;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

template <typename T>
T &
lookup(std::string_view name, const char *kind)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.slots.find(name);
    if (it == r.slots.end()) {
        it = r.slots
                 .emplace(std::string(name),
                          MetricSlot(std::make_unique<T>()))
                 .first;
    }
    auto *slot = std::get_if<std::unique_ptr<T>>(&it->second);
    if (!slot) {
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' already registered as a different "
                               "kind than " +
                               kind);
    }
    return **slot;
}

} // namespace

void
setEnabled(bool on)
{
    detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Counter &
counter(std::string_view name)
{
    return lookup<Counter>(name, "counter");
}

Gauge &
gauge(std::string_view name)
{
    return lookup<Gauge>(name, "gauge");
}

Histogram &
histogram(std::string_view name)
{
    return lookup<Histogram>(name, "histogram");
}

void
resetMetrics()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &[name, slot] : r.slots) {
        (void)name;
        std::visit([](auto &m) { m->reset(); }, slot);
    }
}

void
visitMetrics(
    const std::function<void(const std::string &, const Counter &)>
        &onCounter,
    const std::function<void(const std::string &, const Gauge &)>
        &onGauge,
    const std::function<void(const std::string &, const Histogram &)>
        &onHistogram)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &[name, slot] : r.slots) {
        if (auto *c = std::get_if<std::unique_ptr<Counter>>(&slot))
            onCounter(name, **c);
        else if (auto *g = std::get_if<std::unique_ptr<Gauge>>(&slot))
            onGauge(name, **g);
        else
            onHistogram(
                name,
                *std::get<std::unique_ptr<Histogram>>(slot));
    }
}

void
Histogram::atomicAddDouble(std::atomic<uint64_t> &bits, double d)
{
    uint64_t old = bits.load(std::memory_order_relaxed);
    for (;;) {
        double next = std::bit_cast<double>(old) + d;
        if (bits.compare_exchange_weak(old, std::bit_cast<uint64_t>(next),
                                       std::memory_order_relaxed))
            return;
    }
}

void
Histogram::atomicMaxDouble(std::atomic<uint64_t> &bits, double d)
{
    // max_bits_ starts at -infinity, the identity of max, so the
    // first observation always wins -- including negative ones.
    uint64_t old = bits.load(std::memory_order_relaxed);
    while (d > std::bit_cast<double>(old)) {
        if (bits.compare_exchange_weak(old, std::bit_cast<uint64_t>(d),
                                       std::memory_order_relaxed))
            return;
    }
}

void
Histogram::observeBatch(std::span<const double> values, double scale)
{
    if (!enabled() || values.empty())
        return;
    uint64_t counts[kBuckets] = {};
    double top = -std::numeric_limits<double>::infinity();
    uint64_t old = sum_bits_.load(std::memory_order_relaxed);
    double sum = std::bit_cast<double>(old);
    for (double v : values) {
        double x = v * scale;
        ++counts[bucketOf(x)];
        sum += x;
        if (x > top) // NaN never wins, as in atomicMaxDouble
            top = x;
    }
    for (int b = 0; b < kBuckets; ++b) {
        if (counts[b])
            buckets_[b].fetch_add(counts[b], std::memory_order_relaxed);
    }
    count_.fetch_add(values.size(), std::memory_order_relaxed);
    // A concurrent observer moved the sum: refold from its value.
    while (!sum_bits_.compare_exchange_weak(
        old, std::bit_cast<uint64_t>(sum), std::memory_order_relaxed)) {
        sum = std::bit_cast<double>(old);
        for (double v : values)
            sum += v * scale;
    }
    atomicMaxDouble(max_bits_, top);
}

double
Histogram::bucketUpperBound(int i)
{
    return std::ldexp(1.0, i);
}

double
Histogram::quantile(double q) const
{
    uint64_t n = count();
    // An empty histogram has no quantiles: NaN, never a misleading
    // 0.0 (renderers print '-'; check empty() to branch first).
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (!(q > 0.0))
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    auto target = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (target == 0)
        target = 1;
    uint64_t acc = 0;
    for (int b = 0; b < kBuckets; ++b) {
        acc += buckets_[b].load(std::memory_order_relaxed);
        if (acc >= target)
            return std::ldexp(1.0, b); // bucket upper bound 2^b
    }
    return max();
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_bits_.store(0, std::memory_order_relaxed);
    max_bits_.store(kNegInfBits, std::memory_order_relaxed);
}

} // namespace paichar::obs
