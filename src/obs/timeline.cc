#include "timeline.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analyze.h"
#include "json_util.h"

namespace paichar::obs {

namespace detail {
std::atomic<bool> g_timeline_active{false};
} // namespace detail

namespace {

enum ProbeKind
{
    kLevel = 0,
    kRate = 1,
    kQuantile = 2,
};

const char *
kindName(int kind)
{
    switch (kind) {
    case kLevel:
        return "level";
    case kRate:
        return "rate";
    default:
        return "quantile";
    }
}

} // namespace

size_t
nearestRank(double q, size_t n)
{
    if (std::isnan(q))
        throw std::invalid_argument("nearestRank: q must not be NaN");
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, n);
}

std::vector<double>
nearestRankQuantiles(std::vector<double> samples,
                     std::span<const double> qs)
{
    // (rank, position in qs), visited by ascending rank.
    std::vector<std::pair<size_t, size_t>> ranks;
    ranks.reserve(qs.size());
    for (size_t i = 0; i < qs.size(); ++i)
        ranks.emplace_back(nearestRank(qs[i], samples.size()), i);
    std::vector<double> out(qs.size(),
                            std::numeric_limits<double>::quiet_NaN());
    if (samples.empty())
        return out;
    std::sort(ranks.begin(), ranks.end());
    // Invariant: nothing in [first, end) is below anything before
    // first, so a rank selected within [first, end) is that rank of
    // the whole set.
    auto first = samples.begin();
    for (auto [rank, i] : ranks) {
        auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
        if (nth >= first) {
            std::nth_element(first, nth, samples.end());
            first = nth + 1;
        }
        out[i] = *nth;
    }
    return out;
}

double
nearestRankQuantile(std::vector<double> samples, double q)
{
    return nearestRankQuantiles(std::move(samples), {&q, 1}).front();
}

struct Timeline::Slot
{
    int kind = kLevel;
    /** First window this probe participates in (rates/quantiles). */
    int64_t start_window = 0;
    /** True once a level value has been emitted at least once. */
    bool level_emitted = false;
    Level level;
    Rate rate;
    Quantile quantile;
};

Timeline::Timeline(double interval_s) : interval_(interval_s)
{
    if (!std::isfinite(interval_s) || interval_s <= 0.0)
        throw std::invalid_argument(
            "timeline interval must be a positive finite number of "
            "simulated seconds");
}

Timeline::~Timeline() = default;

Timeline::Slot &
Timeline::slot(std::string_view name, int kind)
{
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        auto inserted = slots_.emplace(std::string(name),
                                       std::make_unique<Slot>());
        it = inserted.first;
        it->second->kind = kind;
        it->second->start_window = next_window_;
    } else if (it->second->kind != kind) {
        throw std::logic_error(
            "timeline probe '" + std::string(name) +
            "' already registered as a " + kindName(it->second->kind) +
            ", requested as a " + kindName(kind));
    }
    return *it->second;
}

Timeline::Level &
Timeline::level(std::string_view name)
{
    return slot(name, kLevel).level;
}

Timeline::Rate &
Timeline::rate(std::string_view name)
{
    return slot(name, kRate).rate;
}

Timeline::Quantile &
Timeline::quantile(std::string_view name)
{
    return slot(name, kQuantile).quantile;
}

void
Timeline::closeWindow()
{
    double end = windowEnd();
    for (auto &[name, s] : slots_) {
        switch (s->kind) {
        case kLevel: {
            if (!s->level.seen_.load(std::memory_order_relaxed))
                break;
            double v = std::bit_cast<double>(
                s->level.bits_.load(std::memory_order_relaxed));
            rows_.push_back({end, name, v});
            s->level_emitted = true;
            break;
        }
        case kRate: {
            if (next_window_ < s->start_window)
                break;
            double v = std::bit_cast<double>(
                s->rate.bits_.load(std::memory_order_relaxed));
            s->rate.bits_.store(0, std::memory_order_relaxed);
            rows_.push_back({end, name, v});
            break;
        }
        default: {
            if (next_window_ < s->start_window)
                break;
            auto &samples = s->quantile.samples_;
            rows_.push_back({end, name + ".count",
                             static_cast<double>(samples.size())});
            if (!samples.empty()) {
                static constexpr std::array<double, 2> kQs{0.50, 0.99};
                std::vector<double> p =
                    nearestRankQuantiles(std::move(samples), kQs);
                rows_.push_back({end, name + ".p50", p[0]});
                rows_.push_back({end, name + ".p99", p[1]});
            }
            samples.clear();
            break;
        }
        }
    }
    ++next_window_;
    touched_ = false;
}

void
Timeline::advanceTo(double t)
{
    if (finalized_)
        return;
    while (windowEnd() <= t)
        closeWindow();
    if (t > windowStart())
        touched_ = true;
}

void
Timeline::finalize()
{
    if (finalized_)
        return;
    bool pending = touched_;
    for (const auto &[name, s] : slots_) {
        (void)name;
        if (pending)
            break;
        switch (s->kind) {
        case kLevel:
            pending = s->level.seen_.load(std::memory_order_relaxed) &&
                      !s->level_emitted;
            break;
        case kRate:
            pending = std::bit_cast<double>(s->rate.bits_.load(
                          std::memory_order_relaxed)) != 0.0;
            break;
        default:
            pending = !s->quantile.samples_.empty();
            break;
        }
    }
    if (pending)
        closeWindow();
    finalized_ = true;
}

std::string
Timeline::renderCsv() const
{
    std::string out = "# paichar timeline v1 interval_s ";
    appendJsonNumber(out, interval_);
    out += "\nend_s,series,value\n";
    for (const auto &row : rows_) {
        appendJsonNumber(out, row.end_s);
        out += ',';
        out += row.series;
        out += ',';
        appendJsonNumber(out, row.value);
        out += '\n';
    }
    return out;
}

std::string
Timeline::renderJson() const
{
    // Group rows by series, preserving the (already sorted) time
    // order within each.
    std::map<std::string, std::vector<const TimelineRow *>> by_series;
    for (const auto &row : rows_)
        by_series[row.series].push_back(&row);

    std::string out = "{\"schema\":\"";
    out += kTimelineSchema;
    out += "\",\"interval_s\":";
    appendJsonNumber(out, interval_);
    out += ",\"series\":[";
    bool first_series = true;
    for (const auto &[name, points] : by_series) {
        if (!first_series)
            out += ',';
        first_series = false;
        out += "{\"name\":\"";
        appendJsonEscaped(out, name);
        out += "\",\"points\":[";
        for (size_t i = 0; i < points.size(); ++i) {
            if (i)
                out += ',';
            out += '[';
            appendJsonNumber(out, points[i]->end_s);
            out += ',';
            appendJsonNumber(out, points[i]->value);
            out += ']';
        }
        out += "]}";
    }
    out += "]}\n";
    return out;
}

// ---------------------------------------------------------------------------
// Process-wide lifecycle
// ---------------------------------------------------------------------------

namespace {

/** Owned by the driver thread; guarded by the lifecycle contract,
 * not a lock (start/stop bracket a run like the job log). */
Timeline *g_timeline = nullptr;
std::atomic<uint64_t> g_timeline_generation{0};

} // namespace

void
startTimeline(double interval_s)
{
    // Construct first so a bad interval throws without disturbing
    // any previous timeline.
    auto *fresh = new Timeline(interval_s);
    delete g_timeline;
    g_timeline = fresh;
    g_timeline_generation.fetch_add(1, std::memory_order_relaxed);
    detail::g_timeline_active.store(true, std::memory_order_relaxed);
}

void
stopTimeline()
{
    detail::g_timeline_active.store(false, std::memory_order_relaxed);
    if (g_timeline)
        g_timeline->finalize();
}

Timeline *
timeline()
{
    return g_timeline;
}

uint64_t
timelineGeneration()
{
    return g_timeline_generation.load(std::memory_order_relaxed);
}

std::string
renderTimelineCsv()
{
    return g_timeline ? g_timeline->renderCsv() : std::string();
}

std::string
renderTimelineJson()
{
    return g_timeline ? g_timeline->renderJson() : std::string();
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

namespace {

bool
parseDouble(std::string_view tok, double &out)
{
    const char *first = tok.data();
    const char *last = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last;
}

/** An ASCII sparkline over @p points, min-max normalized. */
std::string
sparkline(const std::vector<std::pair<double, double>> &points,
          size_t width)
{
    static constexpr char kRamp[] = ".:-=+*#%@";
    constexpr size_t kLevels = sizeof(kRamp) - 1;
    if (points.empty())
        return {};
    width = std::min(width, points.size());
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const auto &[t, v] : points) {
        (void)t;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    out.reserve(width);
    for (size_t col = 0; col < width; ++col) {
        // Mean of the points bucketed into this column.
        size_t begin = col * points.size() / width;
        size_t end = (col + 1) * points.size() / width;
        end = std::max(end, begin + 1);
        double sum = 0.0;
        for (size_t i = begin; i < end; ++i)
            sum += points[i].second;
        double v = sum / static_cast<double>(end - begin);
        size_t lvl = kLevels / 2;
        if (hi > lo) {
            lvl = static_cast<size_t>((v - lo) / (hi - lo) *
                                      static_cast<double>(kLevels));
            lvl = std::min(lvl, kLevels - 1);
        }
        out += kRamp[lvl];
    }
    return out;
}

} // namespace

TimelineData
loadTimelineCsv(std::string_view text)
{
    TimelineData data;
    size_t pos = 0;
    size_t line_no = 0;
    bool saw_magic = false;
    bool saw_header = false;
    auto fail = [&](const std::string &what) {
        data.ok = false;
        data.error =
            "line " + std::to_string(line_no) + ": " + what;
        return data;
    };
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            constexpr std::string_view kMagic = "# paichar timeline ";
            if (line.substr(0, kMagic.size()) == kMagic) {
                size_t key = line.find("interval_s ");
                if (key == std::string_view::npos ||
                    !parseDouble(line.substr(key + 11),
                                 data.interval_s))
                    return fail("malformed timeline header");
                saw_magic = true;
            }
            continue;
        }
        if (!saw_magic)
            return fail("not a paichar timeline file (missing '# "
                        "paichar timeline' header)");
        if (!saw_header) {
            if (line != "end_s,series,value")
                return fail("expected 'end_s,series,value' header");
            saw_header = true;
            continue;
        }
        size_t c1 = line.find(',');
        size_t c2 = c1 == std::string_view::npos
                        ? std::string_view::npos
                        : line.find(',', c1 + 1);
        if (c2 == std::string_view::npos)
            return fail("expected 3 comma-separated fields");
        double end_s = 0.0;
        double value = 0.0;
        if (!parseDouble(line.substr(0, c1), end_s))
            return fail("bad end_s value");
        if (!parseDouble(line.substr(c2 + 1), value))
            return fail("bad sample value");
        std::string series(line.substr(c1 + 1, c2 - c1 - 1));
        if (series.empty())
            return fail("empty series name");
        data.series[series].emplace_back(end_s, value);
    }
    if (!saw_magic) {
        data.ok = false;
        data.error = "not a paichar timeline file (missing '# "
                     "paichar timeline' header)";
    } else if (!saw_header) {
        data.ok = false;
        data.error = "truncated timeline file (missing "
                     "'end_s,series,value' header)";
    }
    return data;
}

std::string
renderTimelineReport(const TimelineData &data)
{
    size_t rows = 0;
    for (const auto &[name, points] : data.series) {
        (void)name;
        rows += points.size();
    }
    std::string out = format(
        "# paichar obs timeline (interval %gs, %zu series, %zu "
        "rows)\n",
        data.interval_s, data.series.size(), rows);
    if (data.series.empty())
        return out;
    size_t name_w = 6;
    for (const auto &[name, points] : data.series) {
        (void)points;
        name_w = std::max(name_w, name.size());
    }
    out += format("%-*s %6s %12s %12s %12s %12s  %s\n",
                  static_cast<int>(name_w), "series", "rows", "mean",
                  "min", "max", "last", "spark");
    for (const auto &[name, points] : data.series) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        for (const auto &[t, v] : points) {
            (void)t;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
            sum += v;
        }
        double mean = sum / static_cast<double>(points.size());
        out += format("%-*s %6zu %12.4g %12.4g %12.4g %12.4g  %s\n",
                      static_cast<int>(name_w), name.c_str(),
                      points.size(), mean, lo, hi,
                      points.back().second,
                      sparkline(points, 24).c_str());
    }
    return out;
}

RunData
timelineScalars(const TimelineData &data)
{
    RunData run;
    run.kind = RunData::Kind::Metrics;
    for (const auto &[name, points] : data.series) {
        if (points.empty())
            continue;
        double hi = -std::numeric_limits<double>::infinity();
        double sum = 0.0;
        for (const auto &[t, v] : points) {
            (void)t;
            hi = std::max(hi, v);
            sum += v;
        }
        run.scalars[name + ".mean"] =
            sum / static_cast<double>(points.size());
        run.scalars[name + ".max"] = hi;
        run.scalars[name + ".last"] = points.back().second;
        run.scalars[name + ".rows"] =
            static_cast<double>(points.size());
    }
    return run;
}

} // namespace paichar::obs
