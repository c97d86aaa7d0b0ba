#include "table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "obs/json_util.h"

namespace paichar::stats {

using obs::format;

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    assert(!headers_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::addSeparator()
{
    rows_.emplace_back(); // empty row encodes a separator
}

size_t
Table::rowCount() const
{
    return static_cast<size_t>(
        std::count_if(rows_.begin(), rows_.end(),
                      [](const auto &r) { return !r.empty(); }));
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto renderSep = [&](std::ostringstream &os) {
        os << '+';
        for (size_t w : widths)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto renderRow = [&](std::ostringstream &os,
                         const std::vector<std::string> &cells) {
        os << '|';
        for (size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << ' ' << cell << std::string(widths[c] - cell.size(), ' ')
               << " |";
        }
        os << '\n';
    };

    std::ostringstream os;
    renderSep(os);
    renderRow(os, headers_);
    renderSep(os);
    for (const auto &row : rows_) {
        if (row.empty())
            renderSep(os);
        else
            renderRow(os, row);
    }
    renderSep(os);
    return os.str();
}

std::string
fmt(double v, int precision)
{
    return format("%.*f", precision, v);
}

std::string
fmtPct(double fraction, int precision)
{
    return format("%.*f%%", precision, fraction * 100.0);
}

std::string
fmtG(double v, int significant)
{
    return format("%.*g", significant, v);
}

std::string
fmtBytes(double bytes)
{
    const char *units[] = {"B", "KB", "MB", "GB", "TB"};
    int u = 0;
    double v = bytes;
    while (std::abs(v) >= 1000.0 && u < 4) {
        v /= 1000.0;
        ++u;
    }
    return format("%.3g %s", v, units[u]);
}

std::string
fmtSeconds(double seconds)
{
    double a = std::abs(seconds);
    if (a >= 1.0)
        return format("%.3f s", seconds);
    if (a >= 1e-3)
        return format("%.3f ms", seconds * 1e3);
    return format("%.3f us", seconds * 1e6);
}

} // namespace paichar::stats
