#include "json_util.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace paichar::obs {

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

void
appendJsonNumber(std::string &out, int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

std::string
format(const char *fmt, ...)
{
    va_list args, copy;
    va_start(args, fmt);
    va_copy(copy, args);
    char buf[160];
    int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    std::string out;
    if (n >= 0 && static_cast<size_t>(n) < sizeof buf) {
        out.assign(buf, static_cast<size_t>(n));
    } else if (n >= 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, copy);
    }
    va_end(copy);
    return out;
}

} // namespace paichar::obs
