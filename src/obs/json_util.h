/**
 * @file
 * Minimal JSON building blocks shared by the obs exporters (Chrome
 * trace, job-log JSONL): string escaping per RFC 8259 and
 * shortest-round-trip number formatting via std::to_chars, so every
 * exporter emits byte-identical output for identical inputs. Also the
 * one printf-to-string helper of the text renderers.
 */

#ifndef PAICHAR_OBS_JSON_UTIL_H
#define PAICHAR_OBS_JSON_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>

namespace paichar::obs {

/**
 * Append @p s to @p out with JSON string escaping (no surrounding
 * quotes): `"` and `\` are backslash-escaped, the common control
 * characters use their two-character forms (\n, \t, \r, \b, \f), the
 * remaining control bytes become \u00XX, and everything else --
 * including non-ASCII UTF-8 sequences -- passes through unchanged.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Convenience wrapper: the escaped form of @p s (no quotes). */
std::string jsonEscape(std::string_view s);

/**
 * Append @p v in the shortest spelling that parses back to the exact
 * same double (std::to_chars), matching the trace writers' spelling
 * guarantee. Non-finite values, which JSON cannot represent, are
 * emitted as 0 -- exporters must not produce them in the first place.
 */
void appendJsonNumber(std::string &out, double v);

/** Integer overload. */
void appendJsonNumber(std::string &out, int64_t v);

/**
 * printf into a std::string, growing to fit (never truncates); "" on
 * an encoding error.
 */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace paichar::obs

#endif // PAICHAR_OBS_JSON_UTIL_H
