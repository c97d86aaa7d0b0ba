/**
 * @file
 * Helpers for forging `paib` payloads in tests: patch a byte, then
 * re-seal the payload with a valid checksum so the loader gets past
 * the envelope and reaches the per-row checks.
 */

#ifndef PAICHAR_TESTS_TRACE_PAIB_FORGE_H
#define PAICHAR_TESTS_TRACE_PAIB_FORGE_H

#include <cstdint>
#include <cstring>
#include <string>

namespace paichar::trace {

/** Mirror of the paib word-folded FNV-1a-64, to forge payloads. */
inline uint64_t
refChecksum(const std::string &data)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 14695981039346656037ull;
    size_t words = data.size() / 8;
    for (size_t i = 0; i < words; ++i) {
        uint64_t w;
        std::memcpy(&w, data.data() + i * 8, 8);
        h = (h ^ w) * kPrime;
    }
    for (size_t i = words * 8; i < data.size(); ++i)
        h = (h ^ static_cast<unsigned char>(data[i])) * kPrime;
    return h;
}

/** Patch @p bin at @p pos with @p byte and append a valid checksum. */
inline std::string
forge(std::string bin, size_t pos, char byte)
{
    bin[pos] = byte;
    std::string body = bin.substr(0, bin.size() - 8);
    uint64_t sum = refChecksum(body);
    body.append(reinterpret_cast<const char *>(&sum), sizeof sum);
    return body;
}

} // namespace paichar::trace

#endif // PAICHAR_TESTS_TRACE_PAIB_FORGE_H
