/**
 * @file
 * Shared entry point for the trace-loader fuzz target and the corpus
 * replay test: one input buffer in, decoded by trace::parseTrace(),
 * the step every trace the CLI reads takes (`paib` magic -> envelope
 * check, parallel row scan and columnar view; anything else -> CSV
 * parser), with round-trip cross-checks on accepted inputs.
 *
 * The harness must never crash, assert, or hang on arbitrary bytes —
 * that is the contract being fuzzed (the loader promises a clean
 * error for malformed input).
 */

#ifndef PAICHAR_TESTS_FUZZ_FUZZ_HARNESS_H
#define PAICHAR_TESTS_FUZZ_FUZZ_HARNESS_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "trace/binary_trace.h"
#include "trace/trace_io.h"

namespace paichar::testkit_fuzz {

/** Decode @p data the way readTraceStore() does once it has bytes. */
inline trace::StoreResult
fuzzParse(std::string_view data)
{
    return trace::parseTrace(std::string(data));
}

/**
 * One fuzz iteration. Accepted inputs are additionally round-tripped
 * through both encoders: a value the loader accepted must serialize
 * and load back to the same jobs, in both CSV and `paib`. A
 * round-trip mismatch aborts, which libFuzzer reports as a crash with
 * the offending input preserved.
 */
inline void
fuzzOne(std::string_view data)
{
    trace::StoreResult r = fuzzParse(data);
    if (!r.ok) {
        // Errors must be described; a silent failure is a bug.
        if (r.error.empty()) {
            std::fprintf(stderr, "rejected input with empty error\n");
            std::abort();
        }
        return;
    }
    const auto jobs = r.store.materialize();
    const std::string csv = trace::toCsv(jobs);
    trace::StoreResult rt_csv = trace::parseTrace(csv);
    trace::StoreResult rt_bin = trace::parseTrace(trace::toBinary(jobs));
    if (!rt_csv.ok || !rt_bin.ok ||
        trace::toCsv(rt_csv.store.materialize()) != csv ||
        trace::toCsv(rt_bin.store.materialize()) != csv) {
        std::fprintf(stderr, "round-trip mismatch on accepted input\n");
        std::abort();
    }
}

} // namespace paichar::testkit_fuzz

#endif // PAICHAR_TESTS_FUZZ_FUZZ_HARNESS_H
