/**
 * @file
 * Corpus replay for the trace-parser fuzz harness (`ctest -L fuzz`).
 *
 * Every committed corpus file runs through the exact fuzz entry point
 * (tests/fuzz/fuzz_harness.h). Naming convention enforced here:
 *   ok_*   must parse successfully,
 *   bad_*  must be rejected with a clean, non-empty error.
 * Either way the harness's round-trip/abort checks apply, so a crash
 * or hang regression in the parsers fails this suite without needing
 * a fuzzing engine in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_harness.h"
#include "runtime/thread_pool.h"

namespace paichar::testkit_fuzz {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    EXPECT_TRUE(f) << "cannot read " << p;
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

std::vector<fs::path>
corpusFiles()
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(PAICHAR_FUZZ_CORPUS_DIR))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzReplayTest, CorpusIsPresentAndCoversBothOutcomes)
{
    int ok = 0, bad = 0;
    for (const auto &p : corpusFiles()) {
        std::string name = p.filename().string();
        if (name.rfind("ok_", 0) == 0)
            ++ok;
        else if (name.rfind("bad_", 0) == 0)
            ++bad;
        else
            ADD_FAILURE() << "corpus file '" << name
                          << "' must be named ok_* or bad_*";
    }
    // A missing/empty corpus must fail loudly, never skip.
    EXPECT_GE(ok, 2) << "need accepted-input seeds in the corpus";
    EXPECT_GE(bad, 5) << "need malformed-input seeds in the corpus";
}

TEST(FuzzReplayTest, EveryCorpusFileReplaysCleanly)
{
    auto files = corpusFiles();
    ASSERT_FALSE(files.empty())
        << "empty corpus at " << PAICHAR_FUZZ_CORPUS_DIR;
    for (const auto &p : files) {
        SCOPED_TRACE(p.filename().string());
        const std::string data = slurp(p);
        // The harness aborts on round-trip or error-hygiene bugs.
        fuzzOne(data);
        trace::StoreResult r = fuzzParse(data);
        if (p.filename().string().rfind("ok_", 0) == 0) {
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_FALSE(r.store.empty());
        } else {
            EXPECT_FALSE(r.ok);
            EXPECT_FALSE(r.error.empty());
        }
    }
}

// A corpus file read by path (mapped) must load exactly like its
// bytes handed to the fuzz entry point, at 1 and 4 threads: same
// verdict, byte-identical error text, same jobs.
TEST(FuzzReplayTest, StoreReaderAgreesWithParserOnWholeCorpus)
{
    runtime::ThreadPool p1(1), p4(4);
    for (const auto &p : corpusFiles()) {
        SCOPED_TRACE(p.filename().string());
        const std::string data = slurp(p);
        for (runtime::ThreadPool *pool : {&p1, &p4}) {
            trace::StoreResult parsed = trace::parseTrace(data, pool);
            trace::StoreResult store =
                trace::readTraceStore(p.string(), pool);
            EXPECT_EQ(store.ok, parsed.ok);
            EXPECT_EQ(store.error, parsed.error);
            if (parsed.ok) {
                ASSERT_EQ(store.store.size(), parsed.store.size());
                EXPECT_EQ(trace::toCsv(store.store.materialize()),
                          trace::toCsv(parsed.store.materialize()));
            }
        }
    }
}

} // namespace
} // namespace paichar::testkit_fuzz
