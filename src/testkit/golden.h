/**
 * @file
 * Golden-snapshot testing for CLI subcommands.
 *
 * A golden check drives the CLI through its library entry point
 * (cli::run) under each requested --threads count, requires every run
 * to exit 0 with an empty error stream and *byte-identical* stdout
 * across thread counts (the runtime layer's determinism contract at
 * the binary level), and then compares that output byte-for-byte
 * against a committed snapshot under the goldens directory.
 *
 * Record mode: when the PAICHAR_UPDATE_GOLDENS environment variable
 * is set to a non-empty value other than "0", the snapshot file is
 * (re)written instead of compared. Workflow:
 *
 *   PAICHAR_UPDATE_GOLDENS=1 ctest -L golden   # re-record
 *   git diff tests/golden/goldens/             # review the change
 *   ctest -L golden                            # clean run is exact
 *
 * A missing golden is a hard failure (never a skip), so CI cannot
 * silently pass with snapshots absent.
 */

#ifndef PAICHAR_TESTKIT_GOLDEN_H
#define PAICHAR_TESTKIT_GOLDEN_H

#include <string>
#include <vector>

namespace paichar::testkit {

/** Golden harness configuration. */
struct GoldenOptions
{
    /** Directory holding <name>.golden snapshot files. */
    std::string dir;
    /**
     * --threads values to run the command under; all runs must
     * produce byte-identical stdout.
     */
    std::vector<int> thread_counts{1, 2, 8};
    /**
     * Files the command writes (e.g. a --timeline export) to hold to
     * the same contract as stdout: after every thread count the
     * harness reads each file, requires byte-identity across the
     * runs, and compares/records it against
     * <name>.<basename>.golden. Paths are read as given (tests
     * chdir into their scratch directory).
     */
    std::vector<std::string> artifact_files;
};

/** Outcome of one golden check. */
struct GoldenResult
{
    /** Snapshot matched (or was recorded). */
    bool ok = false;
    /** Record mode wrote the snapshot this run. */
    bool updated = false;
    /** Diagnostic: mismatch location, CLI error, or status. */
    std::string message;
};

/** True when PAICHAR_UPDATE_GOLDENS requests record mode. */
bool updateGoldensRequested();

/**
 * Run `paichar <args>` (library entry point) and compare stdout to
 * @p dir/<name>.golden.
 *
 * @param name Snapshot name (file becomes <name>.golden).
 * @param args CLI arguments, excluding the program name and
 *             --threads (the harness appends it).
 */
GoldenResult checkGolden(const std::string &name,
                         const std::vector<std::string> &args,
                         const GoldenOptions &opts);

} // namespace paichar::testkit

#endif // PAICHAR_TESTKIT_GOLDEN_H
