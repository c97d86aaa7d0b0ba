#include "golden.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "cli/cli.h"
#include "runtime/parallel.h"

namespace paichar::testkit {

namespace {

/** First byte offset where @p a and @p b differ, with line context. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t pos = 0;
    while (pos < n && a[pos] == b[pos])
        ++pos;
    size_t line = 1 + static_cast<size_t>(std::count(
                          a.begin(),
                          a.begin() + static_cast<ptrdiff_t>(pos), '\n'));
    auto context = [pos](const std::string &s) {
        size_t start = s.rfind('\n', pos == 0 ? 0 : pos - 1);
        start = start == std::string::npos ? 0 : start + 1;
        size_t end = s.find('\n', pos);
        end = end == std::string::npos ? s.size() : end;
        return s.substr(start, std::min<size_t>(end - start, 120));
    };
    std::string msg = "first difference at byte " + std::to_string(pos) +
                      " (line " + std::to_string(line) + ")";
    msg += "\n  expected: " +
           (pos >= a.size() ? std::string("<end of golden>")
                            : context(a));
    msg += "\n  actual:   " +
           (pos >= b.size() ? std::string("<end of output>")
                            : context(b));
    return msg;
}

} // namespace

bool
updateGoldensRequested()
{
    const char *v = std::getenv("PAICHAR_UPDATE_GOLDENS");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

GoldenResult
checkGolden(const std::string &name,
            const std::vector<std::string> &args,
            const GoldenOptions &opts)
{
    assert(!opts.dir.empty());
    assert(!opts.thread_counts.empty());

    GoldenResult r;

    // Run under every thread count; require identical bytes
    // everywhere (the runtime layer's binary-level determinism
    // contract). Artifact files the command writes are held to the
    // same contract.
    std::string output;
    std::vector<std::string> artifacts(opts.artifact_files.size());
    auto readArtifact =
        [](const std::string &path) -> std::optional<std::string> {
        std::ifstream f(path, std::ios::binary);
        if (!f)
            return std::nullopt;
        std::ostringstream buf;
        buf << f.rdbuf();
        return std::move(buf).str();
    };
    const std::string base_combo =
        "--threads " + std::to_string(opts.thread_counts[0]);
    for (size_t ti = 0; ti < opts.thread_counts.size(); ++ti) {
        bool first = ti == 0;
        std::string combo =
            "--threads " + std::to_string(opts.thread_counts[ti]);
        std::vector<std::string> full = args;
        full.push_back("--threads");
        full.push_back(std::to_string(opts.thread_counts[ti]));

        std::ostringstream out, err;
        int code = cli::run(full, out, err);
        // Leave the process-wide pool as the environment dictates.
        runtime::setThreadCount(0);
        if (code != 0 || !err.str().empty()) {
            r.message = name + ": CLI exited " + std::to_string(code) +
                        " under " + combo + "\n  stderr: " + err.str();
            return r;
        }
        if (first) {
            output = out.str();
        } else if (out.str() != output) {
            r.message = name + ": output differs between " +
                        base_combo + " and " + combo + "\n" +
                        firstDifference(output, out.str());
            return r;
        }
        for (size_t i = 0; i < opts.artifact_files.size(); ++i) {
            auto text = readArtifact(opts.artifact_files[i]);
            if (!text) {
                r.message = name + ": command did not write '" +
                            opts.artifact_files[i] + "' under " +
                            combo;
                return r;
            }
            if (first) {
                artifacts[i] = std::move(*text);
            } else if (*text != artifacts[i]) {
                r.message = name + ": artifact '" +
                            opts.artifact_files[i] +
                            "' differs between " + base_combo +
                            " and " + combo + "\n" +
                            firstDifference(artifacts[i], *text);
                return r;
            }
        }
    }

    // Snapshot names: <name>.golden for stdout, then
    // <name>.<basename>.golden per artifact file.
    std::vector<std::pair<std::string, const std::string *>> snaps;
    snaps.emplace_back(opts.dir + "/" + name + ".golden", &output);
    for (size_t i = 0; i < opts.artifact_files.size(); ++i) {
        const std::string &p = opts.artifact_files[i];
        auto slash = p.rfind('/');
        std::string base =
            slash == std::string::npos ? p : p.substr(slash + 1);
        snaps.emplace_back(opts.dir + "/" + name + "." + base +
                               ".golden",
                           &artifacts[i]);
    }

    if (updateGoldensRequested()) {
        size_t total = 0;
        for (const auto &[path, text] : snaps) {
            std::ofstream f(path,
                            std::ios::binary | std::ios::trunc);
            if (!f || !(f << *text)) {
                r.message =
                    name + ": cannot write golden '" + path + "'";
                return r;
            }
            total += text->size();
        }
        r.ok = true;
        r.updated = true;
        r.message = name + ": recorded " + std::to_string(total) +
                    " bytes across " +
                    std::to_string(snaps.size()) + " snapshot(s)";
        return r;
    }

    for (const auto &[path, text] : snaps) {
        std::ifstream f(path, std::ios::binary);
        if (!f) {
            r.message = name + ": missing golden '" + path +
                        "' — record with PAICHAR_UPDATE_GOLDENS=1";
            return r;
        }
        std::ostringstream expected;
        expected << f.rdbuf();
        if (expected.str() != *text) {
            r.message = name + ": output does not match '" + path +
                        "'\n" + firstDifference(expected.str(), *text) +
                        "\n  re-record with PAICHAR_UPDATE_GOLDENS=1 "
                        "after reviewing";
            return r;
        }
    }
    r.ok = true;
    r.message = name + ": matched (" +
                std::to_string(output.size()) + " bytes, " +
                std::to_string(opts.thread_counts.size()) +
                " thread counts, " +
                std::to_string(snaps.size()) + " snapshot(s))";
    return r;
}

} // namespace paichar::testkit
