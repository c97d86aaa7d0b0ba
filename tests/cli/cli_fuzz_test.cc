/**
 * @file
 * Argv fuzzer for the paichar binary. It learns every subcommand and
 * its flags from `paichar --help` and `paichar CMD --help`, so the
 * flag table stays private to the CLI, and checks for each command:
 *  - `--help` exits 0 and every flag it lists is accepted;
 *  - a misspelled flag exits 1 with "unknown flag" and empty stdout;
 *  - hostile values (x, "", nan, inf, -1, 0, 1e30, 2.5) exit 0 or 1
 *    and never on a signal; an exit 1 starts err with "error:", and a
 *    value the flag table rejects leaves stdout empty.
 * Each case runs the real binary in its own process, so a signal is
 * observable, inside a scratch directory (file-valued flags write
 * there). Small companion flags (a 50-job trace, --requests 200,
 * --top 0) keep every run cheap.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Result
{
    /** waitpid() status: a signal shows as WIFSIGNALED. */
    int status = 0;
    std::string out, err;

    bool exited() const { return WIFEXITED(status); }
    int code() const { return WEXITSTATUS(status); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

/** Run paichar on @p args with @p dir as its working directory. */
Result
paichar(const std::vector<std::string> &args, const std::string &dir)
{
    std::vector<char *> argv{const_cast<char *>(PAICHAR_BIN)};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    // Per test process: ctest runs the parameterized cases in parallel,
    // and each one lists the commands in the shared temp directory.
    std::string tag = "/.paichar_" + std::to_string(getpid());
    std::string out_path = dir + tag + ".out";
    std::string err_path = dir + tag + ".err";

    pid_t pid = fork();
    if (pid == 0) {
        int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                       0644);
        int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                       0644);
        if (out < 0 || err < 0 || dup2(out, 1) < 0 ||
            dup2(err, 2) < 0 || chdir(dir.c_str()) != 0)
            _exit(127);
        // A hang ends on SIGALRM, which the checks report as a signal.
        alarm(120);
        setenv("PAICHAR_THREADS", "2", 1);
        execv(PAICHAR_BIN, argv.data());
        _exit(127);
    }
    Result r;
    if (pid < 0 || waitpid(pid, &r.status, 0) != pid) {
        ADD_FAILURE() << "cannot run " << PAICHAR_BIN;
        return r;
    }
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return r;
}

std::vector<std::string>
words(const std::string &s)
{
    std::istringstream in(s);
    std::vector<std::string> w;
    for (std::string x; in >> x;)
        w.push_back(x);
    return w;
}

/** The lines after @p header in @p text, up to the next blank line. */
std::vector<std::string>
section(const std::string &text, const std::string &header)
{
    std::istringstream in(text);
    std::vector<std::string> lines;
    bool inside = false;
    for (std::string line; std::getline(in, line);) {
        if (inside && line.empty())
            break;
        if (inside)
            lines.push_back(line);
        inside = inside || line.rfind(header, 0) == 0;
    }
    return lines;
}

struct CommandSpec
{
    std::string name;                     ///< e.g. "obs timeline diff"
    std::vector<std::string> positionals; ///< metavars, e.g. TRACE
};

void
PrintTo(const CommandSpec &c, std::ostream *os)
{
    *os << c.name;
}

/** Every command in `paichar --help`, with its positional metavars. */
std::vector<CommandSpec>
commandsFromHelp()
{
    std::vector<CommandSpec> cmds;
    Result r = paichar({"--help"}, ::testing::TempDir());
    for (const std::string &line : section(r.out, "commands:")) {
        // "  name ARGS   summary"; a long left part puts the summary on
        // an indented continuation line.
        if (line.size() < 3 || line[2] == ' ')
            continue;
        CommandSpec c;
        std::string left = line.substr(0, line.find("  ", 2));
        for (const std::string &w : words(left)) {
            if (std::islower(static_cast<unsigned char>(w[0])))
                c.name += (c.name.empty() ? "" : " ") + w;
            else
                c.positionals.push_back(w);
        }
        cmds.push_back(c);
    }
    return cmds;
}

struct FlagSpec
{
    std::string name;
    /** --flag[=VALUE]: the value is never the next argument. */
    bool optional_value = false;
};

/** The flags a --help text lists in @p header's section. */
std::vector<FlagSpec>
flagsFromHelp(const std::string &help, const std::string &header)
{
    std::vector<FlagSpec> flags;
    for (const std::string &line : section(help, header)) {
        if (line.rfind("  --", 0) != 0)
            continue;
        size_t end = line.find_first_of(" [", 4);
        flags.push_back({line.substr(4, end - 4),
                         line.compare(end, 2, "[=") == 0});
    }
    return flags;
}

const std::vector<std::string> kHostileValues{
    "x", "", "nan", "inf", "-1", "0", "1e30", "2.5"};

class CliFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = ::testing::TempDir() + "paichar_fuzz_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
        ASSERT_EQ(run({"generate", "--jobs", "50", "--seed", "3",
                       "--out", "trace.csv"})
                      .code(),
                  0);
        ASSERT_EQ(run({"schedule", "trace.csv", "--job-log",
                       "run.jsonl", "--timeline", "run.timeline.csv",
                       "--timeline-interval", "600"})
                      .code(),
                  0);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    Result run(const std::vector<std::string> &args) const
    {
        return paichar(args, dir_);
    }

    /** The command words, its arguments and cheap companion flags. */
    std::vector<std::string>
    baseArgs(const CommandSpec &cmd) const
    {
        static const std::map<std::string, std::string> kModel{
            {"serve", "bert"}, {"capacity", "bert"}};
        std::vector<std::string> args = words(cmd.name);
        for (std::string p : cmd.positionals) {
            p = p.substr(0, p.find('_'));
            if (p == "TRACE" || p == "IN")
                args.push_back("trace.csv");
            else if (p == "OUT")
                args.push_back("out.csv");
            else if (p == "MODEL")
                args.push_back(kModel.count(cmd.name)
                                   ? kModel.at(cmd.name)
                                   : "gcn");
            else if (p == "RUN" || p == "JOBLOG")
                args.push_back("run.jsonl");
            else if (p == "TIMELINE")
                args.push_back("run.timeline.csv");
            else
                ADD_FAILURE() << "no argument for metavar " << p;
        }
        static const std::map<std::string, std::vector<std::string>>
            kCompanions{{"generate", {"--jobs", "50"}},
                        {"plan", {"--top", "0"}},
                        {"serve", {"--requests", "200"}},
                        {"capacity", {"--requests", "200"}},
                        {"advise",
                         {"--flops", "1e12", "--mem", "1e9", "--input",
                          "1e6", "--comm", "1e8"}}};
        auto it = kCompanions.find(cmd.name);
        if (it != kCompanions.end())
            args.insert(args.end(), it->second.begin(),
                        it->second.end());
        return args;
    }

    /** Run @p base with @p flag set to each hostile value. */
    void
    fuzzValues(const std::vector<std::string> &base, const FlagSpec &flag)
    {
        for (const std::string &v : kHostileValues) {
            std::vector<std::string> args = base;
            if (flag.optional_value) {
                args.push_back("--" + flag.name + "=" + v);
            } else {
                args.push_back("--" + flag.name);
                args.push_back(v);
            }
            std::string what = "--" + flag.name + " '" + v + "'";
            Result r = run(args);
            ASSERT_TRUE(r.exited())
                << what << " ended on signal " << WTERMSIG(r.status)
                << "; err: " << r.err;
            EXPECT_TRUE(r.code() == 0 || r.code() == 1)
                << what << " exited " << r.code() << "; err: " << r.err;
            EXPECT_EQ(r.err.find("unknown flag"), std::string::npos)
                << what << ": " << r.err;
            if (r.code() == 1) {
                EXPECT_EQ(r.err.rfind("error:", 0), 0u)
                    << what << ": " << r.err;
            }
            if (r.err.rfind("error: flag --" + flag.name + " ", 0) == 0) {
                EXPECT_TRUE(r.out.empty()) << what << ": " << r.out;
            }
        }
    }

    std::string dir_;
};

class CliFuzzCommand : public CliFuzz,
                       public ::testing::WithParamInterface<CommandSpec>
{
};

TEST_P(CliFuzzCommand, HelpMisspellingsAndHostileValues)
{
    const CommandSpec &cmd = GetParam();
    std::vector<std::string> help_args = words(cmd.name);
    help_args.push_back("--help");
    Result help = run(help_args);
    ASSERT_TRUE(help.exited() && help.code() == 0) << help.err;
    ASSERT_EQ(help.out.rfind("usage: paichar " + cmd.name, 0), 0u)
        << help.out;

    auto flags = flagsFromHelp(help.out, "flags:");
    std::set<std::string> known{"help", "shards"};
    for (const FlagSpec &f : flags)
        known.insert(f.name);
    Result top = run({"--help"});
    for (const FlagSpec &f : flagsFromHelp(top.out, "global flags"))
        known.insert(f.name);

    const std::vector<std::string> base = baseArgs(cmd);
    std::vector<std::string> with_global = base;
    with_global.insert(with_global.end(), {"--threads", "1"});
    Result plain = run(with_global);
    ASSERT_TRUE(plain.exited()) << plain.err;
    EXPECT_EQ(plain.code(), 0) << plain.err;

    for (const FlagSpec &f : flags) {
        const std::string &n = f.name;
        std::vector<std::string> typos{n.substr(0, n.size() / 2) +
                                           n.substr(n.size() / 2 + 1),
                                       n + "x"};
        if (n[0] != n[1])
            typos.push_back(std::string{n[1], n[0]} + n.substr(2));
        for (const std::string &typo : typos) {
            if (known.count(typo))
                continue;
            std::vector<std::string> args = base;
            args.insert(args.end(), {"--" + typo, "1"});
            Result r = run(args);
            ASSERT_TRUE(r.exited()) << typo;
            EXPECT_EQ(r.code(), 1) << typo;
            EXPECT_NE(r.err.find("unknown flag --" + typo),
                      std::string::npos)
                << typo << ": " << r.err;
            EXPECT_TRUE(r.out.empty()) << typo << ": " << r.out;
        }
        fuzzValues(base, f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Commands, CliFuzzCommand, ::testing::ValuesIn(commandsFromHelp()),
    [](const ::testing::TestParamInfo<CommandSpec> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// The global flags go through one parser for every command, so one
// cheap command covers their values.
TEST_F(CliFuzz, GlobalFlagsSurviveHostileValues)
{
    Result top = run({"--help"});
    ASSERT_EQ(top.code(), 0);
    auto flags = flagsFromHelp(top.out, "global flags");
    ASSERT_FALSE(flags.empty()) << top.out;
    for (const FlagSpec &f : flags)
        fuzzValues({"characterize", "trace.csv"}, f);
}

} // namespace
