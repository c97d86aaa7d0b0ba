/**
 * @file
 * The `paichar` command-line interface, as a library so tests can
 * drive it. The subcommands cover the workflow end to end: generate,
 * convert, characterize, project and sweep a trace, advise, diagnose
 * and plan a model, serve and capacity for an inference fleet,
 * schedule a trace on a cluster, and obs to read the runs back. One
 * table in cli.cc declares every subcommand and flag; `paichar
 * --help` and `paichar CMD --help` print it, and the parser built on
 * it rejects unknown flags and bad values before any work starts.
 */

#ifndef PAICHAR_CLI_CLI_H
#define PAICHAR_CLI_CLI_H

#include <ostream>
#include <string>
#include <vector>

namespace paichar::cli {

/**
 * Run the CLI.
 *
 * @param args Arguments excluding the program name.
 * @param out  Normal output stream.
 * @param err  Error/diagnostic stream.
 * @return Process exit code: 0 on success, 1 on an error, 2 when
 *         `obs diff` or `obs timeline diff` finds a regression.
 */
int run(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err);

} // namespace paichar::cli

#endif // PAICHAR_CLI_CLI_H
