/**
 * @file
 * Prefetcher bake-off driver: run every selected contender from the
 * prefetcher registry across workload suites under identical machine
 * conditions and emit a ranked report. Writes <out>/bakeoff.json
 * (schema "asdbakeoff/v1") and <out>/leaderboard.md, prints the
 * leaderboard, and exits non-zero if any job failed. The two report
 * files are byte-identical across runs and thread counts.
 *
 * Usage:
 *   asdbakeoff [--suites spec,nas,commercial] [--bench NAME]...
 *              [--prefetchers asd,dspatch,...] [--vm] [--os]
 *              [--accesses N] [--warm-start CYCLES] [--threads N]
 *              [--out DIR] [--resume] [--list] [--quiet]
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arena/bakeoff.hpp"
#include "arena/report.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"

namespace
{

using namespace asd;

struct CliConfig
{
    BakeoffOptions bakeoff;
    std::string out_dir = "results/bakeoff";
    bool list = false;
    bool quiet = false;
};

CliError
parseSuites(const std::string &text, std::vector<Suite> &suites)
{
    std::vector<std::string> names;
    if (CliError error = splitList(text, names))
        return error;
    suites.clear();
    for (const std::string &name : names) {
        if (name == "spec")
            suites.push_back(Suite::Spec2006fp);
        else if (name == "nas")
            suites.push_back(Suite::Nas);
        else if (name == "commercial")
            suites.push_back(Suite::Commercial);
        else if (name != "none") // none: the grid comes from --bench
            return "unknown suite (use spec|nas|commercial|none): " +
                   name;
    }
    return std::nullopt;
}

CliConfig
parseArgs(int argc, char **argv)
{
    CliConfig cli;
    BakeoffOptions &b = cli.bakeoff;
    const std::vector<CliFlag> flags = {
        {"--suites", "LIST",
         "comma list of spec,nas,commercial (default all three)",
         [&b](const std::string &text) {
             return parseSuites(text, b.suites);
         }},
        {"--bench", "NAME",
         "extra benchmark by name (repeatable; with --suites none, "
         "these are the whole grid)",
         [&b](const std::string &name) {
             b.benchmarks.push_back(name);
             return std::nullopt;
         }},
        {"--prefetchers", "LIST",
         "contender registry names (default: every registered one; "
         "see --list)",
         [&b](const std::string &text) {
             return splitList(text, b.prefetchers);
         }},
        switchFlag("--vm",
                   "also run every workload with 4 KiB random-placement "
                   "VM",
                   b.vm_axis),
        switchFlag("--os",
                   "also run every workload under the OS memory model "
                   "(demand paging, finite frames, CLOCK reclaim)",
                   b.os_axis),
        numberFlag<std::uint64_t>(
            "--accesses", "per-benchmark trace-length override",
            b.accesses),
        numberFlag<Cycle>(
            "--warm-start",
            "warm-up cycles shared across contenders per workload "
            "(default 20000; 0 disables snapshot sharing)",
            b.warmup_cycles),
        numberFlag("--threads", "worker threads (default hardware)",
                   b.threads, 0u, 4096u),
        textFlag("--out", "DIR",
                 "report + per-job records + warm-up snapshots (default "
                 "results/bakeoff)",
                 cli.out_dir),
        switchFlag("--resume",
                   "adopt ok per-job records already under --out",
                   b.resume),
        switchFlag("--list", "print the prefetcher registry and exit",
                   cli.list),
        switchFlag("--quiet", "no progress line", cli.quiet),
    };
    parseCliOrDie(argc, argv, flags, "usage: asdbakeoff [options]\n");
    return cli;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write " + path.string());
    out << text;
}

} // namespace

int
main(int argc, char **argv)
{
    CliConfig cli = parseArgs(argc, argv);
    if (cli.list) {
        PrefetcherRegistry::instance().print();
        return 0;
    }
    cli.bakeoff.out_dir = cli.out_dir;
    if (!cli.quiet)
        cli.bakeoff.on_progress = printProgress;

    BakeoffRunner runner(std::move(cli.bakeoff));
    const BakeoffResult result = runner.run();

    const std::filesystem::path out(cli.out_dir);
    std::filesystem::create_directories(out);
    writeFile(out / "bakeoff.json", bakeoffJson(result) + "\n");
    const std::string markdown = bakeoffMarkdown(result);
    writeFile(out / "leaderboard.md", markdown);

    if (!cli.quiet) {
        std::cout << markdown;
        std::cout << "\n"
                  << result.summary.ok << " ok, "
                  << result.summary.failed << " failed";
        if (result.summary.warm_started > 0)
            std::cout << ", " << result.summary.warm_started
                      << " warm-started";
        if (result.adopted > 0)
            std::cout << " (+" << result.adopted
                      << " adopted on resume)";
        std::cout << " -> " << cli.out_dir << "\n";
    }

    std::size_t failed_cells = 0;
    for (const BakeoffCell &cell : result.cells)
        failed_cells += cell.status == JobStatus::Ok ? 0 : 1;
    return result.summary.failed == 0 && failed_cells == 0 ? 0 : 1;
}
