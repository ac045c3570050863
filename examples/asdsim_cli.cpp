/**
 * @file
 * Command-line driver for the simulator: run any benchmark in any
 * configuration with every knob exposed, printing a report or a CSV
 * row. The scriptable front door for parameter studies beyond the
 * bundled figure benches.
 *
 * Examples:
 *   asdsim_cli --list
 *   asdsim_cli --bench lbm --mode PMS
 *   asdsim_cli --bench tpcc --mode MS --mc-prefetcher nextline --csv
 *   asdsim_cli --bench GemsFDTD --mode PMS --ps asd --smt
 *   asdsim_cli --bench milc --scheduler frfcfs --policy 3 --buffer 32
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arena/registry.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/metric_table.hpp"
#include "sim/serialize.hpp"
#include "sim/snapshot_io.hpp"
#include "sim/system.hpp"
#include "telemetry/sinks.hpp"
#include "tuner/run.hpp"

namespace
{

using namespace asd;

struct CliArgs
{
    std::string bench = "GemsFDTD";
    RunOptions options;
    bool csv = false;
    bool smt = false;
    bool list = false;
    bool list_prefetchers = false;
    std::string json_path; //!< RunMetrics JSON path (empty = off)
    std::string telemetry_csv;   //!< per-epoch CSV path (empty = off)
    std::string telemetry_json;  //!< JSON time-series path
    std::string telemetry_trace; //!< Chrome trace-event path
    std::string save_path;       //!< --save-snapshot target (empty = off)
    Cycle save_cycle = 0;        //!< cycle at which to save
    std::string load_path;       //!< --load-snapshot source (empty = off)
    std::string tuner_csv;       //!< per-decision CSV path (empty = off)
    std::string tuner_json;      //!< per-decision JSON path
};

/** The RunOptions flags from the field table, plus the tool's own. */
std::vector<CliFlag>
cliFlags(CliArgs &args)
{
    std::vector<CliFlag> flags = {
        switchFlag("--list", "list benchmarks and exit", args.list),
        switchFlag("--list-prefetchers",
                   "list the prefetcher registry and exit",
                   args.list_prefetchers),
        textFlag("--bench", "NAME", "benchmark to run (default GemsFDTD)",
                 args.bench),
    };
    for (CliFlag &flag : runOptionFlags(args.options))
        flags.push_back(std::move(flag));
    // Telemetry sinks also switch recording on.
    const auto telemetry_sink = [&args](std::string name,
                                        std::string help,
                                        std::string &target) {
        return CliFlag{std::move(name), "PATH", std::move(help),
                       [&args, &target](const std::string &path) {
                           target = path;
                           args.options.telemetry.enabled = true;
                           return std::nullopt;
                       }};
    };
    const std::vector<CliFlag> own = {
        switchFlag("--smt", "co-run two copies (SMT pair)", args.smt),
        switchFlag("--csv", "emit one CSV row instead of a table",
                   args.csv),
        textFlag("--json", "PATH", "also write RunMetrics JSON to PATH",
                 args.json_path),
        telemetry_sink("--telemetry-csv", "write per-epoch telemetry CSV",
                       args.telemetry_csv),
        telemetry_sink("--telemetry-json",
                       "write per-epoch telemetry JSON",
                       args.telemetry_json),
        telemetry_sink("--telemetry-trace",
                       "write chrome://tracing JSON",
                       args.telemetry_trace),
        textFlag("--tuner-csv", "PATH", "write the per-decision CSV log",
                 args.tuner_csv),
        textFlag("--tuner-json", "PATH",
                 "write the per-decision JSON log", args.tuner_json),
        {"--save-snapshot", "PATH@CYCLE",
         "run to CYCLE, write a checkpoint to PATH, and exit (no "
         "report)",
         [&args](const std::string &value) -> CliError {
             const std::size_t at = value.rfind('@');
             if (at == std::string::npos || at == 0)
                 return "expected PATH@CYCLE, got '" + value + "'";
             args.save_path = value.substr(0, at);
             return parseNumber<Cycle>(
                 std::string_view(value).substr(at + 1), 0, kNoCycle - 1,
                 args.save_cycle);
         }},
        textFlag("--load-snapshot", "PATH",
                 "restore a checkpoint and run it to completion; the "
                 "machine config comes from the snapshot, only output "
                 "flags (--csv/--json/--telemetry-*/--tuner-*) apply",
                 args.load_path),
    };
    flags.insert(flags.end(), own.begin(), own.end());
    return flags;
}

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs args;
    const std::vector<CliFlag> flags = cliFlags(args);
    parseCliOrDie(argc, argv, flags, "usage: asdsim_cli [options]\n");
    return args;
}

void
listBenchmarks()
{
    for (const Suite suite :
         {Suite::Spec2006fp, Suite::Nas, Suite::Commercial}) {
        std::cout << suiteName(suite) << ":";
        for (const Benchmark &bench : suiteBenchmarks(suite))
            std::cout << " " << bench.name;
        std::cout << "\n";
    }
}

/**
 * One non-SMT run: of the command line's benchmark and options, or
 * with --load-snapshot of the image's own metadata (the command line
 * then only picks the outputs). With --save-snapshot the run stops at
 * the requested cycle and writes a checkpoint — a "cli" section, then
 * the machine sections — instead of finishing. Informational output
 * goes to stderr so a restored run's stdout byte-compares against an
 * uninterrupted run's.
 * @return nullopt when a checkpoint was saved (no report follows).
 */
std::optional<RunResult>
runMachine(const CliArgs &args, RunRecord &run)
{
    try {
        std::optional<SnapshotReader> reader;
        if (!args.load_path.empty()) {
            reader.emplace(readSnapshotFile(args.load_path));
            run = loadCliSection(*reader);
            reader->requireConfigHash(
                runConfigHash(run.bench, run.accesses, run.options));
            if (args.options.telemetry.enabled &&
                !run.options.telemetry.enabled)
                fatal("telemetry output requested but the snapshot was "
                      "taken without telemetry");
        }
        const Benchmark &bench = findBenchmark(run.bench);
        if (!reader)
            run.accesses = scaledAccesses(bench, run.options);
        BenchmarkRun machine(bench, run.options, run.accesses);
        if (reader) {
            machine.loadSnapshot(*reader);
            std::cerr << "asdsim_cli: restored " << run.bench
                      << " at cycle " << machine.system().nowCycle()
                      << " from " << args.load_path << "\n";
        }
        if (args.save_path.empty())
            return machine.run();
        machine.runUntil(args.save_cycle);
        SnapshotWriter writer;
        saveCliSection(writer, run);
        machine.saveSnapshot(writer);
        writeSnapshotFile(args.save_path,
                          writer.finish(runConfigHash(
                              run.bench, run.accesses, run.options)));
        std::cerr << "asdsim_cli: saved " << run.bench << " at cycle "
                  << machine.system().nowCycle() << " to "
                  << args.save_path << "\n";
        return std::nullopt;
    } catch (const SnapshotError &e) {
        fatal(std::string("snapshot ") +
              (args.load_path.empty() ? "save" : "load") +
              " failed: " + e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (args.list) {
        listBenchmarks();
        return 0;
    }
    if (args.list_prefetchers) {
        // Anything listed works as --mc-prefetcher (mem-side) or --ps
        // (cpu-side, without the "ps-" prefix).
        PrefetcherRegistry::instance().print();
        return 0;
    }

    const RunContext context{
        args.smt, !args.save_path.empty() || !args.load_path.empty()};
    if (const CliError error = validate(args.options, context))
        fatal(*error);
    if (!args.save_path.empty() && !args.load_path.empty())
        fatal("--save-snapshot and --load-snapshot are mutually "
              "exclusive");

    RunRecord run{args.bench, 0, args.options};
    RunResult result;
    if (args.smt) {
        const Benchmark &bench = findBenchmark(args.bench);
        result.metrics =
            runSmtPair(bench, bench, args.options, &result.epochs);
    } else if (std::optional<RunResult> finished = runMachine(args, run)) {
        result = std::move(*finished);
    } else {
        return 0;
    }
    const bool telemetry_on = run.options.telemetry.enabled;
    const std::string &bench_name = run.bench;

    if (run.options.tuner.enabled) {
        if (!args.tuner_csv.empty())
            saveTunerCsv(result.decisions, args.tuner_csv);
        if (!args.tuner_json.empty())
            saveTunerJson(result.decisions, args.tuner_json);
    } else if (!args.tuner_csv.empty() || !args.tuner_json.empty()) {
        fatal("--tuner-csv/--tuner-json need --tune (or a snapshot "
              "taken with it)");
    }

    if (telemetry_on) {
        if (result.epochs.empty())
            warn("telemetry enabled but no epochs were recorded");
        if (!args.telemetry_csv.empty())
            saveTelemetryCsv(result.epochs, args.telemetry_csv);
        if (!args.telemetry_json.empty())
            saveTelemetryJson(result.epochs, args.telemetry_json);
        if (!args.telemetry_trace.empty())
            saveTelemetryChromeTrace(result.epochs,
                                     args.telemetry_trace);
    }

    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path, std::ios::binary);
        if (!out)
            fatal("cannot write " + args.json_path);
        out << toJson(result.metrics) << "\n";
    }

    auto rows = reportRows(result.metrics);
    rows.insert(rows.begin(), {"benchmark", bench_name});
    if (args.csv) {
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::cout << (i ? "," : "") << rows[i].second;
        std::cout << "\n";
        return 0;
    }
    Table table({"metric", "value"});
    for (const auto &[name, value] : rows)
        table.addRow({name, value});
    table.print(std::cout);
    return 0;
}
