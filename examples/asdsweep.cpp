/**
 * @file
 * Parallel configuration-grid sweep driver. Expands suite/benchmark
 * selections times a grid of prefetcher knobs into JobSpecs, fans
 * them out over the sweep runner's thread pool, and writes one JSON
 * record per job plus a manifest (and optionally a flat CSV) under
 * --out. Exit status is non-zero if any job failed.
 *
 * Usage:
 *   asdsweep [--suite spec|nas|commercial|detailed|all]...
 *            [--bench NAME]...
 *            [--modes NP,PS,MS,PMS] [--prefetchers asd,nextline,...]
 *            [--buffer-lines 8,16,32] [--filter-slots 4,8,16]
 *            [--degrees 1,2] [--vm-policies ...] [--os-frames ...]
 *            [--tenants ...] [--tune] [--accesses N] [--seed N]
 *            [--threads N] [--timeout-ms N]
 *            [--warm-start CYCLES] [--snapshot-dir DIR] [--resume]
 *            [--out DIR] [--csv] [--quiet]
 *
 * Thread count defaults to the ASD_SWEEP_THREADS environment
 * variable, then to the hardware concurrency.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/serialize.hpp"
#include "telemetry/sinks.hpp"
#include "tuner/run.hpp"

namespace
{

using namespace asd;

struct CliConfig
{
    std::vector<std::string> suites;
    std::vector<std::string> bench_names;

    /** Grid axes declared by the RunOptions field table. */
    std::vector<SweepAxis> axes = sweepAxes();
    std::optional<std::uint64_t> accesses;
    std::optional<std::uint64_t> seed;
    unsigned threads = 0;
    std::uint64_t timeout_ms = 0;

    /** Warm-up cycles per job; > 0 enables warm-start sharing. */
    std::uint64_t warm_start_cycles = 0;

    /** On-disk warm-up snapshot cache; empty = in-memory only. */
    std::string snapshot_dir;

    /** Skip jobs whose result record already exists and is ok. */
    bool resume = false;

    std::string out_dir = "results/sweep";
    bool csv = false;
    bool quiet = false;
    bool telemetry = false;
};

CliConfig
parseArgs(int argc, char **argv)
{
    CliConfig cli;
    std::vector<CliFlag> flags = {
        {"--suite", "NAME",
         "spec|nas|commercial|detailed|all (repeatable; default "
         "detailed)",
         [&cli](const std::string &name) {
             cli.suites.push_back(name);
             return std::nullopt;
         }},
        {"--bench", "NAME", "single benchmark (repeatable)",
         [&cli](const std::string &name) {
             cli.bench_names.push_back(name);
             return std::nullopt;
         }},
    };
    for (CliFlag &flag : sweepAxisFlags(cli.axes))
        flags.push_back(std::move(flag));
    const std::vector<CliFlag> own = {
        numberFlag<std::uint64_t>(
            "--accesses", "per-benchmark trace-length override",
            cli.accesses),
        numberFlag<std::uint64_t>(
            "--seed", "trace-seed override for every job", cli.seed),
        numberFlag("--threads",
                   "worker threads (default $ASD_SWEEP_THREADS or "
                   "hardware)",
                   cli.threads, 0u, 4096u),
        numberFlag<std::uint64_t>(
            "--timeout-ms", "soft per-job wall-clock limit",
            cli.timeout_ms),
        numberFlag("--warm-start",
                   "warm every job up for N cycles with the memory side "
                   "disarmed; jobs sharing a warm-up simulate it once "
                   "and fork the snapshot (results stay byte-identical "
                   "to cold starts)",
                   cli.warm_start_cycles, std::uint64_t{1}),
        textFlag("--snapshot-dir", "DIR",
                 "persist warm-up snapshots to DIR and reuse them across "
                 "sweeps (default: in-memory only)",
                 cli.snapshot_dir),
        switchFlag("--resume",
                   "skip jobs whose <out> record already exists, parses, "
                   "and reports status ok",
                   cli.resume),
        textFlag("--out", "DIR", "result directory (default results/sweep)",
                 cli.out_dir),
        switchFlag("--csv", "also write <out>/sweep.csv", cli.csv),
        switchFlag("--telemetry",
                   "per-epoch telemetry per job under <out>/telemetry/ "
                   "(MS and PMS jobs)",
                   cli.telemetry),
        switchFlag("--quiet", "no progress line", cli.quiet),
    };
    flags.insert(flags.end(), own.begin(), own.end());
    parseCliOrDie(argc, argv, flags, "usage: asdsweep [options]\n");
    if (cli.suites.empty() && cli.bench_names.empty())
        cli.suites = {"detailed"};
    return cli;
}

std::vector<Benchmark>
selectBenchmarks(const CliConfig &cli)
{
    std::vector<Benchmark> benches;
    const auto addSuite = [&](Suite suite) {
        for (const Benchmark &b : suiteBenchmarks(suite))
            benches.push_back(b);
    };
    for (const std::string &name : cli.suites) {
        if (name == "spec") {
            addSuite(Suite::Spec2006fp);
        } else if (name == "nas") {
            addSuite(Suite::Nas);
        } else if (name == "commercial") {
            addSuite(Suite::Commercial);
        } else if (name == "detailed") {
            for (const Benchmark &b : detailedStudyBenchmarks())
                benches.push_back(b);
        } else if (name == "all") {
            addSuite(Suite::Spec2006fp);
            addSuite(Suite::Nas);
            addSuite(Suite::Commercial);
        } else {
            fatal("unknown suite (use "
                  "spec|nas|commercial|detailed|all): " +
                  name);
        }
    }
    for (const std::string &name : cli.bench_names)
        benches.push_back(findBenchmark(name));
    return benches;
}

/**
 * Give @p job a body that runs it as the default body does and also
 * writes the per-epoch series as <out>/telemetry/<id>.csv and
 * <id>.trace.json.
 */
void
attachTelemetryBody(JobSpec &job, const std::string &out_dir)
{
    const std::string stem = out_dir + "/telemetry/" + job.id;
    job.body = [stem](const JobSpec &spec) {
        const RunResult result =
            BenchmarkRun(effectiveBench(spec), spec.options).run();
        saveTelemetryCsv(result.epochs, stem + ".csv");
        saveTelemetryChromeTrace(result.epochs, stem + ".trace.json");
        return result.metrics;
    };
}

/**
 * Every benchmark times the product of the declared axes (see
 * expandGrid: page sizes only vary for base-page VM points, walkers
 * only for OS points, invalid points such as OS+VM or a tuned non-ASD
 * job are skipped).
 */
std::vector<JobSpec>
buildJobs(const CliConfig &cli)
{
    RunOptions base;
    base.accesses = cli.accesses;
    base.warmup_cycles = cli.warm_start_cycles;
    const std::vector<RunOptions> grid = expandGrid(base, cli.axes);

    std::vector<JobSpec> jobs;
    for (const Benchmark &bench : selectBenchmarks(cli)) {
        for (RunOptions options : grid) {
            // Every memory-side contender records an epoch series.
            if (cli.telemetry && (options.mode == PrefetchMode::MS ||
                                  options.mode == PrefetchMode::PMS))
                options.telemetry.enabled = true;
            JobSpec job = makeJob(bench, options, cli.seed);
            if (options.telemetry.enabled)
                attachTelemetryBody(job, cli.out_dir);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliConfig cli = parseArgs(argc, argv);
    std::vector<JobSpec> jobs = buildJobs(cli);
    if (jobs.empty())
        fatal("benchmark selection produced no jobs");

    JsonDirSink json_sink(cli.out_dir);
    if (cli.resume) {
        // Adopted records stay in the manifest; only the remainder
        // runs. (The optional CSV is rebuilt from scratch and covers
        // only the jobs that actually ran this time.)
        std::vector<JobSpec> pending;
        pending.reserve(jobs.size());
        for (JobSpec &job : jobs) {
            if (!json_sink.adoptExisting(job))
                pending.push_back(std::move(job));
        }
        jobs = std::move(pending);
        if (!cli.quiet && json_sink.skipped() > 0) {
            std::fprintf(stderr,
                         "resume: skipping %zu already-finished "
                         "job(s), %zu left to run\n",
                         json_sink.skipped(), jobs.size());
        }
    }

    std::vector<ResultSink *> sinks = {&json_sink};
    std::optional<CsvSink> csv_sink;
    if (cli.csv) {
        csv_sink.emplace(cli.out_dir + "/sweep.csv");
        sinks.push_back(&*csv_sink);
    }
    TeeSink tee(sinks);

    SweepOptions sweep;
    sweep.threads = cli.threads;
    sweep.default_timeout_ms = static_cast<double>(cli.timeout_ms);
    sweep.warm_start = cli.warm_start_cycles > 0;
    sweep.snapshot_dir = cli.snapshot_dir;
    sweep.sink = &tee;
    if (!cli.quiet && !jobs.empty())
        sweep.on_progress = printProgress;

    SweepRunner runner(sweep);
    const std::vector<JobResult> results = runner.run(jobs);
    const SweepSummary &summary = runner.lastSummary();

    if (!cli.quiet) {
        std::cout << summary.jobs << " jobs: " << summary.ok
                  << " ok, " << summary.failed << " failed, "
                  << summary.timed_out << " timed out";
        if (summary.warm_started > 0)
            std::cout << ", " << summary.warm_started
                      << " warm-started";
        if (json_sink.skipped() > 0)
            std::cout << " (+" << json_sink.skipped()
                      << " skipped on resume)";
        std::cout << " in " << summary.wall_ms / 1000.0 << " s on "
                  << summary.threads << " threads -> " << cli.out_dir
                  << "\n";
    }
    for (const JobResult &result : results) {
        if (result.status == JobStatus::Failed)
            warn("job " + result.spec.id + " failed: " +
                 result.error);
    }
    return summary.failed == 0 ? 0 : 1;
}
