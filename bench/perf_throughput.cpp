/**
 * @file
 * Simulator-throughput benchmark. Times a full PMS run of every
 * detailed-study benchmark (simulated accesses and cycles per wall
 * second), then times the same warm-started: restore from a warm-up
 * snapshot and simulate only the post-warm-up remainder. A final
 * section sweeps a buffer-size grid cold vs warm-started (shared
 * snapshots, runner/warm_start.hpp) and reports the wall-clock
 * speedup, asserting the per-job metrics are identical.
 *
 * Writes a JSON report (schema asd/bench/throughput/v1) to the path
 * given as argv[1], default ./BENCH_throughput.json — run it from the
 * repo root to refresh the checked-in copy.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/warm_start.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace
{

using namespace asd;

double
elapsedMs(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Throughput of one timed run. */
struct RunTiming
{
    std::string benchmark;
    RunMetrics metrics;
    double wall_ms = 0.0;

    /** Cycles restored from a snapshot rather than simulated. */
    Cycle cycles_skipped = 0;

    /** Accesses those restored cycles had already retired. */
    std::uint64_t accesses_skipped = 0;
};

/**
 * Accesses retired by @p job's warm-up: restore @p snapshot into the
 * job's machine and read the count before anything runs.
 */
std::uint64_t
accessesAtRestore(const JobSpec &job, const SnapshotBytes &snapshot)
{
    SyntheticConfig trace_config = job.bench.trace;
    trace_config.total_accesses = scaledAccesses(job.bench, job.options);
    SyntheticTraceGenerator trace(trace_config);
    System system(makeSystemConfig(job.options), {&trace});
    SnapshotReader reader(snapshot);
    system.loadSnapshot(reader);
    return system.collectMetrics().accesses;
}

/**
 * Per-benchmark warm-up: five cycles per trace access — roughly half
 * the run at the simulator's typical 7-11 cycles per access, the
 * common sweep shape where reaching steady state dominates.
 */
Cycle
warmupFor(const Benchmark &bench, const RunOptions &options)
{
    return 5 * scaledAccesses(bench, options);
}

void
writeTiming(JsonWriter &writer, const RunTiming &t)
{
    // Warm-started runs only simulate the cycles, and retire the
    // accesses, past the restore point; rate them over the work
    // actually done. (A run shorter than the warm-up never left the
    // disarmed phase; count it in full.)
    const bool restored = t.metrics.cycles > t.cycles_skipped;
    const double simulated = static_cast<double>(
        restored ? t.metrics.cycles - t.cycles_skipped : t.metrics.cycles);
    const double retired = static_cast<double>(
        restored ? t.metrics.accesses - t.accesses_skipped
                 : t.metrics.accesses);
    const double secs = t.wall_ms / 1000.0;
    writer.beginObject();
    writer.key("benchmark").value(t.benchmark);
    writer.key("cycles").value(t.metrics.cycles);
    writer.key("cycles_skipped").value(t.cycles_skipped);
    writer.key("accesses").value(t.metrics.accesses);
    writer.key("accesses_skipped").value(t.accesses_skipped);
    writer.key("wall_ms").value(t.wall_ms);
    writer.key("accesses_per_s")
        .value(secs > 0.0 ? retired / secs : 0.0);
    writer.key("cycles_per_s").value(secs > 0.0 ? simulated / secs
                                                : 0.0);
    writer.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asd;

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_throughput.json";
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();

    // --- Per-benchmark throughput, cold and warm-started ------------
    std::vector<RunTiming> cold_runs;
    std::vector<RunTiming> warm_runs;
    for (const Benchmark &bench : benches) {
        RunOptions options;
        options.mode = PrefetchMode::PMS;
        options.warmup_cycles = warmupFor(bench, options);
        const JobSpec job = makeJob(bench, options);

        auto start = std::chrono::steady_clock::now();
        const RunMetrics cold = runBenchmark(bench, options);
        cold_runs.push_back({bench.name, cold, elapsedMs(start), 0, 0});

        // Warm: snapshot the warm-up once, then time only the
        // restore + remainder (what a sharing sweep pays per job).
        const SnapshotBytes snapshot = simulateWarmup(job);
        start = std::chrono::steady_clock::now();
        const RunMetrics warm = runFromSnapshot(job, snapshot);
        warm_runs.push_back({bench.name, warm, elapsedMs(start),
                             options.warmup_cycles,
                             accessesAtRestore(job, snapshot)});

        if (!(cold == warm))
            fatal("warm-started " + bench.name +
                  " diverged from its cold run");
    }

    // --- Warm-start sweep speedup on a buffer-size grid -------------
    const std::vector<std::uint32_t> sizes = {8, 16, 32, 64};
    std::vector<JobSpec> jobs;
    for (const Benchmark &bench : benches) {
        for (const std::uint32_t size : sizes) {
            RunOptions options;
            options.mode = PrefetchMode::PMS;
            options.buffer_lines = size;
            options.warmup_cycles = warmupFor(bench, options);
            jobs.push_back(makeJob(bench, options));
        }
    }
    std::set<std::string> keys;
    for (const JobSpec &job : jobs)
        keys.insert(warmupKey(job));

    SweepRunner cold_runner{SweepOptions{}};
    const std::vector<JobResult> cold_results = cold_runner.run(jobs);
    const double sweep_cold_ms = cold_runner.lastSummary().wall_ms;

    SweepOptions warm_sweep;
    warm_sweep.warm_start = true;
    SweepRunner warm_runner(warm_sweep);
    const std::vector<JobResult> warm_results = warm_runner.run(jobs);
    const double sweep_warm_ms = warm_runner.lastSummary().wall_ms;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cold_results[i].status != JobStatus::Ok ||
            warm_results[i].status != JobStatus::Ok)
            fatal("sweep job " + jobs[i].id + " failed");
        if (!(cold_results[i].metrics == warm_results[i].metrics))
            fatal("sweep job " + jobs[i].id +
                  " diverged under warm start");
    }
    const double speedup =
        sweep_warm_ms > 0.0 ? sweep_cold_ms / sweep_warm_ms : 0.0;

    // --- Report -----------------------------------------------------
    JsonWriter writer;
    writer.beginObject();
    writer.key("schema").value("asd/bench/throughput/v1");
    writer.key("bench_scale").value(benchScale());
    writer.key("cold").beginArray();
    for (const RunTiming &t : cold_runs)
        writeTiming(writer, t);
    writer.endArray();
    writer.key("warm").beginArray();
    for (const RunTiming &t : warm_runs)
        writeTiming(writer, t);
    writer.endArray();
    writer.key("warm_start_sweep").beginObject();
    writer.key("jobs").value(static_cast<std::uint64_t>(jobs.size()));
    writer.key("distinct_warmups")
        .value(static_cast<std::uint64_t>(keys.size()));
    writer.key("threads")
        .value(static_cast<std::uint64_t>(
            warm_runner.lastSummary().threads));
    writer.key("cold_wall_ms").value(sweep_cold_ms);
    writer.key("warm_wall_ms").value(sweep_warm_ms);
    writer.key("speedup").value(speedup);
    writer.key("identical").value(true);
    writer.endObject();
    writer.endObject();

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot write " + out_path);
    out << writer.str() << "\n";

    std::cout << "perf_throughput: " << benches.size()
              << " benchmarks timed cold and warm; sweep speedup "
              << speedup << "x over " << jobs.size() << " jobs ("
              << keys.size() << " distinct warm-ups) -> " << out_path
              << "\n";
    return 0;
}
