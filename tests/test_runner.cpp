/**
 * @file
 * Sweep-runner subsystem tests: parallel-vs-serial determinism,
 * structured failure capture, edge cases (empty job list, one
 * thread, more threads than jobs), the soft timeout, the JSON/CSV
 * result sinks (records must be parseable), the JSON serialization
 * helpers, and the hardened ASD_BENCH_SCALE parser.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep_runner.hpp"
#include "common/thread_pool.hpp"
#include "runner/warm_start.hpp"
#include "sim/serialize.hpp"
#include "snapshot/snapshot.hpp"

namespace
{

using namespace asd;

/** Trace length that keeps one job in the low milliseconds. */
constexpr std::uint64_t kShortTrace = 2000;

/** The acceptance sweep: 4 benchmarks x the four paper modes. */
std::vector<JobSpec>
fourWaySweepJobs()
{
    std::vector<JobSpec> jobs;
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    for (std::size_t b = 0; b < 4; ++b) {
        for (const PrefetchMode mode :
             {PrefetchMode::NP, PrefetchMode::PS, PrefetchMode::MS,
              PrefetchMode::PMS}) {
            RunOptions options;
            options.mode = mode;
            options.accesses = kShortTrace;
            jobs.push_back(makeJob(benches[b], options));
        }
    }
    return jobs;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count](unsigned) { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(2);
    pool.wait(); // no tasks: must not hang
    EXPECT_EQ(pool.threadCount(), 2u);
}

TEST(JobId, EncodesVariedFields)
{
    const Benchmark &bench = findBenchmark("bwaves");
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.buffer_lines = 32;
    const std::string id = makeJobId(bench, options, 7);
    EXPECT_NE(id.find("bwaves"), std::string::npos);
    EXPECT_NE(id.find("MS"), std::string::npos);
    EXPECT_NE(id.find("pb32"), std::string::npos);
    EXPECT_NE(id.find("seed7"), std::string::npos);

    RunOptions other = options;
    other.filter_slots = 16;
    EXPECT_NE(makeJobId(bench, options), makeJobId(bench, other));
}

TEST(SweepRunner, ParallelMatchesSerialAndWritesJson)
{
    const std::vector<JobSpec> jobs = fourWaySweepJobs();
    ASSERT_EQ(jobs.size(), 16u);

    SweepOptions serial_options;
    serial_options.threads = 1;
    const std::vector<JobResult> serial =
        SweepRunner(serial_options).run(jobs);

    const std::filesystem::path dir = "results/test_runner_sweep";
    std::filesystem::remove_all(dir);
    JsonDirSink sink(dir.string());
    SweepOptions parallel_options;
    parallel_options.threads = 4;
    parallel_options.sink = &sink;
    const std::vector<JobResult> parallel =
        SweepRunner(parallel_options).run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(parallel[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(serial[i].spec.id, parallel[i].spec.id);
        // Bit-identical metrics regardless of thread count.
        EXPECT_TRUE(serial[i].metrics == parallel[i].metrics)
            << jobs[i].id;
    }

    // Every record plus the manifest must be valid JSON.
    const std::string manifest = readFile(dir / "manifest.json");
    ASSERT_FALSE(manifest.empty());
    EXPECT_TRUE(jsonParseCheck(manifest));
    EXPECT_NE(manifest.find("\"jobs\":16"), std::string::npos);
    EXPECT_NE(manifest.find("\"ok\":16"), std::string::npos);
    std::size_t records = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename() == "manifest.json")
            continue;
        const std::string record = readFile(entry.path());
        EXPECT_TRUE(jsonParseCheck(record)) << entry.path();
        EXPECT_NE(record.find("\"cycles\""), std::string::npos);
        EXPECT_NE(record.find("\"options\""), std::string::npos);
        ++records;
    }
    EXPECT_EQ(records, jobs.size());
}

TEST(SweepRunner, FailingJobYieldsFailureRecordOthersComplete)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(4);
    jobs[1].id = "boomjob";
    jobs[1].body = [](const JobSpec &) -> RunMetrics {
        throw std::runtime_error("boom");
    };

    SweepOptions options;
    options.threads = 2;
    const std::vector<JobResult> results =
        SweepRunner(options).run(jobs);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_NE(results[1].error.find("boom"), std::string::npos);
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_EQ(results[i].status, JobStatus::Ok);
        EXPECT_GT(results[i].metrics.cycles, 0u);
    }

    // Failure records serialize with null metrics, still parseable.
    const std::string record =
        JsonDirSink::recordJson(results[1]);
    EXPECT_TRUE(jsonParseCheck(record));
    EXPECT_NE(record.find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_NE(record.find("\"metrics\":null"), std::string::npos);
}

TEST(SweepRunner, EmptyJobListFinishesImmediately)
{
    SweepOptions options;
    options.threads = 4;
    SweepRunner runner(options);
    const std::vector<JobResult> results = runner.run({});
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(runner.lastSummary().jobs, 0u);
    EXPECT_EQ(runner.lastSummary().failed, 0u);
}

TEST(SweepRunner, MoreThreadsThanJobs)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(2);
    SweepOptions options;
    options.threads = 16;
    SweepRunner runner(options);
    const std::vector<JobResult> results = runner.run(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    // The pool is clamped to the job count.
    EXPECT_EQ(runner.lastSummary().threads, 2u);
}

TEST(SweepRunner, SoftTimeoutDowngradesResult)
{
    JobSpec job;
    job.id = "sleeper";
    job.bench = findBenchmark("bwaves");
    job.timeout_ms = 1.0;
    job.body = [](const JobSpec &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return RunMetrics{};
    };
    const JobResult result = runJob(job);
    EXPECT_EQ(result.status, JobStatus::TimedOut);
    EXPECT_NE(result.error.find("timeout"), std::string::npos);
    EXPECT_GE(result.wall_ms, 1.0);
}

TEST(SweepRunner, ProgressHookSeesEveryJob)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(6);
    std::vector<SweepProgress> snapshots;
    SweepOptions options;
    options.threads = 3;
    options.on_progress = [&snapshots](const SweepProgress &p) {
        snapshots.push_back(p);
    };
    SweepRunner(options).run(jobs);
    ASSERT_EQ(snapshots.size(), jobs.size());
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].done, i + 1);
        EXPECT_EQ(snapshots[i].total, jobs.size());
        EXPECT_GE(snapshots[i].eta_ms, 0.0);
    }
    EXPECT_EQ(snapshots.back().ok, jobs.size());
}

TEST(ResultSink, CsvHasOneRowPerJobPlusHeader)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(3);
    const std::filesystem::path path =
        "results/test_runner_sweep.csv";
    std::filesystem::remove(path);
    {
        CsvSink sink(path.string());
        SweepOptions options;
        options.threads = 2;
        options.sink = &sink;
        SweepRunner(options).run(jobs);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, jobs.size() + 1);
}

TEST(Serialize, JsonHelpersEmitParseableDocuments)
{
    RunOptions options;
    options.fixed_policy = 3;
    options.accesses = 12345;
    const std::string options_json = toJson(options);
    EXPECT_TRUE(jsonParseCheck(options_json));
    EXPECT_NE(options_json.find("\"mode\":\"PMS\""),
              std::string::npos);
    EXPECT_NE(options_json.find("\"fixed_policy\":3"),
              std::string::npos);

    RunMetrics metrics;
    metrics.cycles = 42;
    metrics.dram_watts = 1.25;
    const std::string metrics_json = toJson(metrics);
    EXPECT_TRUE(jsonParseCheck(metrics_json));
    EXPECT_NE(metrics_json.find("\"cycles\":42"), std::string::npos);
    EXPECT_NE(metrics_json.find("\"dram_watts\":1.25"),
              std::string::npos);
}

TEST(Serialize, EnumRoundTrips)
{
    for (const PrefetchMode mode :
         {PrefetchMode::NP, PrefetchMode::PS, PrefetchMode::MS,
          PrefetchMode::PMS})
        EXPECT_EQ(parseEnum<PrefetchMode>(toString(mode)), mode);
    for (const McPrefetcherKind kind :
         {McPrefetcherKind::Asd, McPrefetcherKind::NextLine,
          McPrefetcherKind::P5Style, McPrefetcherKind::Ghb,
          McPrefetcherKind::Stride})
        EXPECT_EQ(parseEnum<McPrefetcherKind>(toString(kind)), kind);
    EXPECT_EQ(parseEnum<PrefetchMode>("np"), std::nullopt);
    EXPECT_EQ(parseEnum<McPrefetcherKind>("bogus"), std::nullopt);
}

TEST(Json, WriterAndChecker)
{
    JsonWriter writer;
    writer.beginObject()
        .key("a")
        .value(std::uint64_t{1})
        .key("b")
        .beginArray()
        .value("x\"y")
        .value(true)
        .null()
        .value(-2.5)
        .endArray()
        .endObject();
    EXPECT_EQ(writer.str(),
              "{\"a\":1,\"b\":[\"x\\\"y\",true,null,-2.5]}");
    EXPECT_TRUE(jsonParseCheck(writer.str()));

    EXPECT_TRUE(jsonParseCheck("[]"));
    EXPECT_TRUE(jsonParseCheck("  {\"k\": [1, 2.0e-3, \"s\"]} "));
    EXPECT_FALSE(jsonParseCheck(""));
    EXPECT_FALSE(jsonParseCheck("{"));
    EXPECT_FALSE(jsonParseCheck("{\"a\":}"));
    EXPECT_FALSE(jsonParseCheck("{} trailing"));
    EXPECT_FALSE(jsonParseCheck("[1,]"));
    EXPECT_FALSE(jsonParseCheck("nan"));
}

// --- warm-start reuse ----------------------------------------------

/** A small grid whose jobs share warm-ups across MS knobs. */
std::vector<JobSpec>
warmStartGridJobs(Cycle warmup)
{
    std::vector<JobSpec> jobs;
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    for (std::size_t b = 0; b < 2; ++b) {
        for (const PrefetchMode mode :
             {PrefetchMode::MS, PrefetchMode::PMS}) {
            for (const std::uint32_t lines : {8u, 32u}) {
                RunOptions options;
                options.mode = mode;
                options.buffer_lines = lines;
                options.accesses = kShortTrace;
                options.warmup_cycles = warmup;
                jobs.push_back(makeJob(benches[b], options));
            }
        }
    }
    return jobs;
}

TEST(WarmStart, KeyIgnoresMemorySideKnobsOnly)
{
    std::vector<JobSpec> jobs = warmStartGridJobs(3000);
    // Same benchmark, same PS presence, different Prefetch Buffer
    // size: one warm-up.
    EXPECT_EQ(warmupKey(jobs[0]), warmupKey(jobs[1]));
    // PMS has a processor side, MS does not: different warm-ups.
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(jobs[2]));
    // Different benchmark: different warm-up.
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(jobs[4]));
    // Different warm-up length: different warm-up.
    JobSpec longer = jobs[0];
    longer.options.warmup_cycles = 4000;
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(longer));

    EXPECT_TRUE(warmStartEligible(jobs[0]));
    JobSpec cold = jobs[0];
    cold.options.warmup_cycles = 0;
    EXPECT_FALSE(warmStartEligible(cold));
    JobSpec custom = jobs[0];
    custom.body = [](const JobSpec &) { return RunMetrics{}; };
    EXPECT_FALSE(warmStartEligible(custom));
}

TEST(WarmStart, SweepMatchesColdStartBitForBit)
{
    const std::vector<JobSpec> jobs = warmStartGridJobs(3000);

    SweepOptions cold_options;
    cold_options.threads = 2;
    const std::vector<JobResult> cold =
        SweepRunner(cold_options).run(jobs);

    SweepOptions warm_options;
    warm_options.threads = 2;
    warm_options.warm_start = true;
    SweepRunner warm_runner(warm_options);
    const std::vector<JobResult> warm = warm_runner.run(jobs);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(cold[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(warm[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_TRUE(cold[i].metrics == warm[i].metrics)
            << jobs[i].id;
    }
    EXPECT_EQ(warm_runner.lastSummary().warm_started, jobs.size());
}

TEST(WarmStart, CacheComputesEachKeyOnce)
{
    WarmupCache cache;
    std::atomic<int> made{0};
    const auto make = [&made] {
        ++made;
        SnapshotWriter writer;
        writer.beginSection("x");
        writer.u64(1);
        writer.endSection();
        return writer.finish(fnv1a64("k1"));
    };
    const auto a = cache.obtain("k1", make);
    const auto b = cache.obtain("k1", make);
    EXPECT_EQ(made.load(), 1);
    EXPECT_EQ(a.get(), b.get());
}

TEST(WarmStart, DiskCachePersistsAndRejectsDamage)
{
    const std::filesystem::path dir = "results/test_warm_cache";
    std::filesystem::remove_all(dir);

    std::atomic<int> made{0};
    const auto make = [&made] {
        ++made;
        SnapshotWriter writer;
        writer.beginSection("x");
        writer.u64(1);
        writer.endSection();
        return writer.finish(fnv1a64("k1"));
    };
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 1);
    // A second cache (fresh memory) must hit the disk file instead.
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 1);

    // Corrupt every cached file: the cache must fall back to a
    // fresh warm-up rather than serve damaged state.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekp(-1, std::ios::end);
        file.put('\x7f');
    }
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 2);
}

TEST(WarmStart, SweepWithDiskCacheMatchesColdStart)
{
    const std::filesystem::path dir = "results/test_warm_sweep_cache";
    std::filesystem::remove_all(dir);
    const std::vector<JobSpec> jobs = warmStartGridJobs(3000);

    const std::vector<JobResult> cold = SweepRunner().run(jobs);

    SweepOptions warm_options;
    warm_options.warm_start = true;
    warm_options.snapshot_dir = dir.string();
    // Two runs: the first populates the disk cache, the second
    // restores from it. Both must equal the cold sweep.
    for (int round = 0; round < 2; ++round) {
        const std::vector<JobResult> warm =
            SweepRunner(warm_options).run(jobs);
        ASSERT_EQ(cold.size(), warm.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(warm[i].status, JobStatus::Ok) << jobs[i].id;
            EXPECT_TRUE(cold[i].metrics == warm[i].metrics)
                << jobs[i].id << " round " << round;
        }
    }
    // The grid shares warm-ups: fewer snapshot files than jobs.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_GT(files, 0u);
    EXPECT_LT(files, jobs.size());
}

// --- resume ---------------------------------------------------------

TEST(Resume, AdoptsOnlyValidOkRecords)
{
    const std::filesystem::path dir = "results/test_resume";
    std::filesystem::remove_all(dir);
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(4);

    {
        JsonDirSink sink(dir.string());
        SweepOptions options;
        options.sink = &sink;
        SweepRunner(options).run(jobs);
    }

    // Damage the records: delete one, corrupt one, fail one.
    const auto record = [&](const JobSpec &job) {
        return dir / (sanitizeFileStem(job.id) + ".json");
    };
    std::filesystem::remove(record(jobs[1]));
    {
        std::ofstream out(record(jobs[2]));
        out << "{\"truncated\"";
    }
    {
        std::string failed = readFile(record(jobs[3]));
        const std::size_t at = failed.find("\"status\":\"ok\"");
        ASSERT_NE(at, std::string::npos);
        failed.replace(at, 14, "\"status\":\"failed\"");
        std::ofstream out(record(jobs[3]));
        out << failed;
    }

    JsonDirSink sink(dir.string());
    EXPECT_TRUE(sink.adoptExisting(jobs[0]));
    EXPECT_FALSE(sink.adoptExisting(jobs[1]));
    EXPECT_FALSE(sink.adoptExisting(jobs[2]));
    EXPECT_FALSE(sink.adoptExisting(jobs[3]));
    EXPECT_EQ(sink.skipped(), 1u);

    // A record written under the right stem but for a different job
    // id must not be adopted.
    JobSpec imposter = jobs[0];
    imposter.id = jobs[0].id + "X";
    std::filesystem::copy_file(
        record(jobs[0]), record(imposter),
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(sink.adoptExisting(imposter));

    // Finishing after adoption keeps the record in the manifest and
    // reports the skip count.
    SweepSummary summary;
    summary.jobs = 0;
    sink.finish(summary);
    const std::string manifest = readFile(dir / "manifest.json");
    EXPECT_TRUE(jsonParseCheck(manifest));
    EXPECT_NE(manifest.find("\"skipped\":1"), std::string::npos);
    EXPECT_NE(manifest.find(jobs[0].id), std::string::npos);
}

TEST(BenchScale, RejectsGarbageAndKeepsValidValues)
{
    EXPECT_DOUBLE_EQ(parseBenchScale(nullptr), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale(""), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseBenchScale("2"), 2.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("0"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("-3"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("abc"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("1.5x"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("inf"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("nan"), 1.0);
}

} // namespace
