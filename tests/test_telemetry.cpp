/**
 * @file
 * Tests for the per-epoch telemetry layer: recorder wiring through
 * sim::System, delta/consistency properties of the epoch records, the
 * off-by-default guarantee, and the three sinks (CSV, JSON
 * time-series, Chrome trace-event JSON).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/run_options_schema.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sinks.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace asd
{
namespace
{

std::vector<EpochRecord>
recordedRun(RunOptions options, const char *bench = "bwaves",
            std::uint64_t accesses = 90000)
{
    options.telemetry.enabled = true;
    options.accesses = accesses;
    return BenchmarkRun(findBenchmark(bench), options).run().epochs;
}

TEST(Telemetry, OffByDefaultRecordsNothing)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.accesses = 30000;
    EXPECT_TRUE(
        BenchmarkRun(findBenchmark("bwaves"), options).run().epochs.empty());
}

TEST(Telemetry, DisabledSystemHasNoRecorder)
{
    SystemConfig config = makeSystemConfig(RunOptions{});
    SyntheticConfig trace_config =
        findBenchmark("bwaves").trace;
    trace_config.total_accesses = 5000;
    SyntheticTraceGenerator trace(trace_config);
    System system(config, {&trace});
    EXPECT_EQ(system.telemetry(), nullptr);
}

TEST(Telemetry, RecordsOneRecordPerEpoch)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    const auto epochs = recordedRun(options);
    ASSERT_GE(epochs.size(), 2u);
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const EpochRecord &rec = epochs[i];
        EXPECT_EQ(rec.epoch, i + 1);
        EXPECT_LT(rec.start_cycle, rec.end_cycle);
        if (i > 0) {
            EXPECT_EQ(rec.start_cycle, epochs[i - 1].end_cycle);
        }
        // Epochs are 2000 MC reads by construction.
        EXPECT_EQ(rec.reads, 2000u);
        EXPECT_GE(rec.policy, 1u);
        EXPECT_LE(rec.policy, 5u);
        EXPECT_GE(rec.accuracy_pct, 0.0);
        EXPECT_LE(rec.accuracy_pct, 100.0);
        EXPECT_GE(rec.coverage_pct, 0.0);
        EXPECT_LE(rec.coverage_pct, 100.0);
        // Suggested splits into issued-or-dropped and suppressed
        // upstream of the LPQ; each piece is bounded by the total
        // decision count.
        EXPECT_LE(rec.suppressed, rec.reads + rec.overflow_reads);
    }
}

TEST(Telemetry, CapturesSlhSnapshotsPerThread)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());
    for (const EpochRecord &rec : epochs) {
        ASSERT_EQ(rec.slh.size(), 1u); // single-threaded run
        EXPECT_EQ(rec.slh[0].thread, 0u);
        EXPECT_FALSE(rec.slh[0].positive.empty());
        EXPECT_EQ(rec.slh[0].positive.size(),
                  rec.slh[0].negative.size());
    }
}

TEST(Telemetry, NoSlhOptionOmitsSnapshots)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.telemetry.capture_slh = false;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());
    for (const EpochRecord &rec : epochs)
        EXPECT_TRUE(rec.slh.empty());
}

TEST(Telemetry, MaxEpochsCapsTheSeries)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.telemetry.max_epochs = 1;
    const auto epochs = recordedRun(options);
    EXPECT_EQ(epochs.size(), 1u);
}

TEST(Telemetry, RecordsEpochsForEveryContender)
{
    // The epoch clock, buffer and scheduler are shared by every
    // memory-side contender, so each one records a gapless series
    // whose buffer and scheduler deltas add up to the registry's
    // totals at the last boundary; ASD's own columns stay zero.
    for (const auto &[kind, name] : enumNames(McPrefetcherKind{})) {
        if (kind == McPrefetcherKind::Asd)
            continue;
        SCOPED_TRACE(name);
        RunOptions options;
        options.mode = PrefetchMode::MS;
        options.mc_prefetcher = kind;
        options.telemetry.enabled = true;
        SyntheticConfig trace_config = findBenchmark("bwaves").trace;
        trace_config.total_accesses = 60000;
        SyntheticTraceGenerator trace(trace_config);
        System system(makeSystemConfig(options), {&trace});
        std::uint64_t consumed = 0;
        std::uint64_t conflicts = 0;
        system.setEpochEndHook([&](Cycle) {
            consumed = system.stats().value("ms.buffer.consumed");
            conflicts = system.stats().value("ms.sched.conflicts");
        });
        system.run();
        ASSERT_NE(system.telemetry(), nullptr);
        const std::vector<EpochRecord> &epochs =
            system.telemetry()->records();
        ASSERT_GE(epochs.size(), 2u);

        std::uint64_t consumed_sum = 0;
        std::uint64_t conflicts_sum = 0;
        for (std::size_t i = 0; i < epochs.size(); ++i) {
            const EpochRecord &rec = epochs[i];
            EXPECT_EQ(rec.epoch, i + 1);
            EXPECT_LT(rec.start_cycle, rec.end_cycle);
            if (i > 0) {
                EXPECT_EQ(rec.start_cycle, epochs[i - 1].end_cycle);
            }
            EXPECT_GE(rec.policy, 1u);
            EXPECT_LE(rec.policy, 5u);
            EXPECT_EQ(rec.suggested, 0u);
            EXPECT_EQ(rec.suppressed, 0u);
            EXPECT_EQ(rec.overflow_reads, 0u);
            EXPECT_EQ(rec.stream_merges, 0u);
            EXPECT_EQ(rec.lht_underflow_clamps, 0u);
            EXPECT_TRUE(rec.slh.empty());
            consumed_sum += rec.buffer_consumed;
            conflicts_sum += rec.conflicts;
        }
        EXPECT_EQ(consumed_sum, consumed);
        EXPECT_EQ(conflicts_sum, conflicts);
    }
}

TEST(Telemetry, RecordingDoesNotPerturbTheRun)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.accesses = 30000;
    const Benchmark &bench = findBenchmark("milc");
    const RunMetrics plain = runBenchmark(bench, options);

    options.telemetry.enabled = true;
    const RunMetrics recorded = runBenchmark(bench, options);

    EXPECT_EQ(plain.cycles, recorded.cycles);
    EXPECT_EQ(plain.mc_reads, recorded.mc_reads);
    EXPECT_EQ(plain.ms_prefetches_issued,
              recorded.ms_prefetches_issued);
    EXPECT_EQ(plain.coverage_pct, recorded.coverage_pct);
}

TEST(Telemetry, EpochDeltasSumBelowRunTotals)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.telemetry.enabled = true;
    options.accesses = 40000;
    const RunResult res =
        BenchmarkRun(findBenchmark("bwaves"), options).run();
    ASSERT_FALSE(res.epochs.empty());
    std::uint64_t reads = 0;
    std::uint64_t issued = 0;
    for (const EpochRecord &rec : res.epochs) {
        reads += rec.reads;
        issued += rec.prefetches_issued;
    }
    // The tail after the last epoch boundary is not recorded, so the
    // per-epoch sums are bounded by the run totals.
    EXPECT_LE(reads, res.metrics.mc_reads);
    EXPECT_LE(issued, res.metrics.ms_prefetches_issued);
    EXPECT_GE(reads, 2000u);
}

// --- epoch-boundary edge cases --------------------------------------

TEST(Telemetry, ZeroLengthEpochYieldsCleanZeroRecord)
{
    // A boundary that re-fires with no simulation progress (the
    // degenerate zero-length final epoch) must record all-zero deltas
    // and keep the 0/0 ratios at 0.0 rather than NaN.
    DramConfig dram_config;
    dram_config.refresh_enabled = false;
    Dram dram(dram_config);
    MemoryController mc(McConfig{}, dram, [](std::uint64_t, Cycle) {});
    AsdPrefetcher asd{AsdConfig{}};
    StatRegistry stats;
    mc.registerStats(stats, "mc");
    asd.registerStats(stats);
    dram.registerStats(stats);
    TelemetryConfig config;
    config.enabled = true;
    TelemetryRecorder recorder(config, stats, asd, &asd, mc);

    recorder.onEpochEnd(1000);
    recorder.onEpochEnd(1000);
    ASSERT_EQ(recorder.records().size(), 2u);
    const EpochRecord &rec = recorder.records().back();
    EXPECT_EQ(rec.start_cycle, 1000u);
    EXPECT_EQ(rec.end_cycle, 1000u);
    EXPECT_EQ(rec.reads, 0u);
    EXPECT_EQ(rec.prefetches_issued, 0u);
    EXPECT_EQ(rec.buffer_hits, 0u);
    EXPECT_EQ(rec.accuracy_pct, 0.0);
    EXPECT_EQ(rec.coverage_pct, 0.0);
}

TEST(Telemetry, CorruptRecordCountIsASnapshotError)
{
    // A record count no section could hold must surface as a
    // SnapshotError, not as an allocation failure while reserving.
    DramConfig dram_config;
    Dram dram(dram_config);
    MemoryController mc(McConfig{}, dram, [](std::uint64_t, Cycle) {});
    AsdPrefetcher asd{AsdConfig{}};
    StatRegistry stats;
    mc.registerStats(stats, "mc");
    asd.registerStats(stats);
    dram.registerStats(stats);
    TelemetryConfig config;
    config.enabled = true;
    TelemetryRecorder recorder(config, stats, asd, &asd, mc);

    SnapshotWriter writer;
    writer.beginSection("tel");
    for (std::size_t i = 0; i < kTelemetryColumns.size(); ++i)
        writer.u64(0);      // baseline
    writer.u64(0);          // baseline cycle
    writer.b(false);        // capped
    writer.u64(1ULL << 62); // records
    writer.endSection();
    SnapshotReader reader(writer.finish(0));
    reader.openSection("tel");
    EXPECT_THROW(recorder.loadState(reader), SnapshotError);
}

TEST(Telemetry, WarmupRebaselineExcludesWarmupActivity)
{
    // The recorder rebaselines when the prefetcher arms at the
    // warm-up boundary: epoch 1 starts at or after warmup_cycles,
    // still spans exactly epoch_reads MC reads (warm-up reads do not
    // leak into its deltas), and the series stays gapless.
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.warmup_cycles = 20000;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());
    EXPECT_GE(epochs.front().start_cycle, 20000u);
    EXPECT_EQ(epochs.front().epoch, 1u);
    EXPECT_EQ(epochs.front().reads, 2000u);
    for (std::size_t i = 1; i < epochs.size(); ++i)
        EXPECT_EQ(epochs[i].start_cycle, epochs[i - 1].end_cycle);
}

TEST(Telemetry, HookReArmsAfterSnapshotRestore)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.telemetry.enabled = true;
    const SystemConfig config = makeSystemConfig(options);
    SyntheticConfig trace_config = findBenchmark("bwaves").trace;
    trace_config.total_accesses = 60000;

    SyntheticTraceGenerator straight_trace(trace_config);
    System straight(config, {&straight_trace});
    const RunMetrics metrics = straight.run();
    ASSERT_NE(straight.telemetry(), nullptr);
    const std::vector<EpochRecord> want =
        straight.telemetry()->records();
    ASSERT_GE(want.size(), 2u);

    SyntheticTraceGenerator first_trace(trace_config);
    System first(config, {&first_trace});
    first.runUntil(metrics.cycles / 2);
    SnapshotWriter writer;
    first.saveSnapshot(writer);
    const std::vector<std::uint8_t> bytes = writer.finish(0);
    const std::size_t prefix = first.telemetry()->records().size();
    ASSERT_LT(prefix, want.size());

    SyntheticTraceGenerator resumed_trace(trace_config);
    System resumed(config, {&resumed_trace});
    SnapshotReader reader(bytes);
    resumed.loadSnapshot(reader);
    resumed.runUntil(kNoCycle);

    // New records accumulated after the restore: the epoch-end hook
    // was re-armed, and the combined series matches the
    // uninterrupted run exactly.
    const std::vector<EpochRecord> &got =
        resumed.telemetry()->records();
    ASSERT_GT(got.size(), prefix);
    EXPECT_EQ(got, want);
}

TEST(Telemetry, EveryColumnStatResolves)
{
    // A mistyped stat name in the column table would read as a silent
    // all-zero column; in a PMS machine with the OS model and a
    // tenant mix, every named stat is registered, except that only
    // ASD registers asd.* (every contender registers ms.*).
    for (const auto &[kind, name] : enumNames(McPrefetcherKind{})) {
        SCOPED_TRACE(name);
        RunOptions options;
        options.mode = PrefetchMode::PMS;
        options.mc_prefetcher = kind;
        options.os.enabled = true;
        options.tenants.enabled = true;
        options.telemetry.enabled = true;
        SyntheticConfig trace_config = findBenchmark("tpcc").trace;
        trace_config.total_accesses = 1000;
        const auto trace = makeTraceSource(options, trace_config);
        System system(makeSystemConfig(options), {trace.get()});
        ASSERT_NE(system.telemetry(), nullptr);
        const bool asd = kind == McPrefetcherKind::Asd;
        for (const TelemetryColumn &column : kTelemetryColumns) {
            SCOPED_TRACE(column.name);
            EXPECT_NE(column.stat == nullptr, column.gauge == nullptr);
            for (const std::string &stat :
                 statNames(column.stat ? column.stat : "")) {
                const bool own = stat.rfind("asd.", 0) == 0;
                EXPECT_EQ(system.stats().has(stat), asd || !own)
                    << stat;
            }
        }
    }
}

TEST(TelemetrySinks, CsvHasHeaderAndOneRowPerEpoch)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());

    std::ostringstream out;
    writeTelemetryCsv(epochs, out);
    const std::string text = out.str();
    EXPECT_EQ(text.rfind("epoch,start_cycle,end_cycle,", 0), 0u);
    std::size_t lines = 0;
    for (const char c : text)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, epochs.size() + 1);
}

TEST(TelemetrySinks, JsonIsParseableAndComplete)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());

    const std::string json = telemetryJson(epochs);
    EXPECT_TRUE(jsonParse(json).has_value());
    EXPECT_NE(json.find("\"schema\":\"asdsim/telemetry/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"slh\""), std::string::npos);
}

TEST(TelemetrySinks, ChromeTraceIsParseable)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    const auto epochs = recordedRun(options);
    ASSERT_FALSE(epochs.empty());

    const std::string trace = telemetryChromeTrace(epochs);
    EXPECT_TRUE(jsonParse(trace).has_value());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TelemetrySinks, EmptySeriesStillWellFormed)
{
    const std::vector<EpochRecord> none;
    std::ostringstream out;
    writeTelemetryCsv(none, out);
    EXPECT_EQ(out.str().rfind("epoch,", 0), 0u);
    EXPECT_TRUE(jsonParse(telemetryJson(none)).has_value());
    EXPECT_TRUE(jsonParse(telemetryChromeTrace(none)).has_value());
}

} // namespace
} // namespace asd
