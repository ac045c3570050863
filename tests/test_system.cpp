/**
 * @file
 * Full-system integration tests: determinism, the paper's headline
 * behaviors (ASD eliminates the useless prefetches a next-line
 * prefetcher makes on length-1/2 streams; PMS never loses badly to
 * NP on streaming traces), writeback flow, SMT wiring, and metric
 * sanity.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace asd
{
namespace
{

SyntheticConfig
streamyTrace(std::uint64_t accesses = 60000)
{
    SyntheticConfig config;
    config.seed = 7;
    config.total_accesses = accesses;
    config.working_set_bytes = 256ULL << 20;
    config.mean_gap = 6.0;
    config.mean_touches_per_line = 8.0;
    config.write_frac = 0.2;
    config.reuse_frac = 0.2;
    config.dependent_frac = 0.1;
    config.negative_dir_frac = 0.0;
    config.concurrent_streams = 4;
    config.phases = {PhaseProfile{{0.1, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0,
                                   1.0, 0.8, 0.5},
                                  0}};
    return config;
}

SyntheticConfig
allLengthTwoTrace()
{
    SyntheticConfig config = streamyTrace(60000);
    config.phases = {PhaseProfile{{0.0, 1.0}, 0}};
    config.dependent_frac = 0.0;
    return config;
}

RunMetrics
runMode(const SyntheticConfig &trace_config, PrefetchMode mode,
        McPrefetcherKind kind = McPrefetcherKind::Asd)
{
    SyntheticTraceGenerator trace(trace_config);
    SystemConfig config;
    config.mode = mode;
    config.mc_prefetcher = kind;
    System system(config, {&trace});
    return system.run();
}

TEST(SystemIntegration, DeterministicRuns)
{
    const RunMetrics a = runMode(streamyTrace(20000),
                                 PrefetchMode::PMS);
    const RunMetrics b = runMode(streamyTrace(20000),
                                 PrefetchMode::PMS);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mc_reads, b.mc_reads);
    EXPECT_EQ(a.ms_prefetches_issued, b.ms_prefetches_issued);
}

TEST(SystemIntegration, AllAccessesRetire)
{
    const RunMetrics m = runMode(streamyTrace(20000),
                                 PrefetchMode::NP);
    EXPECT_EQ(m.accesses, 20000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.mc_reads, 0u);
}

TEST(SystemIntegration, PrefetchingHelpsStreamingWorkload)
{
    const SyntheticConfig trace = streamyTrace();
    const RunMetrics np = runMode(trace, PrefetchMode::NP);
    const RunMetrics ms = runMode(trace, PrefetchMode::MS);
    const RunMetrics pms = runMode(trace, PrefetchMode::PMS);
    EXPECT_LT(ms.cycles, np.cycles);
    EXPECT_LT(pms.cycles, np.cycles);
    EXPECT_GT(ms.coverage_pct, 5.0);
    EXPECT_GT(ms.useful_prefetch_pct, 50.0);
}

/**
 * The paper's core claim (section 1): on a workload of pure length-2
 * streams, a next-line prefetcher wastes ~half its prefetches, while
 * ASD learns to prefetch only the second line.
 */
TEST(SystemIntegration, AsdBeatsNextLineOnLengthTwoStreams)
{
    const SyntheticConfig trace = allLengthTwoTrace();
    const RunMetrics asd =
        runMode(trace, PrefetchMode::MS, McPrefetcherKind::Asd);
    const RunMetrics nextline =
        runMode(trace, PrefetchMode::MS, McPrefetcherKind::NextLine);
    // ASD's prefetches are far more likely to be used.
    EXPECT_GT(asd.useful_prefetch_pct,
              nextline.useful_prefetch_pct + 15.0);
    // And the next-line baseline issues many more prefetches for the
    // same coverage opportunity.
    EXPECT_LT(asd.ms_prefetches_issued, nextline.ms_prefetches_issued);
}

TEST(SystemIntegration, WritebacksReachDram)
{
    // Touch enough distinct lines to overflow the victim L3 so dirty
    // castouts reach memory.
    SyntheticConfig trace = streamyTrace();
    trace.write_frac = 0.4;
    trace.mean_touches_per_line = 1.0;
    trace.reuse_frac = 0.0;
    const RunMetrics m = runMode(trace, PrefetchMode::NP);
    EXPECT_GT(m.mc_writes, 0u);
}

TEST(SystemIntegration, SmtTwoThreadsRun)
{
    SyntheticConfig trace_a = streamyTrace(15000);
    SyntheticConfig trace_b = streamyTrace(15000);
    trace_b.seed = 99;
    SyntheticTraceGenerator a(trace_a);
    SyntheticTraceGenerator b(trace_b);
    SystemConfig config;
    config.mode = PrefetchMode::PMS;
    System system(config, {&a, &b});
    const RunMetrics m = system.run();
    EXPECT_EQ(m.accesses, 30000u);
    EXPECT_GT(m.cycles, 0u);
}

TEST(SystemIntegration, SmtSlowerThanSingleThreadButRuns)
{
    // Two threads share L2/L3/MC: combined runtime exceeds one
    // thread's, but is far below 2x serial (they overlap).
    SyntheticConfig trace = streamyTrace(15000);
    const RunMetrics solo = runMode(trace, PrefetchMode::PMS);
    SyntheticConfig trace_b = trace;
    trace_b.seed = 99;
    SyntheticTraceGenerator a(trace);
    SyntheticTraceGenerator b(trace_b);
    SystemConfig config;
    config.mode = PrefetchMode::PMS;
    System system(config, {&a, &b});
    const RunMetrics smt = system.run();
    EXPECT_GT(smt.cycles, solo.cycles);
    EXPECT_LT(smt.cycles, solo.cycles * 3);
}

TEST(SystemIntegration, FastForwardDoesNotChangeResults)
{
    SyntheticConfig trace_config = streamyTrace(8000);
    RunMetrics with_ff;
    RunMetrics without_ff;
    {
        SyntheticTraceGenerator trace(trace_config);
        SystemConfig config;
        config.mode = PrefetchMode::PMS;
        System system(config, {&trace});
        with_ff = system.run();
    }
    {
        SyntheticTraceGenerator trace(trace_config);
        SystemConfig config;
        config.mode = PrefetchMode::PMS;
        config.fast_forward = false;
        System system(config, {&trace});
        without_ff = system.run();
    }
    EXPECT_EQ(with_ff.cycles, without_ff.cycles);
    EXPECT_EQ(with_ff.mc_reads, without_ff.mc_reads);
    EXPECT_EQ(with_ff.ms_prefetches_issued,
              without_ff.ms_prefetches_issued);
    EXPECT_EQ(with_ff.buffer_hits, without_ff.buffer_hits);
}

TEST(SystemIntegration, PsOracleIsAnUpperBound)
{
    SyntheticConfig trace_config = streamyTrace(20000);
    RunMetrics real;
    RunMetrics oracle;
    {
        SyntheticTraceGenerator trace(trace_config);
        SystemConfig config;
        config.mode = PrefetchMode::PS;
        System system(config, {&trace});
        real = system.run();
    }
    {
        SyntheticTraceGenerator trace(trace_config);
        SystemConfig config;
        config.mode = PrefetchMode::PS;
        config.ps_oracle = true;
        System system(config, {&trace});
        oracle = system.run();
    }
    EXPECT_LE(oracle.cycles, real.cycles);
}

TEST(SystemIntegration, AsdProcessorSideRuns)
{
    SyntheticTraceGenerator trace(streamyTrace(20000));
    SystemConfig config;
    config.mode = PrefetchMode::PS;
    config.ps_kind = PsKind::Asd;
    System system(config, {&trace});
    const RunMetrics m = system.run();
    EXPECT_EQ(m.accesses, 20000u);
    EXPECT_GT(system.stats().value("ps.t0.requests"), 0u);
}

TEST(SystemIntegration, MetricsWithinPhysicalBounds)
{
    const RunMetrics m = runMode(streamyTrace(), PrefetchMode::PMS);
    EXPECT_GE(m.useful_prefetch_pct, 0.0);
    EXPECT_LE(m.useful_prefetch_pct, 100.0);
    EXPECT_GE(m.coverage_pct, 0.0);
    EXPECT_LE(m.coverage_pct, 100.0);
    EXPECT_GE(m.delayed_regular_pct, 0.0);
    EXPECT_LE(m.delayed_regular_pct, 100.0);
    EXPECT_GT(m.dram_watts, 0.1);
    EXPECT_LT(m.dram_watts, 20.0);
}

TEST(SystemIntegration, NpHasNoPrefetchActivity)
{
    const RunMetrics m = runMode(streamyTrace(20000),
                                 PrefetchMode::NP);
    EXPECT_EQ(m.ms_prefetches_issued, 0u);
    EXPECT_EQ(m.buffer_hits, 0u);
}

TEST(SystemIntegration, P5StyleBaselineRuns)
{
    const RunMetrics m = runMode(streamyTrace(20000), PrefetchMode::MS,
                                 McPrefetcherKind::P5Style);
    EXPECT_GT(m.ms_prefetches_issued, 0u);
}

TEST(Experiment, RunOptionsProduceConfiguredSystem)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.buffer_lines = 32;
    options.filter_slots = 16;
    options.fixed_policy = 2;
    options.scheduler = SchedulerKind::InOrder;
    const SystemConfig config = makeSystemConfig(options);
    EXPECT_EQ(config.mode, PrefetchMode::MS);
    EXPECT_EQ(config.asd.buffer_lines, 32u);
    EXPECT_EQ(config.asd.filter_slots, 16u);
    EXPECT_FALSE(config.asd.sched.adaptive);
    EXPECT_EQ(config.asd.sched.fixed_policy, 2);
    EXPECT_EQ(config.mc.scheduler, SchedulerKind::InOrder);
}

TEST(Experiment, RunBenchmarkSmoke)
{
    Benchmark bench = findBenchmark("tpcc");
    RunOptions options;
    options.mode = PrefetchMode::PMS;
    options.accesses = 20000;
    const RunMetrics m = runBenchmark(bench, options);
    EXPECT_EQ(m.accesses, 20000u);
}

TEST(Experiment, SmtPairUsesDistinctSeeds)
{
    Benchmark bench = findBenchmark("tpcc");
    RunOptions options;
    options.mode = PrefetchMode::NP;
    options.accesses = 10000;
    const RunMetrics m = runSmtPair(bench, bench, options);
    EXPECT_EQ(m.accesses, 20000u);
}

// An SMT pair replays two plain traces on one bare System; options it
// cannot honour are rejected, never silently dropped.
TEST(Experiment, SmtPairRejectsTheTuner)
{
    const Benchmark &bench = findBenchmark("bwaves");
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.accesses = 2000;
    options.tuner.enabled = true;
    EXPECT_EXIT(runSmtPair(bench, bench, options),
                testing::ExitedWithCode(1),
                "--tune cannot be combined with --smt");
}

TEST(Experiment, SmtPairRejectsATenantMix)
{
    const Benchmark &bench = findBenchmark("bwaves");
    RunOptions options;
    options.accesses = 2000;
    options.tenants.enabled = true;
    EXPECT_EXIT(runSmtPair(bench, bench, options),
                testing::ExitedWithCode(1),
                "--tenants cannot be combined with --smt");
}

} // namespace
} // namespace asd
