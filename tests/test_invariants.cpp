/**
 * @file
 * Tests for the ASD_CHECK invariant layer: the runtime toggle, the
 * checkThat failure mode, and — most importantly — that whole
 * simulations run clean with every cross-component invariant armed
 * (LHT monotonicity, Stream Filter slot uniqueness, Prefetch Buffer
 * occupancy, and the memory controller's queue-conservation laws).
 */

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace asd
{
namespace
{

TEST(Checks, ScopedChecksRestoresPreviousState)
{
    const bool initial = checksEnabled();
    {
        ScopedChecks on(true);
        EXPECT_TRUE(checksEnabled());
        {
            ScopedChecks off(false);
            EXPECT_FALSE(checksEnabled());
        }
        EXPECT_TRUE(checksEnabled());
    }
    EXPECT_EQ(checksEnabled(), initial);
}

TEST(Checks, SetChecksEnabledReturnsPrevious)
{
    ScopedChecks guard(false);
    EXPECT_FALSE(setChecksEnabled(true));
    EXPECT_TRUE(setChecksEnabled(true));
    EXPECT_TRUE(setChecksEnabled(false));
}

TEST(ChecksDeathTest, CheckThatPanicsOnFailure)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    checkThat(true, "never fires");
    EXPECT_DEATH(checkThat(false, "broken invariant"),
                 "ASD_CHECK: broken invariant");
}

/**
 * Full-system soak with every invariant armed: a PMS run on a real
 * benchmark exercises the Stream Filter, both LHT directions across
 * epoch swaps, the Prefetch Buffer, and the controller conservation
 * laws every cycle. Any violation panics and fails the test.
 */
TEST(Checks, FullSystemRunsCleanWithChecksArmed)
{
    ScopedChecks on(true);
    RunOptions options;
    options.mode = PrefetchMode::PMS;
    options.accesses = 30000;
    const RunMetrics m =
        runBenchmark(findBenchmark("bwaves"), options);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.mc_reads, 0u);
}

TEST(Checks, SmtRunWithSchedulerSweepStaysClean)
{
    ScopedChecks on(true);
    for (const SchedulerKind kind :
         {SchedulerKind::Ahb, SchedulerKind::Memoryless,
          SchedulerKind::InOrder, SchedulerKind::FrFcfs}) {
        RunOptions options;
        options.mode = PrefetchMode::MS;
        options.scheduler = kind;
        options.accesses = 12000;
        const RunMetrics m =
            runSmtPair(findBenchmark("milc"), findBenchmark("lbm"),
                       options);
        EXPECT_GT(m.cycles, 0u);
    }
}

TEST(Checks, ResultsIdenticalWithChecksOnAndOff)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.accesses = 20000;
    const Benchmark &bench = findBenchmark("leslie3d");

    RunMetrics with_checks;
    RunMetrics without_checks;
    {
        ScopedChecks on(true);
        with_checks = runBenchmark(bench, options);
    }
    {
        ScopedChecks off(false);
        without_checks = runBenchmark(bench, options);
    }
    EXPECT_EQ(with_checks.cycles, without_checks.cycles);
    EXPECT_EQ(with_checks.mc_reads, without_checks.mc_reads);
    EXPECT_EQ(with_checks.ms_prefetches_issued,
              without_checks.ms_prefetches_issued);
    EXPECT_EQ(with_checks.coverage_pct, without_checks.coverage_pct);
}

} // namespace
} // namespace asd
