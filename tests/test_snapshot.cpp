/**
 * @file
 * Checkpoint/restore subsystem tests: primitive round trips through
 * SnapshotWriter/SnapshotReader, rejection of damaged or mismatched
 * images (magic, version, CRC, truncation, config hash), whole-system
 * save -> load -> save byte identity, restore-then-run equality with
 * an uninterrupted run (VM off and on, telemetry on, splits before
 * and after the warm-up boundary), and the component-presence rules
 * that warm-start forking relies on.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"

namespace asd
{
namespace
{

constexpr std::uint64_t kHash = 0x1234abcd5678ef00ULL;

SyntheticConfig
testTrace(std::uint64_t accesses = 20000)
{
    SyntheticConfig config;
    config.seed = 11;
    config.total_accesses = accesses;
    config.working_set_bytes = 64ULL << 20;
    config.mean_gap = 5.0;
    config.mean_touches_per_line = 6.0;
    config.write_frac = 0.25;
    config.reuse_frac = 0.15;
    config.dependent_frac = 0.1;
    config.concurrent_streams = 4;
    config.phases = {
        PhaseProfile{{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, 0}};
    return config;
}

SystemConfig
testConfig(PrefetchMode mode)
{
    SystemConfig config;
    config.mode = mode;
    return config;
}

std::vector<std::uint8_t>
snapshotOf(const System &system)
{
    SnapshotWriter writer;
    system.saveSnapshot(writer);
    return writer.finish(kHash);
}

/** Run to @p split, snapshot, restore into a fresh machine. */
std::vector<std::uint8_t>
splitSnapshot(const SystemConfig &config, Cycle split)
{
    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    system.runUntil(split);
    return snapshotOf(system);
}

// --- primitives ----------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip)
{
    SnapshotWriter writer;
    writer.beginSection("prims");
    writer.u8(0xA5);
    writer.u32(0xDEADBEEFu);
    writer.u64(0x0123456789abcdefULL);
    writer.i64(-42);
    writer.f64(3.5);
    writer.b(true);
    writer.b(false);
    writer.str("hello snapshot");
    writer.vecU64({1, 2, 3, 0xffffffffffffffffULL});
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    EXPECT_TRUE(reader.hasSection("prims"));
    EXPECT_FALSE(reader.hasSection("absent"));
    reader.openSection("prims");
    EXPECT_EQ(reader.u8(), 0xA5);
    EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.i64(), -42);
    EXPECT_EQ(reader.f64(), 3.5);
    EXPECT_TRUE(reader.b());
    EXPECT_FALSE(reader.b());
    EXPECT_EQ(reader.str(), "hello snapshot");
    EXPECT_EQ(reader.vecU64(),
              (std::vector<std::uint64_t>{
                  1, 2, 3, 0xffffffffffffffffULL}));
    reader.endSection();
}

TEST(SnapshotFormat, RejectsDamage)
{
    SnapshotWriter writer;
    writer.beginSection("s");
    writer.u64(7);
    writer.endSection();
    const std::vector<std::uint8_t> good = writer.finish(kHash);

    // Bad magic.
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Unsupported format version (u32 after the 8-byte magic).
    bad = good;
    bad[8] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Payload corruption -> CRC mismatch.
    bad = good;
    bad[bad.size() - 1] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Truncation.
    bad = good;
    bad.resize(bad.size() - 4);
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Wrong config hash.
    SnapshotReader reader(good);
    EXPECT_THROW(reader.requireConfigHash(kHash + 1), SnapshotError);

    // Missing section.
    SnapshotReader reader2(good);
    EXPECT_THROW(reader2.openSection("absent"), SnapshotError);
}

// --- whole-system round trips --------------------------------------

class SnapshotSystem
    : public ::testing::TestWithParam<PrefetchMode>
{
};

/**
 * save -> load -> save must reproduce the image byte for byte; any
 * field a component forgets to restore (or restores differently)
 * shows up here without needing a per-component test.
 */
TEST_P(SnapshotSystem, SaveLoadSaveByteIdentical)
{
    const SystemConfig config = testConfig(GetParam());
    const std::vector<std::uint8_t> first =
        splitSnapshot(config, 40000);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(first);
    reader.requireConfigHash(kHash);
    system.loadSnapshot(reader);
    EXPECT_EQ(snapshotOf(system), first);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SnapshotSystem,
                         ::testing::Values(PrefetchMode::NP,
                                           PrefetchMode::PS,
                                           PrefetchMode::MS,
                                           PrefetchMode::PMS));

TEST(SnapshotSystem, SaveLoadSaveByteIdenticalWithVmAndTelemetry)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.vm.enabled = true;
    config.vm.policy = FrameAllocPolicy::RandomShuffle;
    config.telemetry.enabled = true;
    config.warmup_cycles = 10000;
    const std::vector<std::uint8_t> first =
        splitSnapshot(config, 40000);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(first);
    system.loadSnapshot(reader);
    EXPECT_EQ(snapshotOf(system), first);
}

/** Metrics of an uninterrupted run of @p config over testTrace(). */
RunMetrics
straightRun(const SystemConfig &config,
            std::vector<EpochRecord> *epochs = nullptr)
{
    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    const RunMetrics metrics = system.run();
    if (epochs && system.telemetry())
        *epochs = system.telemetry()->records();
    return metrics;
}

/** The same run split at @p split via snapshot save + restore. */
RunMetrics
splitRun(const SystemConfig &config, Cycle split,
         std::vector<EpochRecord> *epochs = nullptr)
{
    const std::vector<std::uint8_t> bytes =
        splitSnapshot(config, split);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    system.loadSnapshot(reader);
    system.runUntil(kNoCycle);
    if (epochs && system.telemetry())
        *epochs = system.telemetry()->records();
    return system.collectMetrics();
}

TEST(SnapshotRestore, RestoreThenRunMatchesStraightRun)
{
    const SystemConfig config = testConfig(PrefetchMode::PMS);
    EXPECT_EQ(splitRun(config, 30000), straightRun(config));
}

TEST(SnapshotRestore, RestoreThenRunMatchesWithVm)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.vm.enabled = true;
    config.vm.policy = FrameAllocPolicy::RandomShuffle;
    EXPECT_EQ(splitRun(config, 30000), straightRun(config));
}

TEST(SnapshotRestore, RestoreThenRunMatchesWithTelemetry)
{
    SystemConfig config = testConfig(PrefetchMode::MS);
    config.telemetry.enabled = true;
    std::vector<EpochRecord> straight_epochs;
    std::vector<EpochRecord> split_epochs;
    const RunMetrics straight = straightRun(config, &straight_epochs);
    const RunMetrics split = splitRun(config, 30000, &split_epochs);
    EXPECT_EQ(split, straight);
    EXPECT_EQ(split_epochs, straight_epochs);
}

/**
 * A snapshot taken before the warm-up boundary resumes disarmed and
 * arms at the same cycle as the uninterrupted run.
 */
TEST(SnapshotRestore, SplitBeforeWarmupBoundaryMatches)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.warmup_cycles = 20000;
    EXPECT_EQ(splitRun(config, 5000), straightRun(config));
    EXPECT_EQ(splitRun(config, 20000), straightRun(config));
    EXPECT_EQ(splitRun(config, 35000), straightRun(config));
}

// --- component-presence rules --------------------------------------

TEST(SnapshotPresence, PsAndVmMustMatch)
{
    // PS snapshot into an NP machine: processor-side prefetchers
    // shaped the saved state; silently dropping them would diverge.
    const std::vector<std::uint8_t> ps_snap =
        splitSnapshot(testConfig(PrefetchMode::PS), 20000);
    SyntheticTraceGenerator trace(testTrace());
    System np_system(testConfig(PrefetchMode::NP), {&trace});
    SnapshotReader reader(ps_snap);
    EXPECT_THROW(np_system.loadSnapshot(reader), SnapshotError);

    SystemConfig vm_config = testConfig(PrefetchMode::NP);
    vm_config.vm.enabled = true;
    const std::vector<std::uint8_t> vm_snap =
        splitSnapshot(vm_config, 20000);
    SyntheticTraceGenerator trace2(testTrace());
    System plain(testConfig(PrefetchMode::NP), {&trace2});
    SnapshotReader reader2(vm_snap);
    EXPECT_THROW(plain.loadSnapshot(reader2), SnapshotError);
}

TEST(SnapshotPresence, MemorySideForkAllowedOneWay)
{
    // No-MS snapshot into an MS machine is the warm-start fork: the
    // freshly built prefetcher state stands in for the (identical)
    // untouched state of a cold disarmed machine.
    SystemConfig np_config = testConfig(PrefetchMode::NP);
    np_config.warmup_cycles = 20000;
    const std::vector<std::uint8_t> np_snap =
        splitSnapshot(np_config, 20000);
    SystemConfig ms_config = testConfig(PrefetchMode::MS);
    ms_config.warmup_cycles = 20000;
    SyntheticTraceGenerator trace(testTrace());
    System ms_system(ms_config, {&trace});
    SnapshotReader reader(np_snap);
    reader.requireConfigHash(kHash);
    ms_system.loadSnapshot(reader);
    ms_system.runUntil(kNoCycle);
    const RunMetrics forked = ms_system.collectMetrics();
    EXPECT_GT(forked.ms_prefetches_issued, 0u);
    // The forked run must equal a cold start of the full MS machine.
    EXPECT_EQ(forked, straightRun(ms_config));

    // The reverse — dropping recorded MS state — is rejected.
    const std::vector<std::uint8_t> ms_snap =
        splitSnapshot(testConfig(PrefetchMode::MS), 20000);
    SyntheticTraceGenerator trace2(testTrace());
    System np_system(testConfig(PrefetchMode::NP), {&trace2});
    SnapshotReader reader2(ms_snap);
    EXPECT_THROW(np_system.loadSnapshot(reader2), SnapshotError);
}

} // namespace
} // namespace asd
