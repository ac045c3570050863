/**
 * @file
 * Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
 * invariants that must hold across configuration spaces — every
 * reorder scheduler, every LPQ policy, a range of filter/buffer
 * geometries, and randomized traffic seeds.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/asd_prefetcher.hpp"
#include "core/prefetch_buffer.hpp"
#include "core/stream_filter.hpp"
#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "mc/scheduler.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"

namespace asd
{
namespace
{

// ---- every scheduler drains every command exactly once ----

class SchedulerSweep
    : public testing::TestWithParam<std::tuple<SchedulerKind, int>>
{
};

TEST_P(SchedulerSweep, AllCommandsCompleteExactlyOnce)
{
    const auto [kind, seed] = GetParam();
    DramConfig dram_config;
    dram_config.refresh_enabled = false;
    Dram dram(dram_config);
    McConfig mc_config;
    mc_config.scheduler = kind;

    std::vector<std::uint64_t> completed;
    MemoryController mc(mc_config, dram,
                        [&completed](std::uint64_t id, Cycle) {
                            completed.push_back(id);
                        });

    Rng rng(static_cast<std::uint64_t>(seed));
    std::uint64_t next_id = 1;
    std::uint64_t reads_sent = 0;
    std::uint64_t writes_sent = 0;
    Cycle now = 0;
    while (reads_sent + writes_sent < 200 && now < 100000) {
        if (rng.chance(0.3) && mc.canAcceptRead()) {
            mc.enqueueRead(rng.nextBelow(1 << 20), next_id++, 0, now);
            ++reads_sent;
        }
        if (rng.chance(0.1) && mc.canAcceptWrite()) {
            mc.enqueueWrite(rng.nextBelow(1 << 20), now);
            ++writes_sent;
        }
        mc.tick(now++);
    }
    while (!mc.idle() && now < 200000)
        mc.tick(now++);

    ASSERT_TRUE(mc.idle());
    EXPECT_EQ(completed.size(), reads_sent);
    std::sort(completed.begin(), completed.end());
    EXPECT_EQ(std::unique(completed.begin(), completed.end()),
              completed.end());
    EXPECT_EQ(dram.writes(), writes_sent);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerSweep,
    testing::Combine(testing::Values(SchedulerKind::InOrder,
                                     SchedulerKind::Memoryless,
                                     SchedulerKind::Ahb),
                     testing::Values(1, 2, 3)));

// ---- every LPQ policy eventually issues prefetches when idle, and
// ---- the controller still completes all demand traffic ----

class PolicyPrefetcher : public MemSidePrefetcher
{
  public:
    explicit PolicyPrefetcher(int policy) : policy_(policy) {}

    std::vector<LineAddr>
    observeRead(LineAddr line, std::uint32_t, Cycle) override
    {
        return {line + 1};
    }
    void observeWrite(LineAddr, Cycle) override {}
    bool
    lookupBuffer(LineAddr line) override
    {
        const auto it = buffer_.find(line);
        if (it == buffer_.end())
            return false;
        buffer_.erase(it);
        return true;
    }
    bool bufferContains(LineAddr line) const override
    {
        return buffer_.count(line) > 0;
    }
    void fillBuffer(LineAddr line, Cycle) override
    {
        buffer_.insert({line, true});
    }
    int schedulingPolicy() const override { return policy_; }
    void notifyPrefetchConflict(Cycle) override {}
    void tick(Cycle) override {}
    // Test double; never checkpointed.
    void snapshot(SnapshotIo &) override {}

  private:
    int policy_;
    std::map<LineAddr, bool> buffer_;
};

class LpqPolicySweep : public testing::TestWithParam<int>
{
};

TEST_P(LpqPolicySweep, PrefetchesIssueAndDemandsComplete)
{
    DramConfig dram_config;
    dram_config.refresh_enabled = false;
    Dram dram(dram_config);
    std::size_t completions = 0;
    MemoryController mc(McConfig{}, dram,
                        [&completions](std::uint64_t, Cycle) {
                            ++completions;
                        });
    PolicyPrefetcher pf(GetParam());
    mc.attachPrefetcher(&pf);

    Cycle now = 0;
    for (std::uint64_t i = 0; i < 50; ++i) {
        while (!mc.canAcceptRead())
            mc.tick(now++);
        mc.enqueueRead(i * 1000, i, 0, now);
        mc.tick(now++);
    }
    while (mc.hasWork() && now < 100000)
        mc.tick(now++);

    EXPECT_EQ(completions, 50u);
    // Every policy lets prefetches through once the controller
    // quiesces between demands.
    EXPECT_GT(mc.prefetchesIssued(), 0u)
        << "policy " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LpqPolicySweep,
                         testing::Values(1, 2, 3, 4, 5));

// ---- Stream Filter geometry sweep: conservation of reads ----

class FilterSweep : public testing::TestWithParam<std::uint32_t>
{
};

/**
 * Property: every observed read is accounted for exactly once across
 * stream-length records — sum(length x count) of all dead streams +
 * overflow singles == reads observed — for any slot count.
 */
TEST_P(FilterSweep, ReadConservation)
{
    const std::uint32_t slots = GetParam();
    StreamFilter filter(slots, 400, 400);
    Rng rng(slots + 7);

    std::uint64_t reads = 0;
    std::uint64_t accounted = 0;
    std::vector<LineAddr> cursors(6);
    for (auto &cursor : cursors)
        cursor = rng.nextBelow(1 << 20);

    for (Cycle now = 0; now < 30000; now += 10) {
        for (const DeadStream &dead : filter.expireLifetimes(now))
            accounted += dead.length;
        auto &cursor = cursors[rng.nextBelow(cursors.size())];
        if (rng.chance(0.3))
            cursor = rng.nextBelow(1 << 20); // new stream
        const StreamObservation obs = filter.observe(cursor, now);
        // Same-line repeats (cursor collisions) refresh a lifetime
        // without contributing length; exclude them from the count.
        if (obs.kind != StreamObservation::Kind::SameLine)
            ++reads;
        if (obs.kind == StreamObservation::Kind::Overflow)
            accounted += 1;
        ++cursor;
    }
    for (const DeadStream &dead : filter.flushAll())
        accounted += dead.length;
    EXPECT_EQ(accounted, reads);
}

INSTANTIATE_TEST_SUITE_P(Geometries, FilterSweep,
                         testing::Values(1u, 2u, 4u, 8u, 16u, 64u,
                                         0u /* oracle */));

// ---- Prefetch Buffer geometry sweep: capacity invariant ----

class BufferSweep
    : public testing::TestWithParam<std::pair<std::uint32_t,
                                              std::uint32_t>>
{
};

TEST_P(BufferSweep, NeverExceedsCapacity)
{
    const auto [lines, ways] = GetParam();
    PrefetchBuffer buffer(lines, ways);
    Rng rng(lines * 31 + ways);
    // Distinct lines per insert so re-insertion merging (counted as
    // an insert without a victim) does not enter the identity.
    for (std::uint64_t i = 0; i < 2000; ++i) {
        buffer.insert(i);
        if (rng.chance(0.3))
            buffer.consume(rng.nextBelow(i + 1));
        if (rng.chance(0.1))
            buffer.invalidateOnWrite(rng.nextBelow(i + 1));
    }
    // Residency never exceeds capacity: inserted == consumed +
    // write-invalidated + evicted + still-resident, and resident
    // lines number at most `lines`.
    std::uint64_t resident = 0;
    for (LineAddr line = 0; line < 4096; ++line)
        resident += buffer.contains(line);
    EXPECT_LE(resident, lines);
    EXPECT_EQ(buffer.inserted(),
              buffer.consumed() + buffer.writeInvalidations() +
                  buffer.evictedUnused() + resident);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BufferSweep,
    testing::Values(std::pair<std::uint32_t, std::uint32_t>{8, 4},
                    std::pair<std::uint32_t, std::uint32_t>{16, 4},
                    std::pair<std::uint32_t, std::uint32_t>{32, 8},
                    std::pair<std::uint32_t, std::uint32_t>{1024, 16},
                    std::pair<std::uint32_t, std::uint32_t>{4, 1}));

// ---- ASD decision invariance across random training histories ----

class AsdDecisionSweep : public testing::TestWithParam<int>
{
};

/**
 * Property: after any training history, the facade's emitted
 * candidates for the k-th element of a fresh stream equal the raw
 * inequality (5)/(6) evaluated on its live LHTcurr.
 */
TEST_P(AsdDecisionSweep, FacadeMatchesRawInequality)
{
    AsdConfig config;
    config.epoch_reads = 100;
    config.lifetime_init = 200;
    config.lifetime_extend = 200;
    AsdPrefetcher pf(config);
    Rng rng(static_cast<std::uint64_t>(GetParam()));

    // Random training: two epochs of random-length streams.
    Cycle now = 0;
    for (int s = 0; s < 60; ++s) {
        now += 1000;
        pf.tick(now);
        const auto len = rng.nextInRange(1, 10);
        const LineAddr base = 1'000'000 + static_cast<LineAddr>(s) *
                                              10'000;
        for (LineAddr i = 0; i < len; ++i)
            pf.observeRead(base + i, 0, now);
    }
    now += 1000;
    pf.tick(now);

    // Probe a fresh stream and check each step against the table.
    const LineAddr probe = 500;
    for (LineAddr i = 0; i < 6; ++i) {
        const bool expect_prefetch =
            pf.lhtCurr(0, StreamDir::Positive)
                .shouldPrefetch(static_cast<std::size_t>(i) + 1);
        const auto out = pf.observeRead(probe + i, 0, now);
        EXPECT_EQ(!out.empty(), expect_prefetch) << "k=" << i + 1;
        if (!out.empty()) {
            EXPECT_EQ(out[0], probe + i + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsdDecisionSweep,
                         testing::Range(1, 9));

// ---- DRAM timing monotonicity across speed grades ----

class DramTimingSweep : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DramTimingSweep, SlowerTimingsNeverFinishEarlier)
{
    const std::uint32_t extra = GetParam();
    DramConfig fast;
    fast.refresh_enabled = false;
    DramConfig slow = fast;
    slow.t_rcd += extra;
    slow.t_cl += extra;
    slow.t_rp += extra;

    Dram dram_fast(fast);
    Dram dram_slow(slow);
    Rng rng(extra);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        const LineAddr line = rng.nextBelow(1 << 18);
        const bool is_write = rng.chance(0.2);
        const Cycle done_fast =
            dram_fast.issue(line, is_write, false, now);
        const Cycle done_slow =
            dram_slow.issue(line, is_write, false, now);
        EXPECT_GE(done_slow, done_fast);
        now += 30;
    }
}

INSTANTIATE_TEST_SUITE_P(SpeedGrades, DramTimingSweep,
                         testing::Values(1u, 2u, 4u, 8u));

// ---- whole-system configuration matrix ----

class SystemMatrix
    : public testing::TestWithParam<
          std::tuple<PrefetchMode, McPrefetcherKind, SchedulerKind>>
{
};

/**
 * Smoke + invariants across the full configuration matrix: every
 * combination must retire the whole trace deterministically with
 * physically sensible metrics.
 */
TEST_P(SystemMatrix, RunsToCompletionWithSaneMetrics)
{
    const auto [mode, mc_kind, sched] = GetParam();

    SyntheticConfig trace_config;
    trace_config.seed = 99;
    trace_config.total_accesses = 12000;
    trace_config.working_set_bytes = 128ULL << 20;
    trace_config.mean_gap = 5.0;
    trace_config.mean_touches_per_line = 6.0;
    trace_config.dependent_frac = 0.1;
    trace_config.concurrent_streams = 4;
    trace_config.phases = {
        PhaseProfile{{0.4, 0.3, 0.2, 0.3, 0.4, 0.5}, 0}};

    auto run = [&]() {
        SyntheticTraceGenerator trace(trace_config);
        SystemConfig config;
        config.mode = mode;
        config.mc_prefetcher = mc_kind;
        config.mc.scheduler = sched;
        System system(config, {&trace});
        return system.run();
    };
    const RunMetrics a = run();
    const RunMetrics b = run();

    EXPECT_EQ(a.accesses, 12000u);
    EXPECT_EQ(a.cycles, b.cycles); // determinism
    EXPECT_GT(a.cycles, 0u);
    EXPECT_GE(a.useful_prefetch_pct, 0.0);
    EXPECT_LE(a.useful_prefetch_pct, 100.0);
    EXPECT_LE(a.coverage_pct, 100.0);
    if (mode == PrefetchMode::NP || mode == PrefetchMode::PS) {
        EXPECT_EQ(a.ms_prefetches_issued, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SystemMatrix,
    testing::Combine(
        testing::Values(PrefetchMode::NP, PrefetchMode::PS,
                        PrefetchMode::MS, PrefetchMode::PMS),
        testing::Values(McPrefetcherKind::Asd,
                        McPrefetcherKind::NextLine,
                        McPrefetcherKind::P5Style,
                        McPrefetcherKind::Ghb,
                        McPrefetcherKind::Stride),
        testing::Values(SchedulerKind::Ahb, SchedulerKind::FrFcfs,
                        SchedulerKind::InOrder)));

} // namespace
} // namespace asd
