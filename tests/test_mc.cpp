/**
 * @file
 * Tests for the memory controller: queue capacities, read completion,
 * writes, the two prefetch-buffer checks, demand/prefetch merging,
 * LPQ policy gating (the five policies of section 3.5), conflict
 * feedback, the three reorder-queue schedulers, and next-event
 * stepping (nextEventIn + skipQuietCycles) against per-cycle ticking.
 */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "mc/prefetcher_iface.hpp"
#include "mc/scheduler.hpp"

namespace asd
{
namespace
{

/** Scriptable fake prefetcher for driving the controller. */
class FakePrefetcher : public MemSidePrefetcher
{
  public:
    std::vector<LineAddr>
    observeRead(LineAddr line, std::uint32_t, Cycle) override
    {
        reads.push_back(line);
        auto out = next_candidates;
        next_candidates.clear();
        return out;
    }

    void observeWrite(LineAddr line, Cycle) override
    {
        writes.push_back(line);
    }

    bool
    lookupBuffer(LineAddr line) override
    {
        const auto it = buffer.find(line);
        if (it == buffer.end())
            return false;
        buffer.erase(it);
        ++consumed;
        return true;
    }

    bool bufferContains(LineAddr line) const override
    {
        return buffer.count(line) > 0;
    }

    void fillBuffer(LineAddr line, Cycle) override
    {
        buffer[line] = true;
        ++filled;
    }

    int schedulingPolicy() const override { return policy; }

    void notifyPrefetchConflict(Cycle) override { ++conflicts; }

    void tick(Cycle) override { ++ticks; }

    // Test double; never checkpointed.
    void snapshot(SnapshotIo &) override {}

    std::vector<LineAddr> next_candidates;
    std::vector<LineAddr> reads;
    std::vector<LineAddr> writes;
    std::map<LineAddr, bool> buffer;
    int policy = 5;
    int conflicts = 0;
    int consumed = 0;
    int filled = 0;
    std::uint64_t ticks = 0;
};

struct Harness
{
    explicit Harness(McConfig config = McConfig{}, bool refresh = false)
        : dram_config(makeDramConfig(refresh)),
          dram(dram_config),
          mc(config, dram,
             [this](std::uint64_t id, Cycle done) {
                 completions.emplace_back(id, done);
             })
    {}

    static DramConfig
    makeDramConfig(bool refresh)
    {
        DramConfig config;
        config.refresh_enabled = refresh;
        return config;
    }

    void
    runTo(Cycle end)
    {
        for (; now < end; ++now)
            mc.tick(now);
    }

    DramConfig dram_config;
    Dram dram;
    MemoryController mc;
    std::vector<std::pair<std::uint64_t, Cycle>> completions;
    Cycle now = 0;
};

TEST(Mc, ReadCompletesWithCallback)
{
    Harness h;
    ASSERT_TRUE(h.mc.enqueueRead(5, 77, 0, 0));
    h.runTo(2000);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].first, 77u);
    EXPECT_GT(h.completions[0].second, 0u);
    EXPECT_TRUE(h.mc.idle());
}

TEST(Mc, ReadLatencyIncludesOverheads)
{
    Harness h;
    h.mc.enqueueRead(5, 1, 0, 0);
    h.runTo(2000);
    const McConfig config;
    const Cycles floor = config.command_overhead +
                         config.return_overhead +
                         8 * (4 + 4 + 2); // tRCD+CL+burst
    EXPECT_GE(h.completions[0].second, floor);
}

TEST(Mc, ReadQueueCapacityEnforced)
{
    Harness h;
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(h.mc.enqueueRead(i * 64, i, 0, 0));
    EXPECT_FALSE(h.mc.canAcceptRead());
    EXPECT_FALSE(h.mc.enqueueRead(999, 99, 0, 0));
    h.runTo(5000);
    EXPECT_EQ(h.completions.size(), 8u);
}

TEST(Mc, WriteQueueCapacityEnforced)
{
    Harness h;
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(h.mc.enqueueWrite(i * 64, 0));
    EXPECT_FALSE(h.mc.canAcceptWrite());
    EXPECT_FALSE(h.mc.enqueueWrite(999, 0));
    h.runTo(5000);
    EXPECT_TRUE(h.mc.idle());
    EXPECT_EQ(h.dram.writes(), 8u);
    EXPECT_EQ(h.completions.size(), 0u); // writes are silent
}

TEST(Mc, BufferHitSquashesDramAccess)
{
    Harness h;
    FakePrefetcher pf;
    pf.buffer[42] = true;
    h.mc.attachPrefetcher(&pf);
    ASSERT_TRUE(h.mc.enqueueRead(42, 7, 0, 0));
    h.runTo(200);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].second, McConfig{}.buffer_hit_latency);
    EXPECT_EQ(h.dram.reads(), 0u);
    EXPECT_EQ(pf.consumed, 1);
    EXPECT_EQ(h.mc.bufferHits(), 1u);
}

TEST(Mc, StreamFilterObservesBufferHitsToo)
{
    Harness h;
    FakePrefetcher pf;
    pf.buffer[42] = true;
    h.mc.attachPrefetcher(&pf);
    h.mc.enqueueRead(42, 1, 0, 0);
    h.mc.enqueueRead(43, 2, 0, 0);
    ASSERT_EQ(pf.reads.size(), 2u); // both reads observed (Fig. 4)
}

TEST(Mc, PrefetchFillsBufferViaLpq)
{
    Harness h;
    FakePrefetcher pf;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {100};
    h.mc.enqueueRead(99, 1, 0, 0);
    h.runTo(3000);
    EXPECT_EQ(h.mc.prefetchesIssued(), 1u);
    EXPECT_EQ(pf.filled, 1);
    EXPECT_TRUE(pf.bufferContains(100));
}

TEST(Mc, DemandMergesOntoInFlightPrefetch)
{
    // Merging is a what-if ablation, off by default (DESIGN.md 6).
    McConfig config;
    config.merge_inflight_prefetch = true;
    Harness h(config);
    FakePrefetcher pf;
    h.mc.attachPrefetcher(&pf);
    // Prefetch targets a different bank so it issues immediately.
    pf.next_candidates = {200};
    h.mc.enqueueRead(99, 1, 0, 0);
    // Let the prefetch reach DRAM, then demand the same line while
    // the prefetch is still in flight.
    h.runTo(50);
    ASSERT_EQ(h.mc.prefetchesIssued(), 1u);
    ASSERT_TRUE(h.mc.enqueueRead(200, 2, 0, h.now));
    h.runTo(3000);
    EXPECT_EQ(h.mc.mergedWithPrefetch(), 1u);
    EXPECT_EQ(h.mc.prefetchesMergedUseful(), 1u);
    // The merged read completed; the prefetch never filled the buffer
    // (data forwarded).
    bool saw_id2 = false;
    for (const auto &[id, done] : h.completions)
        saw_id2 = saw_id2 || id == 2;
    EXPECT_TRUE(saw_id2);
    EXPECT_FALSE(pf.bufferContains(200));
    EXPECT_EQ(h.dram.reads(), 2u); // line 99 demand + line 200 prefetch
}

TEST(Mc, DemandCancelsQueuedLpqEntry)
{
    Harness h;

    FakePrefetcher pf;
    pf.policy = 1; // most conservative: LPQ blocked while MC busy
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {100};
    h.mc.enqueueRead(99, 1, 0, 0);
    // Do not tick: prefetch still waits in the LPQ.
    ASSERT_EQ(h.mc.lpqOccupancy(), 1u);
    h.mc.enqueueRead(100, 2, 0, 0);
    EXPECT_EQ(h.mc.lpqOccupancy(), 0u); // promoted to the demand read
    h.runTo(3000);
    EXPECT_EQ(h.completions.size(), 2u);
}

TEST(Mc, LpqDropsWhenFull)
{
    Harness h;
    FakePrefetcher pf;
    pf.policy = 1;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {100, 200, 300, 400, 500};
    h.mc.enqueueRead(99, 1, 0, 0);
    EXPECT_EQ(h.mc.lpqOccupancy(), 3u); // LPQ depth is 3
    EXPECT_EQ(h.mc.lpqDrops(), 2u);
}

TEST(Mc, DuplicatePrefetchCandidatesSkipped)
{
    Harness h;
    FakePrefetcher pf;
    pf.policy = 1;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {100, 100};
    h.mc.enqueueRead(99, 1, 0, 0);
    EXPECT_EQ(h.mc.lpqOccupancy(), 1u);
    EXPECT_EQ(h.mc.lpqDrops(), 0u);
}

TEST(Mc, NoMergingByDefaultDuplicatesTheRead)
{
    Harness h;
    FakePrefetcher pf;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {200};
    h.mc.enqueueRead(99, 1, 0, 0);
    h.runTo(50);
    ASSERT_EQ(h.mc.prefetchesIssued(), 1u);
    // Demand for the in-flight prefetched line re-fetches it (the
    // paper's controller has no MSHR merge), and the late prefetch
    // fills the buffer where it sits unused.
    ASSERT_TRUE(h.mc.enqueueRead(200, 2, 0, h.now));
    h.runTo(3000);
    EXPECT_EQ(h.mc.mergedWithPrefetch(), 0u);
    EXPECT_EQ(h.dram.reads(), 3u);
    EXPECT_TRUE(pf.bufferContains(200));
}

/** Policy 1: LPQ may only issue when the queues are empty. */
TEST(McPolicy, Policy1RequiresEmptyController)
{
    Harness h;
    FakePrefetcher pf;
    pf.policy = 1;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {1000};
    for (std::uint64_t i = 0; i < 8; ++i)
        h.mc.enqueueRead(i * 64, i, 0, 0);
    // The reorder queues and CAQ stay occupied for the first cycles
    // (one move per cycle); the prefetch must hold back.
    h.runTo(4);
    EXPECT_EQ(h.mc.prefetchesIssued(), 0u);
    h.runTo(5000);
    EXPECT_EQ(h.mc.prefetchesIssued(), 1u); // issues once empty
    EXPECT_EQ(h.completions.size(), 8u);
}

/** Policy 5: LPQ issues by timestamp order against the CAQ head. */
TEST(McPolicy, Policy5IssuesByTimestamp)
{
    Harness h;
    FakePrefetcher pf;
    pf.policy = 5;
    h.mc.attachPrefetcher(&pf);
    pf.next_candidates = {1000};
    h.mc.enqueueRead(0, 1, 0, 0);
    // The prefetch (same timestamp era) issues promptly even though
    // regular work is present.
    h.runTo(300);
    EXPECT_EQ(h.mc.prefetchesIssued(), 1u);
}

TEST(McPolicy, ConflictFeedbackFires)
{
    Harness h;
    FakePrefetcher pf;
    pf.policy = 5;
    h.mc.attachPrefetcher(&pf);
    // Prefetch to line 1000; then a demand read to the same bank and
    // row (line 1001) that must wait for the prefetch-busy bank.
    pf.next_candidates = {1000};
    h.mc.enqueueRead(999, 1, 0, 0);
    h.mc.tick(h.now++); // move demand to CAQ
    h.mc.tick(h.now++); // issue prefetch or demand
    h.runTo(20);
    h.mc.enqueueRead(1001, 2, 0, h.now);
    h.runTo(4000);
    EXPECT_GE(static_cast<std::uint64_t>(pf.conflicts) +
                  h.mc.regularsDelayed(),
              0u);
    EXPECT_EQ(h.completions.size(), 2u);
}

TEST(McPolicy, PrefetcherTickedEveryCycle)
{
    Harness h;
    FakePrefetcher pf;
    h.mc.attachPrefetcher(&pf);
    h.runTo(50);
    EXPECT_EQ(pf.ticks, 50u);
}

// ---- next-event stepping ----

/** A FakePrefetcher whose tick() never changes state. */
class QuietPrefetcher : public FakePrefetcher
{
  public:
    Cycle nextTickDue(Cycle) const override { return kNoCycle; }
};

/**
 * The same controller twice: `ticked` ticks every cycle, `stepped`
 * only at nextEventIn() and adds the quiet cycles between in closed
 * form with skipQuietCycles(). Every input goes to both.
 */
struct SteppingPair
{
    explicit SteppingPair(McConfig config = McConfig{},
                          bool refresh = false)
        : ticked(config, refresh), stepped(config, refresh)
    {
        ticked.mc.registerStats(ticked_stats, "mc");
        ticked.dram.registerStats(ticked_stats);
        stepped.mc.registerStats(stepped_stats, "mc");
        stepped.dram.registerStats(stepped_stats);
    }

    void
    attachPrefetchers(int policy)
    {
        ticked_pf.policy = stepped_pf.policy = policy;
        ticked.mc.attachPrefetcher(&ticked_pf);
        stepped.mc.attachPrefetcher(&stepped_pf);
    }

    void
    enqueueRead(LineAddr line, std::uint64_t id,
                std::vector<LineAddr> candidates = {})
    {
        ticked_pf.next_candidates = stepped_pf.next_candidates =
            candidates;
        ASSERT_TRUE(ticked.mc.enqueueRead(line, id, 0, ticked.now));
        ASSERT_TRUE(stepped.mc.enqueueRead(line, id, 0, stepped.now));
    }

    void
    runTo(Cycle end)
    {
        ticked.runTo(end);
        while (stepped.now < end) {
            stepped.mc.tick(stepped.now);
            const Cycles next = std::min(
                stepped.mc.nextEventIn(stepped.now), end - stepped.now);
            stepped.mc.skipQuietCycles(stepped.now, next - 1);
            skipped += next - 1;
            stepped.now += next;
        }
    }

    static std::vector<std::uint8_t>
    bytesOf(const Harness &h)
    {
        SnapshotWriter writer;
        writer.beginSection("mc");
        h.mc.saveState(writer);
        writer.endSection();
        writer.beginSection("dram");
        h.dram.saveState(writer);
        writer.endSection();
        return writer.finish(0);
    }

    void
    expectSame() const
    {
        EXPECT_EQ(stepped.now, ticked.now);
        EXPECT_EQ(stepped.completions, ticked.completions);
        EXPECT_EQ(stepped_stats.dump(), ticked_stats.dump());
        EXPECT_TRUE(bytesOf(stepped) == bytesOf(ticked))
            << "snapshot bytes differ at cycle " << ticked.now;
    }

    Harness ticked;
    Harness stepped;
    QuietPrefetcher ticked_pf;
    QuietPrefetcher stepped_pf;
    StatRegistry ticked_stats;
    StatRegistry stepped_stats;
    Cycles skipped = 0; //!< cycles `stepped` did not tick
};

TEST(McStepping, HeadBlockedBehindPrefetchCountsEveryCycle)
{
    SteppingPair p;
    p.attachPrefetchers(5);
    // The read to 999 takes the bank first; the prefetch of 1000
    // (same bank) issues once it frees, and the read to 1001 then
    // waits at the CAQ head behind the prefetch-occupied bank.
    p.enqueueRead(999, 1, {1000});
    p.runTo(110);
    ASSERT_EQ(p.ticked.mc.prefetchesIssued(), 1u);
    p.enqueueRead(1001, 2);
    const Cycles before = p.skipped;
    p.runTo(150); // inside the blocked window
    EXPECT_GT(p.skipped - before, 10u);
    p.expectSame();
    p.runTo(4000);
    p.expectSame();
    EXPECT_GT(p.ticked_stats.value("mc.prefetch_conflict_events"), 20u);
    EXPECT_EQ(p.ticked.mc.regularsDelayed(), 1u);
    EXPECT_EQ(p.stepped_pf.conflicts, 1);
}

TEST(McStepping, RefreshBlockedRankWaitsInOneStep)
{
    SteppingPair p(McConfig{}, true);
    const Dram &dram = p.ticked.dram;
    const DramConfig &config = p.ticked.dram_config;
    // The first read lands on the refresh deadline, so the rank is
    // blocked for tRFC; the second targets another bank of that rank.
    const Cycle deadline = Cycle{config.t_refi} * config.cpu_per_dram_clk;
    const LineAddr first = 0;
    LineAddr second = 1;
    while (dram.decode(second).bank == dram.decode(first).bank ||
           dram.decode(second).rank != dram.decode(first).rank)
        ++second;
    p.runTo(deadline - McConfig{}.command_overhead);
    p.enqueueRead(first, 1);
    p.runTo(p.ticked.now + 2);
    p.enqueueRead(second, 2);
    p.runTo(p.ticked.now + 1);
    ASSERT_FALSE(dram.canIssue(second, p.ticked.now));
    ASSERT_LE(dram.bankReadyAt(second), p.ticked.now);
    // Stop short of the refresh window's end, so that the stepped
    // controller has to find that cycle itself.
    const Cycle window_end = dram.issuableAt(second);
    ASSERT_GT(window_end, p.ticked.now + 150);
    const Cycles before = p.skipped;
    p.runTo(window_end - 1);
    EXPECT_GT(p.skipped - before, 150u);
    p.expectSame();
    p.runTo(deadline + 4000);
    p.expectSame();
    EXPECT_EQ(p.ticked.dram.refreshes(), 1u);
    EXPECT_EQ(p.ticked.completions.size(), 2u);
}

TEST(McStepping, MemorylessNotReadyPickWaitsForItsBank)
{
    McConfig config;
    config.scheduler = SchedulerKind::Memoryless;
    SteppingPair p(config);
    p.enqueueRead(0, 1);
    p.runTo(2); // the read is now occupying its bank
    p.enqueueRead(1, 2); // same bank: a not-ready pick
    p.runTo(12);
    p.expectSame();
    // Stop short of the bank's ready cycle, so that the stepped
    // controller has to find that cycle itself.
    const Cycles before = p.skipped;
    p.runTo(p.ticked.dram.issuableAt(1) - 1);
    EXPECT_EQ(p.ticked.mc.readQOccupancy(), 1u);
    EXPECT_GT(p.skipped - before, 20u);
    p.expectSame();
    p.runTo(4000);
    p.expectSame();
    EXPECT_EQ(p.ticked.completions.size(), 2u);
}

// ---- reorder-queue schedulers ----

std::deque<McCommand>
makeQueue(std::initializer_list<std::pair<LineAddr, Cycle>> items,
          bool is_write = false)
{
    std::deque<McCommand> queue;
    for (const auto &[line, at] : items) {
        McCommand cmd;
        cmd.line = line;
        cmd.enqueued_at = at;
        cmd.is_write = is_write;
        queue.push_back(cmd);
    }
    return queue;
}

TEST(Scheduler, InOrderPicksOldestAcrossQueues)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    InOrderScheduler sched;
    const auto reads = makeQueue({{0, 10}, {64, 11}});
    const auto writes = makeQueue({{128, 5}}, true);
    const auto pick = sched.pick(reads, writes, dram, 20, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(pick->from_write_queue);
    EXPECT_EQ(pick->index, 0u);
}

TEST(Scheduler, InOrderEmptyReturnsNothing)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    InOrderScheduler sched;
    EXPECT_FALSE(sched.pick({}, {}, dram, 0, false).has_value());
}

TEST(Scheduler, MemorylessPrefersIssuableRead)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    // Make bank of line 0 busy.
    dram.issue(0, false, false, 0);
    MemorylessScheduler sched;
    const auto reads = makeQueue({{1, 1}, {64, 2}});
    const auto pick = sched.pick(reads, {}, dram, 1, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_FALSE(pick->from_write_queue);
    EXPECT_EQ(pick->index, 1u); // line 64: different, free bank
    EXPECT_TRUE(pick->ready);
}

TEST(Scheduler, MemorylessFallsBackToOldestTaggedNotReady)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    dram.issue(0, false, false, 0);
    MemorylessScheduler sched;
    const auto reads = makeQueue({{1, 7}}); // only a busy-bank read
    const auto pick = sched.pick(reads, {}, dram, 1, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, 0u);
    // Nothing issuable: the fallback is a preference only, and moving
    // it into the FIFO CAQ would head-of-line block ready commands.
    EXPECT_FALSE(pick->ready);
}

TEST(Mc, MemorylessHoldsBusyBankReadInReorderQueue)
{
    McConfig config;
    config.scheduler = SchedulerKind::Memoryless;
    Harness h(config);
    ASSERT_TRUE(h.mc.enqueueRead(0, 1, 0, 0));
    h.runTo(2); // the read is now occupying its bank
    h.mc.resetQueueHighWater();
    // Same bank as the in-flight read: not issuable right now.
    ASSERT_TRUE(h.mc.enqueueRead(1, 2, 0, h.now));
    h.runTo(h.now + 10);
    // The not-ready fallback must stay in the read reorder queue
    // (schedulable) instead of being parked in the FIFO CAQ.
    EXPECT_EQ(h.mc.readQOccupancy(), 1u);
    EXPECT_EQ(h.mc.caqHighWater(), 0u);
    h.runTo(4000);
    EXPECT_EQ(h.completions.size(), 2u);
    EXPECT_TRUE(h.mc.idle());
}

TEST(Scheduler, AhbAvoidsRecentlyUsedBank)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    AhbScheduler sched;
    McCommand issued;
    issued.line = 0;
    sched.notifyIssued(issued, dram);
    // Candidate on bank of line 0 vs a fresh bank; both idle.
    const auto reads = makeQueue({{1, 1}, {64, 2}});
    const auto pick = sched.pick(reads, {}, dram, 100, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, 1u);
}

TEST(Scheduler, AhbTieBreakPicksOlderRegardlessOfQueueOrder)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    AhbScheduler sched;
    // Two reads on distinct idle banks, no issue history: exactly
    // equal cost. With integer fixed-point cost the tie is exact and
    // the older command must win in either iteration order.
    const auto old_first = makeQueue({{64, 5}, {128, 9}});
    const auto young_first = makeQueue({{128, 9}, {64, 5}});

    auto pick = sched.pick(old_first, {}, dram, 100, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(old_first[pick->index].enqueued_at, 5u);

    pick = sched.pick(young_first, {}, dram, 100, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(young_first[pick->index].enqueued_at, 5u);
}

TEST(Scheduler, AhbTieBreakIsExactAcrossQueues)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    AhbScheduler sched;
    // While draining, a write carries no penalty; with no history the
    // costs tie exactly, so the older write beats the younger read.
    const auto reads = makeQueue({{64, 9}});
    const auto writes = makeQueue({{128, 5}}, true);
    const auto pick = sched.pick(reads, writes, dram, 100, true);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(pick->from_write_queue);
}

TEST(Scheduler, AhbPrefersReadsUnderLowWritePressure)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    AhbScheduler sched;
    const auto reads = makeQueue({{64, 10}});
    const auto writes = makeQueue({{128, 1}}, true);
    const auto pick = sched.pick(reads, writes, dram, 20, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_FALSE(pick->from_write_queue);
}

TEST(Scheduler, FrFcfsPrefersReadyRowHit)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    // Open row 0 of bank 0, then let the bank become ready again.
    const Cycle done = dram.issue(0, false, false, 0);
    FrFcfsScheduler sched;
    // Candidates: line 1 (row hit in bank 0), line 64 (closed bank).
    const auto reads = makeQueue({{64, 1}, {1, 9}});
    const auto pick = sched.pick(reads, {}, dram, done + 100, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, 1u); // the younger row hit wins
}

TEST(Scheduler, FrFcfsFallsBackToOldestReady)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    FrFcfsScheduler sched;
    // No open rows anywhere: oldest ready command wins.
    const auto reads = makeQueue({{64, 5}, {128, 2}});
    const auto pick = sched.pick(reads, {}, dram, 10, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, 1u); // enqueued_at 2 < 5
}

TEST(Scheduler, FrFcfsPicksOldestWhenNothingReady)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    dram.issue(0, false, false, 0);
    dram.issue(64, false, false, 0);
    FrFcfsScheduler sched;
    const auto reads = makeQueue({{1, 8}, {65, 3}});
    const auto pick = sched.pick(reads, {}, dram, 1, false);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, 1u);
}

TEST(Scheduler, FactoryProducesAllKinds)
{
    EXPECT_NE(makeScheduler(SchedulerKind::InOrder), nullptr);
    EXPECT_NE(makeScheduler(SchedulerKind::Memoryless), nullptr);
    EXPECT_NE(makeScheduler(SchedulerKind::Ahb), nullptr);
    EXPECT_NE(makeScheduler(SchedulerKind::FrFcfs), nullptr);
}

} // namespace
} // namespace asd
