/**
 * @file
 * Tests for the OS memory model and the multi-tenant scenario
 * engine: FramePool CLOCK second-chance mechanics and dirty-victim
 * reporting, walker cost models (fixed radix walk vs chain-length
 * hashed probes), kernel fault/reclaim/shootdown accounting, tenant
 * mix determinism (two instances, and resume-from-snapshot), and the
 * system-level properties the subsystem must keep: OS off stays
 * bit-identical to the seed simulator, and OS-on runs are
 * deterministic and snapshot-splittable.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "os/frame_pool.hpp"
#include "os/kernel.hpp"
#include "os/os_mmu.hpp"
#include "os/page_walker.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "vm/tlb.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{
namespace
{

constexpr std::uint64_t kHash = 0x05edULL;

// --- frame pool ----------------------------------------------------

TEST(FramePool, HandsOutFreeFramesBeforeReclaiming)
{
    FramePool pool(4, 1);
    bool evicted = true;
    OsVictim victim;
    std::vector<std::uint64_t> pfns;
    for (std::uint64_t vpn = 0; vpn < 4; ++vpn) {
        pfns.push_back(pool.acquire(vpn, false, evicted, victim));
        EXPECT_FALSE(evicted);
    }
    EXPECT_EQ(pool.resident(), 4u);
    // All four frames were used, each exactly once.
    std::uint64_t mask = 0;
    for (const std::uint64_t pfn : pfns)
        mask |= 1ULL << pfn;
    EXPECT_EQ(mask, 0xFu);

    pool.acquire(99, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(pool.resident(), 4u);
}

TEST(FramePool, ClockGivesReferencedFramesASecondChance)
{
    FramePool pool(3, 7);
    bool evicted = false;
    OsVictim victim;
    std::vector<std::uint64_t> owner(3); // pfn -> vpn mapped there
    for (std::uint64_t vpn = 10; vpn < 13; ++vpn)
        owner[pool.acquire(vpn, false, evicted, victim)] = vpn;

    // Every frame is referenced, so the first reclaim sweeps the full
    // clock (clearing R everywhere) and evicts frame 0.
    const std::uint64_t pfn = pool.acquire(20, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(pfn, 0u);
    EXPECT_EQ(victim.key, owner[0]);

    // Re-referencing frame 1 buys it a second chance: the hand (now
    // at 1) clears its R bit and takes frame 2 instead.
    pool.markAccess(1, false);
    const std::uint64_t next = pool.acquire(21, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(next, 2u);
    EXPECT_EQ(victim.key, owner[2]);
}

TEST(FramePool, ReportsDirtyVictimsForWriteback)
{
    FramePool pool(1, 3);
    bool evicted = false;
    OsVictim victim;
    pool.acquire(1, true, evicted, victim); // dirtied at claim
    pool.acquire(2, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim.key, 1u);
    EXPECT_TRUE(victim.dirty);

    pool.acquire(3, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim.key, 2u);
    EXPECT_FALSE(victim.dirty);

    // A write touch after claim also dirties the page.
    pool.markAccess(0, true);
    pool.acquire(4, false, evicted, victim);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim.key, 3u);
    EXPECT_TRUE(victim.dirty);
}

TEST(FramePool, SnapshotRoundTripsByteIdentically)
{
    FramePool pool(8, 5);
    bool evicted = false;
    OsVictim victim;
    for (std::uint64_t vpn = 0; vpn < 11; ++vpn)
        pool.acquire(vpn, vpn % 3 == 0, evicted, victim);

    SnapshotWriter first;
    first.beginSection("pool");
    pool.saveState(first);
    first.endSection();
    const std::vector<std::uint8_t> bytes = first.finish(kHash);

    FramePool restored(8, 5);
    SnapshotReader reader(bytes);
    reader.openSection("pool");
    restored.loadState(reader);
    reader.endSection();

    SnapshotWriter second;
    second.beginSection("pool");
    restored.saveState(second);
    second.endSection();
    EXPECT_EQ(second.finish(kHash), bytes);

    // The restored pool evicts the same victim as the original.
    OsVictim a;
    OsVictim b;
    EXPECT_EQ(pool.acquire(osPageKey(1, 50), false, evicted, a),
              restored.acquire(osPageKey(1, 50), false, evicted, b));
    EXPECT_EQ(a.key, b.key);
}

// --- page walkers --------------------------------------------------

TEST(RadixWalker, ChargesFixedWalkOnHitAndMiss)
{
    RadixWalker walker(55);
    walker.map(osPageKey(0, 9), 4);
    std::uint64_t pfn = 0;
    Cycles cost = 0;
    EXPECT_TRUE(walker.lookup(osPageKey(0, 9), pfn, cost));
    EXPECT_EQ(pfn, 4u);
    EXPECT_EQ(cost, 55u);
    EXPECT_FALSE(walker.lookup(osPageKey(0, 10), pfn, cost));
    EXPECT_EQ(cost, 55u);
    // Tenants with the same vpn do not alias.
    EXPECT_FALSE(walker.lookup(osPageKey(1, 9), pfn, cost));
}

TEST(HashedWalker, ProbeCostGrowsWithChainDepth)
{
    // One bucket: every key collides, making chain depth explicit.
    HashedWalker walker(1, 10);
    walker.map(osPageKey(0, 1), 100);
    walker.map(osPageKey(0, 2), 200);
    walker.map(osPageKey(0, 3), 300);
    ASSERT_EQ(walker.mapped(), 3u);

    std::uint64_t pfn = 0;
    Cycles cost = 0;
    EXPECT_TRUE(walker.lookup(osPageKey(0, 1), pfn, cost));
    EXPECT_EQ(cost, 10u); // first chain entry
    EXPECT_TRUE(walker.lookup(osPageKey(0, 3), pfn, cost));
    EXPECT_EQ(pfn, 300u);
    EXPECT_EQ(cost, 30u); // third chain entry
    EXPECT_FALSE(walker.lookup(osPageKey(0, 4), pfn, cost));
    EXPECT_EQ(cost, 40u); // whole chain plus the anchor

    walker.unmap(osPageKey(0, 2));
    EXPECT_EQ(walker.mapped(), 2u);
    EXPECT_TRUE(walker.lookup(osPageKey(0, 3), pfn, cost));
    EXPECT_EQ(cost, 20u); // chain compacted behind the unmap
}

// --- kernel --------------------------------------------------------

OsConfig
testOs(std::uint64_t frames)
{
    OsConfig os;
    os.enabled = true;
    os.frames = frames;
    os.major_fault_frac = 0.0; // deterministic minor faults
    return os;
}

TEST(OsKernel, ChargesWalkPlusFaultThenWalkOnly)
{
    const OsConfig os = testOs(8);
    VmConfig vm;
    OsKernel kernel(os, vm);

    const OsTouchResult fault = kernel.touch(0, 0, 5, false);
    EXPECT_TRUE(fault.minor_fault);
    EXPECT_FALSE(fault.major_fault);
    EXPECT_EQ(fault.stall_cycles,
              vm.tlb.walk_cycles + os.minor_fault_cycles);

    const OsTouchResult hit = kernel.touch(0, 0, 5, false);
    EXPECT_FALSE(hit.minor_fault);
    EXPECT_EQ(hit.pfn, fault.pfn);
    EXPECT_EQ(hit.stall_cycles, vm.tlb.walk_cycles);
    EXPECT_EQ(kernel.minorFaults(), 1u);
    EXPECT_EQ(kernel.majorFaults(), 0u);
    EXPECT_EQ(kernel.pagesMapped(), 1u);
}

TEST(OsKernel, ReclaimShootsDownTlbAndForcesRefault)
{
    const OsConfig os = testOs(1); // every new page reclaims
    VmConfig vm;
    OsKernel kernel(os, vm);
    Tlb tlb(vm.tlb);
    kernel.registerTlb(0, &tlb);

    const OsTouchResult first = kernel.touch(0, 0, 1, true);
    tlb.insert(osPageKey(0, 1), first.pfn);

    // Faulting in a second page evicts the dirty first one: reclaim +
    // writeback are charged and the stale TLB entry is shot down.
    const OsTouchResult second = kernel.touch(0, 0, 2, false);
    EXPECT_TRUE(second.reclaimed);
    EXPECT_TRUE(second.wrote_back);
    EXPECT_EQ(second.stall_cycles,
              vm.tlb.walk_cycles + os.minor_fault_cycles +
                  os.reclaim_cycles + os.writeback_cycles);
    EXPECT_EQ(kernel.shootdowns(), 1u);
    EXPECT_FALSE(tlb.lookup(osPageKey(0, 1)).has_value());

    // The evicted page is gone from the table: touching it refaults.
    const OsTouchResult refault = kernel.touch(0, 0, 1, false);
    EXPECT_TRUE(refault.minor_fault);
    EXPECT_TRUE(refault.reclaimed);
    EXPECT_FALSE(refault.wrote_back); // victim page 2 was clean
    EXPECT_EQ(kernel.minorFaults(), 3u);
    EXPECT_EQ(kernel.reclaims(), 2u);
    EXPECT_EQ(kernel.writebacks(), 1u);
}

/** The same virtual page as seen by two SMT threads' MMUs. */
TEST(OsKernel, SmtThreadsFaultPrivately)
{
    const OsConfig os = testOs(8);
    VmConfig vm;
    OsKernel kernel(os, vm);
    OsMmu t0(vm, kernel, 0);
    OsMmu t1(vm, kernel, 1);
    MemAccess access;
    access.addr = 5 * vm.pageBytes();
    Cycles stall0 = 0;
    Cycles stall1 = 0;
    const Addr p0 = t0.translate(access, stall0);
    const Addr p1 = t1.translate(access, stall1);
    // Each thread runs its own process: the second touch faults too
    // and gets a frame of its own.
    EXPECT_EQ(kernel.minorFaults(), 2u);
    EXPECT_EQ(stall1, vm.tlb.walk_cycles + os.minor_fault_cycles);
    EXPECT_NE(p0 / vm.pageBytes(), p1 / vm.pageBytes());
}

TEST(OsKernel, ReclaimShootsDownOnlyTheOwnersTlb)
{
    const OsConfig os = testOs(1); // every new page reclaims
    VmConfig vm;
    OsKernel kernel(os, vm);
    OsMmu t0(vm, kernel, 0);
    OsMmu t1(vm, kernel, 1);
    const MemAccess access;
    Cycles stall = 0;
    t0.translate(access, stall);
    t1.translate(access, stall); // evicts thread 0's page
    EXPECT_EQ(kernel.shootdowns(), 1u);
    EXPECT_FALSE(t0.tlb().probe(osPageKey(0, 0)));
    EXPECT_TRUE(t1.tlb().probe(osPageKey(0, 0)));
}

TEST(OsKernel, SnapshotRestoreContinuesIdentically)
{
    OsConfig os = testOs(16);
    os.major_fault_frac = 0.3; // exercise the fault-kind RNG
    VmConfig vm;
    vm.walker = PageWalkerKind::Hashed;

    OsKernel kernel(os, vm);
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
        kernel.touch(0, static_cast<std::uint32_t>(vpn % 3), vpn / 3,
                     vpn % 5 == 0);

    SnapshotWriter writer;
    writer.beginSection("os");
    kernel.saveState(writer);
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    OsKernel restored(os, vm);
    SnapshotReader reader(bytes);
    reader.openSection("os");
    restored.loadState(reader);
    reader.endSection();

    for (std::uint64_t vpn = 64; vpn < 160; ++vpn) {
        const OsTouchResult a = kernel.touch(
            0, static_cast<std::uint32_t>(vpn % 3), vpn, false);
        const OsTouchResult b = restored.touch(
            0, static_cast<std::uint32_t>(vpn % 3), vpn, false);
        EXPECT_EQ(a.pfn, b.pfn);
        EXPECT_EQ(a.stall_cycles, b.stall_cycles);
        EXPECT_EQ(a.major_fault, b.major_fault);
    }
    EXPECT_EQ(kernel.stallCycles(), restored.stallCycles());
    EXPECT_EQ(kernel.majorFaults(), restored.majorFaults());
    EXPECT_EQ(kernel.reclaims(), restored.reclaims());
}

// --- tenant mix ----------------------------------------------------

SyntheticConfig
mixBase(std::uint64_t accesses)
{
    SyntheticConfig config;
    config.seed = 11;
    config.total_accesses = accesses;
    config.working_set_bytes = 16ULL << 20;
    config.mean_gap = 5.0;
    config.mean_touches_per_line = 6.0;
    config.write_frac = 0.25;
    config.concurrent_streams = 4;
    config.phases = {
        PhaseProfile{{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, 0}};
    return config;
}

TenantMixConfig
mixConfig(std::uint64_t lifetime = 2000)
{
    TenantMixConfig config;
    config.enabled = true;
    config.slots = 4;
    config.zipf_s = 1.0;
    config.mean_lifetime = lifetime;
    return config;
}

TEST(TenantMix, TwoInstancesEmitByteIdenticalStreams)
{
    const std::uint64_t total = 20000;
    TenantMixSource a(mixConfig(), mixBase(total), total);
    TenantMixSource b(mixConfig(), mixBase(total), total);
    MemAccess x;
    MemAccess y;
    std::uint64_t emitted = 0;
    bool multiple_spaces = false;
    while (a.next(x)) {
        ASSERT_TRUE(b.next(y));
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.gap, y.gap);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.space, y.space);
        multiple_spaces |= x.space != 0;
        ++emitted;
    }
    EXPECT_FALSE(b.next(y));
    EXPECT_EQ(emitted, total);
    EXPECT_TRUE(multiple_spaces);
    EXPECT_EQ(a.arrivals(), b.arrivals());
}

TEST(TenantMix, ChurnRefillsDepartedSlots)
{
    const std::uint64_t total = 40000;
    TenantMixSource mix(mixConfig(2000), mixBase(total), total);
    MemAccess access;
    while (mix.next(access))
        ;
    EXPECT_GT(mix.departures(), 0u);
    // Every departure was refilled by a fresh arrival on top of the
    // initial slot fill.
    EXPECT_EQ(mix.arrivals(), mix.activeTenants() + mix.departures());
}

TEST(TenantMix, SnapshotRestoreResumesMidMix)
{
    const std::uint64_t total = 30000;
    TenantMixSource straight(mixConfig(), mixBase(total), total);
    TenantMixSource source(mixConfig(), mixBase(total), total);
    MemAccess access;
    for (std::uint64_t i = 0; i < 9000; ++i) {
        ASSERT_TRUE(source.next(access));
        ASSERT_TRUE(straight.next(access));
    }

    SnapshotWriter writer;
    writer.beginSection("mix");
    source.saveState(writer);
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    TenantMixSource restored(mixConfig(), mixBase(total), total);
    SnapshotReader reader(bytes);
    reader.openSection("mix");
    restored.loadState(reader);
    reader.endSection();

    MemAccess a;
    MemAccess b;
    std::uint64_t remaining = 0;
    while (straight.next(a)) {
        ASSERT_TRUE(restored.next(b));
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.gap, b.gap);
        ASSERT_EQ(a.op, b.op);
        ASSERT_EQ(a.space, b.space);
        ++remaining;
    }
    EXPECT_FALSE(restored.next(b));
    EXPECT_EQ(remaining, total - 9000);
    EXPECT_EQ(straight.departures(), restored.departures());
}

// --- system level --------------------------------------------------

/**
 * OS off must stay bit-identical to the seed simulator. The golden
 * cycle count is pinned from the seed's milc @ 5000 accesses run; a
 * change here means the OS subsystem leaked into the default path.
 */
TEST(OsSystem, OffIsBitIdenticalToSeedGolden)
{
    RunOptions options;
    options.accesses = 5000;
    const RunMetrics metrics =
        runBenchmark(findBenchmark("milc"), options);
    EXPECT_EQ(metrics.cycles, 51085u);
    EXPECT_FALSE(metrics.os_enabled);
    EXPECT_EQ(metrics.os_minor_faults, 0u);
    EXPECT_FALSE(metrics.tenants_enabled);
}

SystemConfig
osSystemConfig()
{
    SystemConfig config;
    config.mode = PrefetchMode::PMS;
    config.os.enabled = true;
    config.os.frames = 128;
    return config;
}

TEST(OsSystem, RunsAreDeterministic)
{
    const SystemConfig config = osSystemConfig();
    const std::uint64_t total = 20000;
    RunMetrics first;
    RunMetrics second;
    for (RunMetrics *out : {&first, &second}) {
        TenantMixSource mix(mixConfig(), mixBase(total), total);
        System system(config, {&mix});
        *out = system.run();
        EXPECT_GT(system.osKernel()->minorFaults(), 0u);
        EXPECT_GT(system.osKernel()->reclaims(), 0u);
    }
    EXPECT_EQ(first, second);
}

TEST(OsSystem, RestoreThenRunMatchesStraightRun)
{
    SystemConfig config = osSystemConfig();
    config.vm.walker = PageWalkerKind::Hashed;
    const std::uint64_t total = 20000;

    TenantMixSource straight_mix(mixConfig(), mixBase(total), total);
    System straight(config, {&straight_mix});
    const RunMetrics expected = straight.run();

    TenantMixSource save_mix(mixConfig(), mixBase(total), total);
    System saver(config, {&save_mix});
    saver.runUntil(30000);
    SnapshotWriter writer;
    saver.saveSnapshot(writer);
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    TenantMixSource load_mix(mixConfig(), mixBase(total), total);
    System loader(config, {&load_mix});
    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    loader.loadSnapshot(reader);
    loader.runUntil(kNoCycle);

    EXPECT_EQ(loader.collectMetrics(), expected);
    EXPECT_EQ(loader.osKernel()->stallCycles(),
              straight.osKernel()->stallCycles());
    EXPECT_EQ(loader.osKernel()->shootdowns(),
              straight.osKernel()->shootdowns());
}

} // namespace
} // namespace asd
