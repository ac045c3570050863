/**
 * @file
 * Tests for VM mode: frame-allocation policies and their determinism,
 * first-touch mapping through the kernel over the allocator, private
 * per-thread mappings, TLB hit/miss/eviction accounting, huge-page
 * coalescing, and the two system-level
 * properties the subsystem exists for — VM off is bit-identical to
 * the untranslated simulator, and random 4 KB placement measurably
 * shortens the physical streams ASD observes.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.hpp"
#include "core/asd_prefetcher.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "os/os_mmu.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "vm/frame_allocator.hpp"
#include "vm/tlb.hpp"

namespace asd
{
namespace
{

VmConfig
baseVm()
{
    VmConfig vm;
    vm.enabled = true;
    vm.policy = FrameAllocPolicy::Identity;
    vm.page_bytes = 4096;
    vm.phys_bytes = 1ULL << 32;
    return vm;
}

TEST(FrameAllocator, IdentityMapsPageToSameFrame)
{
    FrameAllocator alloc(baseVm());
    EXPECT_EQ(alloc.allocate(0), 0u);
    EXPECT_EQ(alloc.allocate(1234), 1234u);
    // Identity wraps at the physical frame count.
    const std::uint64_t frames = baseVm().frames();
    EXPECT_EQ(alloc.allocate(frames + 7), 7u);
    EXPECT_EQ(alloc.allocated(), 3u);
}

TEST(FrameAllocator, SequentialBumpsFrames)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    FrameAllocator alloc(vm);
    EXPECT_EQ(alloc.allocate(900), 0u);
    EXPECT_EQ(alloc.allocate(17), 1u);
    EXPECT_EQ(alloc.allocate(900), 2u);
}

TEST(FrameAllocator, RandomShuffleIsDeterministicForSeed)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::RandomShuffle;
    vm.seed = 99;
    FrameAllocator a(vm);
    FrameAllocator b(vm);
    std::vector<std::uint64_t> first;
    bool any_different_seed_diff = false;
    vm.seed = 100;
    FrameAllocator c(vm);
    for (std::uint64_t vpn = 0; vpn < 2000; ++vpn) {
        const std::uint64_t fa = a.allocate(vpn);
        EXPECT_EQ(fa, b.allocate(vpn));
        any_different_seed_diff |= fa != c.allocate(vpn);
        first.push_back(fa);
    }
    EXPECT_TRUE(any_different_seed_diff);
    // Frames are handed out without duplicates.
    std::sort(first.begin(), first.end());
    EXPECT_EQ(std::adjacent_find(first.begin(), first.end()),
              first.end());
}

TEST(FrameAllocator, ExhaustionIsFatal)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    vm.phys_bytes = 4 * vm.page_bytes; // 4 frames
    FrameAllocator alloc(vm);
    for (std::uint64_t vpn = 0; vpn < 4; ++vpn)
        alloc.allocate(vpn);
    EXPECT_EXIT(alloc.allocate(4), testing::ExitedWithCode(1),
                "out of physical frames");
}

/** A read of virtual byte address @p addr. */
MemAccess
readOf(Addr addr)
{
    MemAccess access;
    access.addr = addr;
    return access;
}

/** Physical address of @p vaddr as @p mmu translates it. */
Addr
paddrOf(OsMmu &mmu, Addr vaddr)
{
    Cycles walk = 0;
    return mmu.translate(readOf(vaddr), walk);
}

TEST(VmKernel, FirstTouchAllocatesThenStable)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    OsKernel kernel(OsConfig{}, vm);
    OsMmu mmu(vm, kernel, 0);
    const Addr f0 = paddrOf(mmu, 42 * 4096);
    const Addr f1 = paddrOf(mmu, 7 * 4096);
    EXPECT_NE(f0, f1);
    // Repeats hit the existing mapping: no new pages.
    EXPECT_EQ(paddrOf(mmu, 42 * 4096), f0);
    EXPECT_EQ(paddrOf(mmu, 7 * 4096), f1);
    EXPECT_EQ(kernel.pagesMapped(), 2u);
    // VM mode charges no fault of any kind.
    EXPECT_EQ(kernel.minorFaults() + kernel.majorFaults(), 0u);
    EXPECT_EQ(kernel.residentPages(), 0u);
}

TEST(VmKernel, ThreadsGetPrivateMappings)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    OsKernel kernel(OsConfig{}, vm);
    OsMmu t0(vm, kernel, 0);
    OsMmu t1(vm, kernel, 1);
    // Same vpn, different address spaces -> different frames.
    EXPECT_NE(paddrOf(t0, 5 * 4096), paddrOf(t1, 5 * 4096));
    EXPECT_EQ(kernel.pagesMapped(), 2u);
}

TEST(Tlb, CountsHitsMissesAndEvictions)
{
    TlbConfig config;
    config.entries = 4;
    config.ways = 2; // 2 sets; even vpns all land in set 0
    Tlb tlb(config);

    EXPECT_FALSE(tlb.lookup(0).has_value());
    tlb.insert(0, 100);
    EXPECT_FALSE(tlb.lookup(2).has_value());
    tlb.insert(2, 102);
    ASSERT_TRUE(tlb.lookup(0).has_value());
    EXPECT_EQ(*tlb.lookup(0), 100u);

    // Set 0 is full; vpn 2 is now LRU and must be the victim.
    tlb.insert(4, 104);
    EXPECT_EQ(tlb.evictions(), 1u);
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));

    EXPECT_EQ(tlb.hits(), 2u);   // the two lookups of vpn 0
    EXPECT_EQ(tlb.misses(), 2u); // vpn 0 and vpn 2 cold misses
}

TEST(Tlb, RejectsNonDividingWays)
{
    TlbConfig config;
    config.entries = 8;
    config.ways = 3;
    EXPECT_EXIT(Tlb{config}, testing::ExitedWithCode(1),
                "ways must divide");
}

TEST(VmKernel, ChargesWalkOnMissOnly)
{
    VmConfig vm = baseVm();
    vm.tlb.walk_cycles = 25;
    OsKernel kernel(OsConfig{}, vm);
    OsMmu mmu(vm, kernel, 0);

    Cycles walk = 0;
    const Addr paddr = mmu.translate(readOf(4096 + 123), walk);
    EXPECT_EQ(walk, 25u);
    EXPECT_EQ(paddr, 4096u + 123u); // identity keeps the address

    walk = 99;
    EXPECT_EQ(mmu.translate(readOf(4096 + 200), walk), 4096u + 200u);
    EXPECT_EQ(walk, 0u); // same page -> TLB hit
    EXPECT_EQ(mmu.stallCycles(), 25u);
    EXPECT_EQ(mmu.tlb().hits(), 1u);
    EXPECT_EQ(mmu.tlb().misses(), 1u);
}

TEST(VmKernel, HugePagesCoalesceTranslations)
{
    VmConfig small = baseVm();
    small.policy = FrameAllocPolicy::RandomShuffle;
    VmConfig huge = baseVm();
    huge.policy = FrameAllocPolicy::HugePage;

    OsKernel small_kernel(OsConfig{}, small);
    OsKernel huge_kernel(OsConfig{}, huge);
    OsMmu small_mmu(small, small_kernel, 0);
    OsMmu huge_mmu(huge, huge_kernel, 0);

    // Touch one 4 KB page in each of 64 consecutive 32 KB strides:
    // all inside a single 2 MB region.
    for (Addr addr = 0; addr < (2ULL << 20); addr += 32 * 1024) {
        paddrOf(small_mmu, addr);
        paddrOf(huge_mmu, addr);
    }
    EXPECT_EQ(huge_kernel.pagesMapped(), 1u);
    EXPECT_EQ(small_kernel.pagesMapped(), 64u);
    EXPECT_EQ(huge_mmu.tlb().misses(), 1u);
    EXPECT_EQ(small_mmu.tlb().misses(), 64u);

    // Contiguity inside the huge page is preserved even though the
    // huge frame itself is placed randomly.
    const Addr base = paddrOf(huge_mmu, 0);
    EXPECT_EQ(paddrOf(huge_mmu, 4096), base + 4096);
}

/**
 * The seed-compatibility contract: a disabled VM layer must leave
 * every metric bit-identical to the pre-VM simulator, and an identity
 * mapping with free page walks only adds the (then all-hit-free) TLB
 * accounting without perturbing timing or traffic.
 */
TEST(VmSystem, DisabledAndFreeIdentityMatchBaseline)
{
    RunOptions off;
    off.accesses = 20000;

    RunOptions identity = off;
    identity.vm = baseVm();
    identity.vm.tlb.walk_cycles = 0;

    const Benchmark bench = findBenchmark("bwaves");
    const RunMetrics m_off = runBenchmark(bench, off);
    RunMetrics m_vm = runBenchmark(bench, identity);

    EXPECT_FALSE(m_off.vm_enabled);
    EXPECT_TRUE(m_vm.vm_enabled);
    EXPECT_GT(m_vm.pages_mapped, 0u);
    EXPECT_GT(m_vm.tlb_hits, 0u);

    // Blank out the VM-only counters; everything else must agree
    // exactly (cycles, power doubles, all traffic counters).
    m_vm.vm_enabled = false;
    m_vm.tlb_hits = 0;
    m_vm.tlb_misses = 0;
    m_vm.tlb_evictions = 0;
    m_vm.page_walk_cycles = 0;
    m_vm.pages_mapped = 0;
    EXPECT_EQ(m_vm, m_off);
}

TEST(VmSystem, RunsAreDeterministic)
{
    RunOptions options;
    options.accesses = 10000;
    options.vm = baseVm();
    options.vm.policy = FrameAllocPolicy::RandomShuffle;
    const Benchmark bench = findBenchmark("tpcc");
    EXPECT_EQ(runBenchmark(bench, options),
              runBenchmark(bench, options));
}

double
histMean(const Histogram &hist)
{
    double sum = 0.0;
    for (std::uint64_t len = 1; len <= hist.buckets(); ++len)
        sum += static_cast<double>(len) *
               static_cast<double>(hist.count(len));
    return sum / static_cast<double>(hist.total());
}

double
meanStreamLength(const VmConfig &vm)
{
    SyntheticConfig trace_config;
    trace_config.seed = 7;
    trace_config.total_accesses = 40000;
    trace_config.working_set_bytes = 512ULL << 20;
    trace_config.mean_gap = 4.0;
    trace_config.write_frac = 0.1;
    trace_config.concurrent_streams = 4;
    std::vector<double> weights(16, 0.0);
    weights[15] = 1.0; // all streams 16 lines = 2 KB
    trace_config.phases = {PhaseProfile{weights, 0}};

    RunOptions options;
    options.vm = vm;
    SyntheticTraceGenerator trace(trace_config);
    System system(makeSystemConfig(options), {&trace});
    system.run();
    return histMean(system.asd()->streamLengthHist());
}

/**
 * The paper-level point of the subsystem: ASD sees physical streams,
 * and random 4 KB frame placement breaks a 2 KB virtual stream at
 * roughly every other page boundary, while identity placement keeps
 * it intact. The gap must be clearly measurable.
 */
TEST(VmSystem, Random4kShortensPhysicalStreams)
{
    const double identity = meanStreamLength(baseVm());
    VmConfig random = baseVm();
    random.policy = FrameAllocPolicy::RandomShuffle;
    const double shuffled = meanStreamLength(random);

    // Interleaving of the 4 concurrent streams already fragments a
    // little, so identity lands around ~9 rather than a full 16.
    EXPECT_GT(identity, 8.0);
    EXPECT_LT(shuffled, 0.75 * identity);
}

} // namespace
} // namespace asd
