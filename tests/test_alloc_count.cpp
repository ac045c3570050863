/**
 * @file
 * Heap allocations on the hot paths. This executable replaces the
 * global operator new with a counting one, which is why it is a test
 * binary of its own; only allocations inside a measured window count.
 *
 * The pins: a check that passes (panicIfNot, checkThat, the snapshot
 * reader's bounds checks) allocates nothing, so random draws allocate
 * nothing, a snapshot field costs no allocation beyond the image's
 * vector growth, a reader never copies the image it parses, cache
 * writebacks reuse their buffers, and a whole run allocates well
 * under one block per simulated access. Building a check's message
 * eagerly costs one allocation per call and fails every pin here.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "common/random.hpp"
#include "snapshot/snapshot.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0}; //!< bytes of the largest block

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        std::size_t largest = g_largest.load(std::memory_order_relaxed);
        while (size > largest &&
               !g_largest.compare_exchange_weak(
                   largest, size, std::memory_order_relaxed)) {
        }
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

/** Allocations made while @p body runs. */
template <typename Body>
std::uint64_t
allocationsIn(Body &&body)
{
    g_allocations.store(0);
    g_largest.store(0);
    g_counting.store(true);
    body();
    g_counting.store(false);
    return g_allocations.load();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace asd
{
namespace
{

std::vector<int> g_sink; //!< escapes, so its allocations stay

TEST(AllocCount, CounterSeesAllocations)
{
    const std::uint64_t n = allocationsIn([] {
        g_sink.reserve(3);
        g_sink.reserve(300);
    });
    EXPECT_EQ(n, 2u);
}

TEST(AllocCount, RandomDrawsAllocateNothing)
{
    Rng rng(42);
    std::uint64_t sum = 0;
    const std::uint64_t n = allocationsIn([&] {
        for (std::uint64_t i = 0; i < 100'000; ++i) {
            sum += rng.nextBelow(1 + i % 1000);
            sum += rng.nextInRange(i, i + 7);
        }
    });
    EXPECT_EQ(n, 0u);
    EXPECT_NE(sum, 0u);
}

TEST(AllocCount, SnapshotFieldsAllocateOnlyForGrowth)
{
    constexpr std::uint64_t kFields = 100'000;
    // Growth of an 8 * kFields byte vector by doubling takes about
    // log2(8 * kFields) ~ 20 reallocations; twice that leaves room
    // for the framing while staying far below one per field.
    const std::uint64_t bound =
        2 * static_cast<std::uint64_t>(std::log2(8.0 * kFields));

    std::vector<std::uint8_t> image;
    const std::uint64_t written = allocationsIn([&] {
        SnapshotWriter writer;
        writer.beginSection("fields");
        for (std::uint64_t i = 0; i < kFields; ++i)
            writer.u64(i * 0x9e3779b97f4a7c15ULL);
        writer.endSection();
        image = writer.finish(7);
    });
    EXPECT_LE(written, bound);

    std::uint64_t mismatches = 0;
    const std::uint64_t read = allocationsIn([&] {
        SnapshotReader reader(std::move(image));
        reader.openSection("fields");
        for (std::uint64_t i = 0; i < kFields; ++i)
            mismatches += reader.u64() != i * 0x9e3779b97f4a7c15ULL;
        reader.endSection();
    });
    EXPECT_LE(read, bound);
    EXPECT_EQ(mismatches, 0u);
    std::printf("snapshot of %llu u64 fields: %llu allocations to "
                "write, %llu to read (bound %llu)\n",
                static_cast<unsigned long long>(kFields),
                static_cast<unsigned long long>(written),
                static_cast<unsigned long long>(read),
                static_cast<unsigned long long>(bound));
}

TEST(AllocCount, ReadersNeverCopyTheImage)
{
    constexpr std::uint64_t kFields = 100'000;
    SnapshotWriter writer;
    writer.beginSection("fields");
    for (std::uint64_t i = 0; i < kFields; ++i)
        writer.u64(i);
    writer.endSection();
    std::vector<std::uint8_t> image = writer.finish(7);
    // The section index is the largest block a reader may need.
    constexpr std::size_t kIndexBytes = 1024;
    ASSERT_GT(image.size(), 100 * kIndexBytes);

    const auto readAll = [](SnapshotReader &reader) {
        reader.openSection("fields");
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < kFields; ++i)
            sum += reader.u64();
        reader.endSection();
        return sum;
    };
    const std::uint64_t want = kFields * (kFields - 1) / 2;
    std::uint64_t borrowed = 0;
    allocationsIn([&] {
        SnapshotReader reader(image);
        borrowed = readAll(reader);
    });
    EXPECT_LT(g_largest.load(), kIndexBytes) << "borrowing reader";
    EXPECT_EQ(borrowed, want);

    std::uint64_t owned = 0;
    allocationsIn([&] {
        SnapshotReader reader(std::move(image));
        owned = readAll(reader);
    });
    EXPECT_LT(g_largest.load(), kIndexBytes) << "owning reader";
    EXPECT_EQ(owned, want);
}

TEST(AllocCount, SteadyStateWritebacksReuseTheirBuffers)
{
    // A small hierarchy, so that stores over a wide range evict dirty
    // lines out of the L3 all the time.
    HierarchyConfig config;
    config.l1 = {2 * 128, 2, 128};
    config.l2 = {8 * 128, 2, 128};
    config.l3 = {16 * 128, 2, 128};
    CacheHierarchy hierarchy(config);
    std::uint64_t written_back = 0;
    const auto storeRound = [&] {
        for (LineAddr line = 0; line < 4096; line += 3) {
            if (hierarchy.access(line, true).needs_memory)
                hierarchy.fill(line, true);
            // Drains of one, several or no lines in turn.
            if (line % 4 == 0)
                written_back += hierarchy.drainWritebacks().size();
        }
    };
    storeRound(); // both buffers reach their working capacity
    const std::uint64_t n = allocationsIn(storeRound);
    EXPECT_EQ(n, 0u);
    EXPECT_GT(written_back, 1000u);
}

struct RunCase
{
    const char *name;
    const char *bench;
    RunOptions options;
};

/** The single-run configurations of asdbench, shortened. */
std::vector<RunCase>
runCases()
{
    RunOptions stream;
    stream.mode = PrefetchMode::PMS;

    RunOptions commercial;
    commercial.mode = PrefetchMode::NP;

    RunOptions tenants;
    tenants.mode = PrefetchMode::PMS;
    tenants.os.enabled = true;
    tenants.os.frames = 2048;
    tenants.vm.walker = PageWalkerKind::Hashed;
    tenants.tenants.enabled = true;
    tenants.tenants.slots = 8;

    return {{"spec_stream_pms", "bwaves", stream},
            {"commercial_np", "tpcc", commercial},
            {"os_tenants", "GemsFDTD", tenants}};
}

TEST(AllocCount, RunsAllocateFarLessThanOncePerAccess)
{
    constexpr std::uint64_t kAccesses = 50'000;
    // Measured at 50k accesses: see the printed figures. An eagerly
    // built check message costs several allocations per access.
    constexpr double kPerAccessBound = 0.5;
    for (const RunCase &c : runCases()) {
        BenchmarkRun run(findBenchmark(c.bench), c.options, kAccesses);
        const std::uint64_t n = allocationsIn([&] { run.run(); });
        const double per_access =
            static_cast<double>(n) / static_cast<double>(kAccesses);
        std::printf("%s: %llu allocations over %llu accesses = %.3f "
                    "per access\n",
                    c.name, static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(kAccesses),
                    per_access);
        EXPECT_LT(per_access, kPerAccessBound) << c.name;
    }
}

} // namespace
} // namespace asd
