/**
 * @file
 * Tests for the trace substrate: the synthetic generator's statistical
 * properties (stream-length distribution, intensity, write mix,
 * working-set confinement, phases, determinism), the binary trace
 * file round trip, and the file source's cursor checkpoint.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_file.hpp"

namespace asd
{
namespace
{

SyntheticConfig
baseConfig()
{
    SyntheticConfig config;
    config.seed = 42;
    config.total_accesses = 50000;
    config.working_set_bytes = 64ULL << 20;
    config.mean_gap = 4.0;
    config.write_frac = 0.25;
    config.reuse_frac = 0.0;
    config.dependent_frac = 0.1;
    config.negative_dir_frac = 0.0;
    config.concurrent_streams = 1;
    config.phases = {PhaseProfile{{0.0, 1.0}, 0}}; // all length 2
    return config;
}

TEST(Synthetic, DeterministicAcrossInstances)
{
    SyntheticTraceGenerator a(baseConfig());
    SyntheticTraceGenerator b(baseConfig());
    MemAccess x;
    MemAccess y;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(x));
        ASSERT_TRUE(b.next(y));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.gap, y.gap);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.dependent, y.dependent);
    }
}

TEST(Synthetic, ResetReplaysIdentically)
{
    SyntheticTraceGenerator gen(baseConfig());
    std::vector<Addr> first;
    MemAccess access;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(gen.next(access));
        first.push_back(access.addr);
    }
    gen.reset();
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(gen.next(access));
        EXPECT_EQ(access.addr, first[static_cast<std::size_t>(i)]);
    }
}

TEST(Synthetic, EmitsExactlyTotalAccesses)
{
    SyntheticConfig config = baseConfig();
    config.total_accesses = 1234;
    SyntheticTraceGenerator gen(config);
    MemAccess access;
    std::uint64_t count = 0;
    while (gen.next(access))
        ++count;
    EXPECT_EQ(count, 1234u);
    EXPECT_FALSE(gen.next(access));
}

TEST(Synthetic, AddressesStayInWorkingSet)
{
    SyntheticConfig config = baseConfig();
    config.working_set_bytes = 1ULL << 20;
    config.negative_dir_frac = 0.5;
    SyntheticTraceGenerator gen(config);
    MemAccess access;
    while (gen.next(access))
        EXPECT_LT(access.addr, config.working_set_bytes);
}

TEST(Synthetic, WriteFractionRespected)
{
    SyntheticTraceGenerator gen(baseConfig());
    MemAccess access;
    std::uint64_t writes = 0;
    std::uint64_t total = 0;
    while (gen.next(access)) {
        ++total;
        writes += access.op == MemOp::Write;
    }
    EXPECT_NEAR(static_cast<double>(writes) /
                    static_cast<double>(total),
                0.25, 0.02);
}

TEST(Synthetic, MeanGapApproximatelyRespected)
{
    SyntheticTraceGenerator gen(baseConfig());
    MemAccess access;
    double gap_sum = 0.0;
    std::uint64_t total = 0;
    while (gen.next(access)) {
        gap_sum += access.gap;
        ++total;
    }
    EXPECT_NEAR(gap_sum / static_cast<double>(total), 4.0, 0.4);
}

TEST(Synthetic, DependentOnlyOnReads)
{
    SyntheticConfig config = baseConfig();
    config.dependent_frac = 0.5;
    SyntheticTraceGenerator gen(config);
    MemAccess access;
    std::uint64_t dependent = 0;
    while (gen.next(access)) {
        if (access.dependent) {
            EXPECT_EQ(access.op, MemOp::Read);
        }
        dependent += access.dependent;
    }
    EXPECT_GT(dependent, 0u);
}

/**
 * Property: with a single stream, no reuse and no direction noise,
 * the emitted line sequence decomposes into runs whose length
 * distribution matches the configured PMF.
 */
TEST(Synthetic, StreamLengthsFollowPmf)
{
    SyntheticConfig config = baseConfig();
    config.total_accesses = 120000;
    config.write_frac = 0.0;
    config.phases = {PhaseProfile{{0.3, 0.5, 0.0, 0.2}, 0}};
    SyntheticTraceGenerator gen(config);

    std::map<std::uint64_t, std::uint64_t> runs;
    MemAccess access;
    LineAddr prev_line = ~LineAddr{0};
    std::uint64_t run = 0;
    while (gen.next(access)) {
        const LineAddr line = access.addr / config.line_bytes;
        if (line == prev_line)
            continue; // same-line touch
        if (line == prev_line + 1) {
            ++run;
        } else {
            if (run > 0)
                ++runs[run];
            run = 1;
        }
        prev_line = line;
    }
    if (run > 0)
        ++runs[run];

    std::uint64_t total = 0;
    for (const auto &[len, count] : runs)
        total += count;
    const double f1 =
        static_cast<double>(runs[1]) / static_cast<double>(total);
    const double f2 =
        static_cast<double>(runs[2]) / static_cast<double>(total);
    const double f4 =
        static_cast<double>(runs[4]) / static_cast<double>(total);
    EXPECT_NEAR(f1, 0.3, 0.03);
    EXPECT_NEAR(f2, 0.5, 0.03);
    EXPECT_NEAR(f4, 0.2, 0.03);
    // Length-3 runs can only arise from accidental adjacency of
    // independent streams; they must be rare.
    EXPECT_LE(runs[3], 8u);
}

TEST(Synthetic, TouchesPerLineRepeatLines)
{
    SyntheticConfig config = baseConfig();
    config.mean_touches_per_line = 4.0;
    config.total_accesses = 40000;
    SyntheticTraceGenerator gen(config);
    MemAccess access;
    LineAddr prev = ~LineAddr{0};
    std::uint64_t same = 0;
    std::uint64_t total = 0;
    while (gen.next(access)) {
        const LineAddr line = access.addr / config.line_bytes;
        same += line == prev;
        prev = line;
        ++total;
    }
    // With a mean of 4 touches, ~3/4 of consecutive accesses repeat
    // the line.
    EXPECT_NEAR(static_cast<double>(same) / static_cast<double>(total),
                0.75, 0.05);
}

TEST(Synthetic, PhasesSwitchDistributions)
{
    SyntheticConfig config = baseConfig();
    config.total_accesses = 40000;
    config.phases = {PhaseProfile{{1.0}, 20000},
                     PhaseProfile{{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                   1.0},
                                  20000}};
    SyntheticTraceGenerator gen(config);
    MemAccess access;
    LineAddr prev = ~LineAddr{0};
    std::uint64_t runs_first = 0;
    std::uint64_t longest_second = 0;
    std::uint64_t run = 0;
    for (std::uint64_t i = 0; i < 40000 && gen.next(access); ++i) {
        const LineAddr line = access.addr / config.line_bytes;
        if (line == prev + 1) {
            ++run;
        } else if (line != prev) {
            run = 1;
        }
        prev = line;
        if (i < 20000) {
            runs_first = std::max(runs_first, run);
        } else {
            longest_second = std::max(longest_second, run);
        }
    }
    EXPECT_LE(runs_first, 2u); // all-length-1 phase (noise-free)
    EXPECT_GE(longest_second, 6u);
}

TEST(Synthetic, RejectsBadConfigs)
{
    SyntheticConfig config = baseConfig();
    config.phases.clear();
    EXPECT_EXIT(SyntheticTraceGenerator{config},
                testing::ExitedWithCode(1), "phase");
}

TEST(TraceFile, RoundTrip)
{
    std::vector<MemAccess> accesses;
    for (std::uint64_t i = 0; i < 257; ++i) {
        MemAccess access;
        access.addr = i * 977 + 13;
        access.gap = static_cast<std::uint32_t>(i % 19);
        access.op = i % 3 == 0 ? MemOp::Write : MemOp::Read;
        access.dependent = i % 5 == 0 && access.op == MemOp::Read;
        accesses.push_back(access);
    }
    const std::string path = "/tmp/asd_trace_test.bin";
    writeTraceFile(path, accesses);
    const std::vector<MemAccess> loaded = readTraceFile(path);
    ASSERT_EQ(loaded.size(), accesses.size());
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        EXPECT_EQ(loaded[i].addr, accesses[i].addr);
        EXPECT_EQ(loaded[i].gap, accesses[i].gap);
        EXPECT_EQ(loaded[i].op, accesses[i].op);
        EXPECT_EQ(loaded[i].dependent, accesses[i].dependent);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, FileSourceStreams)
{
    std::vector<MemAccess> accesses(3);
    accesses[0].addr = 1;
    accesses[1].addr = 2;
    accesses[2].addr = 3;
    const std::string path = "/tmp/asd_trace_test2.bin";
    writeTraceFile(path, accesses);
    FileTraceSource source(path);
    EXPECT_EQ(source.size(), 3u);
    MemAccess access;
    EXPECT_TRUE(source.next(access));
    EXPECT_EQ(access.addr, 1u);
    source.reset();
    EXPECT_TRUE(source.next(access));
    EXPECT_EQ(access.addr, 1u);
    std::remove(path.c_str());
}

TEST(TraceFile, FileSourceCheckpointsItsCursor)
{
    std::vector<MemAccess> accesses(5);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        accesses[i].addr = i + 1;
    const std::string path = "/tmp/asd_trace_cursor.bin";
    writeTraceFile(path, accesses);
    FileTraceSource source(path);
    MemAccess access;
    ASSERT_TRUE(source.next(access));
    ASSERT_TRUE(source.next(access));
    SnapshotWriter writer;
    writer.beginSection("trace");
    source.saveState(writer);
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(0);

    // A fresh source over the same file resumes at the third access.
    FileTraceSource restored(path);
    SnapshotReader reader(bytes);
    reader.openSection("trace");
    restored.loadState(reader);
    reader.endSection();
    for (std::uint64_t addr = 3; addr <= 5; ++addr) {
        ASSERT_TRUE(restored.next(access));
        EXPECT_EQ(access.addr, addr);
    }
    EXPECT_FALSE(restored.next(access));

    // A cursor past the end of a shorter trace is rejected.
    writeTraceFile(path, {accesses[0]});
    FileTraceSource shorter(path);
    SnapshotReader short_reader(bytes);
    short_reader.openSection("trace");
    EXPECT_THROW(shorter.loadState(short_reader), SnapshotError);
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileFailsClearly)
{
    std::vector<MemAccess> accesses(100);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        accesses[i].addr = i;
    const std::string path = "/tmp/asd_trace_trunc.bin";
    writeTraceFile(path, accesses);
    // Chop off the last few bytes: header still claims 100 records.
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 7);
    EXPECT_EXIT(readTraceFile(path), testing::ExitedWithCode(1),
                "truncated or corrupt");
    EXPECT_EXIT(FileTraceSource{path}, testing::ExitedWithCode(1),
                "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(TraceFile, OverflowingRecordCountFailsClearly)
{
    // A valid empty trace plus one stray byte, its count set to the
    // inverse of the record size mod 2^64: count * 13 wraps to 1, so
    // a size check done in 64-bit arithmetic sees exactly 17 bytes.
    const std::string path = "/tmp/asd_trace_overflow.bin";
    writeTraceFile(path, {});
    std::vector<unsigned char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(bytes.size(), 16u);
    const std::uint64_t count = 5675921253449092805ULL;
    ASSERT_EQ(count * 13u, 1u);
    for (int i = 0; i < 8; ++i)
        bytes[8 + static_cast<std::size_t>(i)] =
            static_cast<unsigned char>(count >> (8 * i));
    bytes.push_back(0);
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EXIT(readTraceFile(path), testing::ExitedWithCode(1),
                "truncated or corrupt");
    EXPECT_EXIT(FileTraceSource{path}, testing::ExitedWithCode(1),
                "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(TraceFileMutation, SeededHeaderAndLengthEditsExitOrLoad)
{
    // A valid trace damaged by seeded header edits (a byte flip, a
    // random count, a count whose size product wraps onto the actual
    // size), truncations and stray tail bytes: each mutant loads or
    // exits 1 with a message, never aborts or reads out of bounds.
    std::vector<MemAccess> accesses(40);
    for (std::size_t i = 0; i < accesses.size(); ++i)
        accesses[i].addr = i * 64;
    const std::string path = "/tmp/asd_trace_mutation.bin";
    writeTraceFile(path, accesses);
    std::vector<unsigned char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto setCount = [](std::vector<unsigned char> &b,
                             std::uint64_t count) {
        for (int i = 0; i < 8; ++i)
            b[8 + static_cast<std::size_t>(i)] =
                static_cast<unsigned char>(count >> (8 * i));
    };
    const auto exitedCleanly = [](int status) {
        return WIFEXITED(status) && WEXITSTATUS(status) <= 1;
    };
    constexpr std::uint64_t kInverse13 = 5675921253449092805ULL;

    Rng rng(0x7ace);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<unsigned char> bad = bytes;
        switch (rng.nextBelow(5)) {
        case 0:
            bad[rng.nextBelow(16)] ^=
                static_cast<unsigned char>(rng.nextInRange(1, 255));
            break;
        case 1:
            setCount(bad, rng.next());
            break;
        case 2:
            bad.resize(rng.nextBelow(bad.size()));
            break;
        case 3:
            bad.resize(bad.size() + 1 + rng.nextBelow(12), 0);
            break;
        default:
            bad.resize(bad.size() + 1 + rng.nextBelow(12), 0);
            setCount(bad, (bad.size() - 16) * kInverse13);
            break;
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(bad.data()),
                      static_cast<std::streamsize>(bad.size()));
        }
        SCOPED_TRACE(trial);
        EXPECT_EXIT(
            {
                readTraceFile(path);
                std::exit(0);
            },
            exitedCleanly, "");
    }
    std::remove(path.c_str());
}

TEST(VectorSource, IterationAndReset)
{
    std::vector<MemAccess> accesses(2);
    accesses[1].addr = 128;
    VectorTraceSource source(accesses);
    MemAccess access;
    EXPECT_TRUE(source.next(access));
    EXPECT_TRUE(source.next(access));
    EXPECT_EQ(access.addr, 128u);
    EXPECT_FALSE(source.next(access));
    source.reset();
    EXPECT_TRUE(source.next(access));
}

} // namespace
} // namespace asd
