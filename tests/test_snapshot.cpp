/**
 * @file
 * Checkpoint/restore subsystem tests: primitive round trips through
 * SnapshotWriter/SnapshotReader, the exact little-endian framing of an
 * image, the CRC against a bit-at-a-time reference, the bound on
 * element counts, rejection of damaged or mismatched
 * images (magic, version, CRC, truncation, config hash), whole-system
 * save -> load -> save byte identity, restore-then-run equality with
 * an uninterrupted run (VM off and on, telemetry on, splits before
 * and after the warm-up boundary), the component-presence rules
 * that warm-start forking relies on, and seeded mutations of saved
 * images (every corrupt payload must load or throw SnapshotError,
 * the same way through a borrowing and an owning reader).
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/asd_prefetcher.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/recorder.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"

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

TEST(SnapshotFormat, IntegersAreLittleEndianAndFramed)
{
    SnapshotWriter writer;
    writer.beginSection("le");
    writer.u32(0xDEADBEEFu);
    writer.u64(0x0123456789abcdefULL);
    writer.str("ab");
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    const std::vector<std::uint8_t> payload = {
        0xEF, 0xBE, 0xAD, 0xDE,                         // u32
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // u64
        0x02, 0x00, 0x00, 0x00, 'a', 'b'};              // str
    std::vector<std::uint8_t> expected = {'a', 's', 'd', 's',
                                          'n', 'a', 'p', '\0'};
    const auto put = [&](std::uint64_t v, int bytes_wide) {
        for (int i = 0; i < bytes_wide; ++i)
            expected.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(kSnapshotFormatVersion, 4);
    put(kHash, 8);
    put(1, 4);   // section count
    put(2, 4);   // name length
    expected.push_back('l');
    expected.push_back('e');
    put(payload.size(), 8);
    put(crc32(payload.data(), payload.size()), 4);
    expected.insert(expected.end(), payload.begin(), payload.end());
    EXPECT_EQ(bytes, expected);
}

/** Bit-at-a-time CRC-32 (reflected 0xEDB88320), the reference. */
std::uint32_t
crc32Bitwise(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCrc, CheckValue)
{
    const std::string text = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(text.data()),
                    text.size()),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(SnapshotCrc, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    // Lengths 0..200 cover the word loop and every tail length;
    // starts 0..7 cover every alignment of the first word.
    Rng rng(0xC0FFEEULL);
    std::vector<std::uint8_t> buffer(8 + 200);
    for (std::uint8_t &byte : buffer)
        byte = static_cast<std::uint8_t>(rng.next());
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 200; ++len) {
            const std::uint8_t *data = buffer.data() + start;
            ASSERT_EQ(crc32(data, len), crc32Bitwise(data, len))
                << "start " << start << " length " << len;
        }
    }
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

TEST(SnapshotFormat, CountMustFitTheRestOfTheSection)
{
    SnapshotWriter writer;
    writer.beginSection("three");
    writer.u64(3);
    for (std::uint64_t i = 0; i < 3; ++i)
        writer.u64(i);
    writer.endSection();
    writer.beginSection("short");
    writer.u64(4);
    for (std::uint64_t i = 0; i < 3; ++i)
        writer.u64(i);
    writer.endSection();
    writer.beginSection("huge");
    writer.u64(1ULL << 62);
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    // Exactly as many 8-byte items as the section holds: accepted.
    SnapshotReader reader(bytes);
    reader.openSection("three");
    EXPECT_EQ(reader.count(8), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(reader.u64(), i);
    reader.endSection();

    // The same 24 bytes cannot hold three 16-byte items, four 8-byte
    // items, or 2^62 of anything.
    SnapshotReader wide(bytes);
    wide.openSection("three");
    EXPECT_THROW(wide.count(16), SnapshotError);
    SnapshotReader over(bytes);
    over.openSection("short");
    EXPECT_THROW(over.count(8), SnapshotError);
    SnapshotReader huge(bytes);
    huge.openSection("huge");
    EXPECT_THROW(huge.count(1), SnapshotError);
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

// --- seeded mutations of saved images ------------------------------

/** Where one section sits in a snapshot image. */
struct SectionSpan
{
    std::string name;
    std::size_t crc_at = 0;     //!< offset of the stored CRC
    std::size_t payload_at = 0; //!< offset of the first payload byte
    std::size_t size = 0;
};

/** Little-endian integer of @p width bytes at @p at. */
std::uint64_t
getLe(const std::vector<std::uint8_t> &bytes, std::size_t at,
      std::size_t width)
{
    std::uint64_t v = 0;
    for (std::size_t i = width; i-- > 0;)
        v = (v << 8) | bytes[at + i];
    return v;
}

void
putLe(std::vector<std::uint8_t> &bytes, std::size_t at,
      std::size_t width, std::uint64_t v)
{
    for (std::size_t i = 0; i < width; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Walk the section framing of a well-formed image. */
std::vector<SectionSpan>
sectionsOf(const std::vector<std::uint8_t> &image)
{
    std::size_t pos = 8 + 4 + 8; // magic, version, config hash
    const std::uint64_t count = getLe(image, pos, 4);
    pos += 4;
    std::vector<SectionSpan> spans;
    for (std::uint64_t s = 0; s < count; ++s) {
        SectionSpan span;
        const std::size_t name_len = getLe(image, pos, 4);
        pos += 4;
        span.name.assign(
            reinterpret_cast<const char *>(image.data() + pos),
            name_len);
        pos += name_len;
        span.size = getLe(image, pos, 8);
        pos += 8;
        span.crc_at = pos;
        span.payload_at = pos + 4;
        pos = span.payload_at + span.size;
        spans.push_back(span);
    }
    return spans;
}

SectionSpan
sectionNamed(const std::vector<SectionSpan> &spans, const char *name)
{
    for (const SectionSpan &span : spans)
        if (span.name == name)
            return span;
    ADD_FAILURE() << "no section " << name;
    return {};
}

/** Recompute @p span's CRC after its payload was edited. */
void
reseal(std::vector<std::uint8_t> &image, const SectionSpan &span)
{
    putLe(image, span.crc_at, 4,
          crc32(image.data() + span.payload_at, span.size));
}

/**
 * Restores a snapshot into a freshly built machine or run and
 * returns what that machine saves in turn.
 */
using Loader = std::function<std::vector<std::uint8_t>(SnapshotReader &)>;

/**
 * What reading @p image with @p load gave: "loaded:" and the re-saved
 * state, or "rejected:" and the SnapshotError's message. An lvalue
 * image is read by a borrowing reader, an rvalue by an owning one.
 */
template <typename Image>
std::string
outcomeOf(const Loader &load, Image &&image)
{
    try {
        SnapshotReader reader(std::forward<Image>(image));
        const std::vector<std::uint8_t> state = load(reader);
        return "loaded:" + std::string(state.begin(), state.end());
    } catch (const SnapshotError &e) {
        return std::string("rejected:") + e.what();
    }
}

/**
 * Load @p image with @p load through a borrowing and an owning
 * reader, which must agree byte for byte. @return true when it loads,
 * false on SnapshotError; any other exception escapes and fails the
 * test.
 */
bool
loadsWith(const Loader &load, std::vector<std::uint8_t> image)
{
    const std::string borrowed = outcomeOf(load, image);
    const std::string owned = outcomeOf(load, std::move(image));
    EXPECT_TRUE(borrowed == owned)
        << "borrowing reader: " << borrowed.substr(0, 80)
        << "\nowning reader: " << owned.substr(0, 80);
    return owned.starts_with("loaded:");
}

/** Restore into a fresh System built from @p config. */
Loader
systemLoader(const SystemConfig &config)
{
    return [config](SnapshotReader &reader) {
        SyntheticTraceGenerator trace(testTrace());
        System system(config, {&trace});
        system.loadSnapshot(reader);
        return snapshotOf(system);
    };
}

/** Load @p image into a fresh machine built from @p config. */
bool
loads(const SystemConfig &config, std::vector<std::uint8_t> image)
{
    return loadsWith(systemLoader(config), std::move(image));
}

/** VM mode (a FrameAllocator shuffle table) with telemetry. */
SystemConfig
vmTelemetryConfig()
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.vm.enabled = true;
    config.vm.policy = FrameAllocPolicy::RandomShuffle;
    config.telemetry.enabled = true;
    config.warmup_cycles = 10000;
    return config;
}

/** The OS model (a HashedWalker) with telemetry. */
SystemConfig
osTelemetryConfig()
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.os.enabled = true;
    config.os.frames = 128;
    config.vm.walker = PageWalkerKind::Hashed;
    config.telemetry.enabled = true;
    return config;
}

/** Late enough in testTrace() that telemetry holds two records. */
constexpr Cycle kMutationSplit = 330000;

/** @p image with the count at @p at in @p span set absurdly large. */
std::vector<std::uint8_t>
withHugeCount(std::vector<std::uint8_t> image, const SectionSpan &span,
              std::size_t at)
{
    putLe(image, at, 8, 1ULL << 62);
    reseal(image, span);
    return image;
}

TEST(SnapshotMutation, CorruptCountsAreSnapshotErrors)
{
    // The count fields the loaders reserve for: an absurd value must
    // be a SnapshotError, never an allocation failure.
    const SystemConfig vm_config = vmTelemetryConfig();
    const std::vector<std::uint8_t> vm_image =
        splitSnapshot(vm_config, kMutationSplit);
    ASSERT_TRUE(loads(vm_config, vm_image));
    const std::vector<SectionSpan> vm_spans = sectionsOf(vm_image);

    // "os" in VM mode: the frame-source flag, then the allocator's
    // four rng words and used count ahead of its shuffle count.
    const SectionSpan vm_os = sectionNamed(vm_spans, "os");
    const std::size_t shuffle_at = vm_os.payload_at + 1 + 5 * 8;
    const std::uint64_t shuffle = getLe(vm_image, shuffle_at, 8);
    ASSERT_TRUE(shuffle > 0 && shuffle * 16 < vm_os.size) << shuffle;
    EXPECT_FALSE(
        loads(vm_config, withHugeCount(vm_image, vm_os, shuffle_at)));

    // "tel": one baseline per column, the baseline cycle and the
    // capped flag ahead of the record count.
    const SectionSpan tel = sectionNamed(vm_spans, "tel");
    const std::size_t records_at =
        tel.payload_at + (kTelemetryColumns.size() + 1) * 8 + 1;
    ASSERT_EQ(getLe(vm_image, records_at, 8), 2u);
    EXPECT_FALSE(
        loads(vm_config, withHugeCount(vm_image, tel, records_at)));

    // "os" under the OS model: the frame-source flag and the frame
    // pool (size, 11 bytes per frame, three cursors) ahead of the
    // walker's bucket count and first chain length.
    const SystemConfig os_config = osTelemetryConfig();
    const std::vector<std::uint8_t> os_image =
        splitSnapshot(os_config, kMutationSplit);
    ASSERT_TRUE(loads(os_config, os_image));
    const SectionSpan os = sectionNamed(sectionsOf(os_image), "os");
    const std::size_t buckets_at =
        os.payload_at + 1 + 8 + os_config.os.frames * 11 + 3 * 8;
    ASSERT_EQ(getLe(os_image, buckets_at, 8), os_config.os.frames);
    EXPECT_FALSE(
        loads(os_config, withHugeCount(os_image, os, buckets_at + 8)));
}

/** An image to mutate and the loader that restores it. */
struct MutationCase
{
    std::string name;
    std::vector<std::uint8_t> image;
    Loader load;
};

/** @p config split at kMutationSplit, restored by a fresh System. */
MutationCase
systemCase(std::string name, const SystemConfig &config)
{
    return {std::move(name), splitSnapshot(config, kMutationSplit),
            systemLoader(config)};
}

/** testTrace() alone under the memory-side prefetcher @p kind. */
SystemConfig
contenderConfig(McPrefetcherKind kind, bool ghb_delta = false)
{
    SystemConfig config = testConfig(PrefetchMode::MS);
    config.mc_prefetcher = kind;
    config.ghb.delta_correlate = ghb_delta;
    config.telemetry.enabled = true;
    return config;
}

/** tpcc under the OS model and tenants with the tuner on. */
RunOptions
tunedOptions()
{
    RunOptions o;
    o.accesses = 30000;
    o.telemetry.enabled = true;
    o.os.enabled = true;
    o.os.frames = 512;
    o.vm.walker = PageWalkerKind::Hashed;
    o.tenants.enabled = true;
    o.tenants.slots = 4;
    o.tenants.mean_lifetime = 4000;
    o.tuner.enabled = true;
    o.tuner.phase_window = 1;
    o.tuner.min_epochs_between = 1;
    o.tuner.shadow_horizon = 20000;
    o.tuner.phase_threshold_milli_pct = 5000;
    return o;
}

/** A mid-run image of the tuned run, restored by a fresh run. */
MutationCase
tunedCase()
{
    const RunOptions options = tunedOptions();
    BenchmarkRun saver(findBenchmark("tpcc"), options);
    saver.runUntil(4500000); // after the first decision
    EXPECT_FALSE(saver.result().decisions.empty());
    SnapshotWriter writer;
    saver.saveSnapshot(writer);
    return {"tuned", writer.finish(kHash),
            [options](SnapshotReader &reader) {
                BenchmarkRun run(findBenchmark("tpcc"), options);
                run.loadSnapshot(reader);
                SnapshotWriter resaved;
                run.saveSnapshot(resaved);
                return resaved.finish(kHash);
            }};
}

/**
 * The seeded images: VM and OS machines with telemetry, every
 * memory-side contender (GHB in both correlation modes), the ASD
 * processor-side unit, and a tuned run with its "tun" section.
 */
std::vector<MutationCase>
mutationCases()
{
    using K = McPrefetcherKind;
    SystemConfig asd_ps = testConfig(PrefetchMode::PS);
    asd_ps.ps_kind = PsKind::Asd;
    std::vector<MutationCase> cases = {
        systemCase("vm", vmTelemetryConfig()),
        systemCase("os", osTelemetryConfig()),
        systemCase("ms_asd", contenderConfig(K::Asd)),
        systemCase("ms_nextline", contenderConfig(K::NextLine)),
        systemCase("ms_p5", contenderConfig(K::P5Style)),
        systemCase("ms_ghb_ac", contenderConfig(K::Ghb)),
        systemCase("ms_ghb_dc", contenderConfig(K::Ghb, true)),
        systemCase("ms_stride", contenderConfig(K::Stride)),
        systemCase("ms_dspatch", contenderConfig(K::Dspatch)),
        systemCase("ms_perceptron", contenderConfig(K::Perceptron)),
        systemCase("ps_asd", asd_ps),
    };
    cases.push_back(tunedCase());
    return cases;
}

TEST(SnapshotMutation, SeededPayloadMutationsLoadOrThrow)
{
    // Random byte flips, extreme 64-bit values and in-payload splices,
    // each with the section CRC recomputed so the damage reaches the
    // component loaders instead of the framing checks.
    Rng rng(0x5eed);
    for (const MutationCase &c : mutationCases()) {
        SCOPED_TRACE(c.name);
        ASSERT_TRUE(loadsWith(c.load, c.image));
        const std::vector<SectionSpan> spans = sectionsOf(c.image);
        std::size_t loaded = 0;
        std::size_t rejected = 0;
        for (int trial = 0; trial < 80; ++trial) {
            std::vector<std::uint8_t> bad = c.image;
            const SectionSpan &span =
                spans[rng.nextBelow(spans.size())];
            if (span.size < 8)
                continue;
            const std::size_t at =
                span.payload_at + rng.nextBelow(span.size - 7);
            switch (rng.nextBelow(3)) {
            case 0:
                bad[at] ^= static_cast<std::uint8_t>(
                    rng.nextInRange(1, 255));
                break;
            case 1:
                putLe(bad, at, 8,
                      rng.chance(0.5) ? ~0ULL >> rng.nextBelow(64)
                                      : rng.next());
                break;
            default: {
                const std::size_t from =
                    span.payload_at + rng.nextBelow(span.size - 7);
                const std::size_t len = std::min<std::size_t>(
                    1 + rng.nextBelow(64),
                    span.payload_at + span.size -
                        std::max(at, from));
                std::copy_n(c.image.data() + from, len,
                            bad.data() + at);
                break;
            }
            }
            reseal(bad, span);
            (loadsWith(c.load, std::move(bad)) ? loaded : rejected) += 1;
        }
        // Both outcomes occur: the mutations are neither all benign
        // nor all caught by one early check.
        EXPECT_GT(loaded, 0u);
        EXPECT_GT(rejected, 0u);
    }
}

TEST(SnapshotMutation, FramingLengthEditsLoadOrThrow)
{
    // Edits of the framing's length fields: the section count, a
    // section name length, and a payload length whose CRC is
    // recomputed over the span it now claims. Each image must load
    // or be a SnapshotError, never a crash or an allocation failure.
    Rng rng(0xf4a3);
    const std::uint64_t extremes[] = {0, 1, 0xffffffffULL,
                                      ~0ULL >> 1, ~0ULL};
    for (const MutationCase &c : {systemCase("os", osTelemetryConfig()),
                                  tunedCase()}) {
        SCOPED_TRACE(c.name);
        const std::vector<SectionSpan> spans = sectionsOf(c.image);
        std::size_t rejected = 0;
        for (int trial = 0; trial < 60; ++trial) {
            std::vector<std::uint8_t> bad = c.image;
            const SectionSpan &span =
                spans[rng.nextBelow(spans.size())];
            const std::size_t name_len_at =
                span.crc_at - 8 - span.name.size() - 4;
            const std::uint64_t value =
                rng.chance(0.5) ? extremes[rng.nextBelow(5)]
                                : rng.nextBelow(2 * c.image.size());
            switch (rng.nextBelow(3)) {
            case 0: // section count, after magic, version and hash
                putLe(bad, 8 + 4 + 8, 4, value);
                break;
            case 1:
                putLe(bad, name_len_at, 4, value);
                break;
            default: {
                putLe(bad, span.crc_at - 8, 8, value);
                if (value <= bad.size() - span.payload_at)
                    putLe(bad, span.crc_at, 4,
                          crc32(bad.data() + span.payload_at,
                                static_cast<std::size_t>(value)));
                break;
            }
            }
            if (!loadsWith(c.load, std::move(bad)))
                ++rejected;
        }
        EXPECT_GT(rejected, 0u);
    }
}

/** @p component saved alone, in a section named @p name. */
std::vector<std::uint8_t>
imageOf(const char *name, const Snapshottable &component)
{
    SnapshotWriter writer;
    writer.beginSection(name);
    component.saveState(writer);
    writer.endSection();
    return writer.finish(kHash);
}

TEST(SnapshotMutation, CorruptSlhHistoryCapIsNotAnAllocationFailure)
{
    // ASD's SLH-history cap comes from the snapshot. An absurd cap
    // must load (the cap only bounds future epochs) or be a
    // SnapshotError; it must never size an allocation.
    AsdConfig config;
    config.epoch_reads = 4;
    AsdPrefetcher saver(config);
    saver.enableSlhHistory(8);
    std::vector<std::uint8_t> image = imageOf("ms", saver);
    const SectionSpan span = sectionNamed(sectionsOf(image), "ms");
    // The cap precedes the (empty) history's count and five counters.
    const std::size_t cap_at = span.payload_at + span.size - 7 * 8;
    ASSERT_EQ(getLe(image, cap_at, 8), 8u);
    putLe(image, cap_at, 8, 1ULL << 62);
    reseal(image, span);

    loadsWith(
        [&config](SnapshotReader &reader) {
            AsdPrefetcher loader(config);
            reader.openSection("ms");
            loader.loadState(reader);
            reader.endSection();
            return imageOf("ms", loader);
        },
        image);
}

TEST(SnapshotMutation, SyntheticStreamDirectionIsRangeChecked)
{
    SyntheticTraceGenerator saver(testTrace());
    MemAccess access;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(saver.next(access));
    std::vector<std::uint8_t> image = imageOf("trace", saver);
    const SectionSpan span = sectionNamed(sectionsOf(image), "trace");
    // The last live stream's direction is the payload's last byte.
    const std::size_t dir_at = span.payload_at + span.size - 1;
    ASSERT_LE(image[dir_at], 1u);
    const auto load = [](SnapshotReader &reader) {
        SyntheticTraceGenerator loader(testTrace());
        reader.openSection("trace");
        loader.loadState(reader);
        reader.endSection();
        return imageOf("trace", loader);
    };
    ASSERT_TRUE(loadsWith(load, image));
    image[dir_at] = 7;
    reseal(image, span);
    EXPECT_FALSE(loadsWith(load, image));
}

} // namespace
} // namespace asd
