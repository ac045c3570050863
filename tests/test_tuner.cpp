/**
 * @file
 * Tests for the phase-adaptive tuner (src/tuner/): change-point
 * detection over epoch telemetry, the shadow candidate neighborhood,
 * the per-decision recorder and its sinks, live applyTuning
 * semantics, and checkpoint/restore of a whole tuned run.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "core/asd_prefetcher.hpp"
#include "sim/experiment.hpp"
#include "snapshot/snapshot.hpp"
#include "tuner/phase_detector.hpp"
#include "tuner/shadow_tuner.hpp"
#include "tuner/tuned_run.hpp"
#include "tuner/tuner_recorder.hpp"

namespace asd
{
namespace
{

// --- PhaseDetector --------------------------------------------------

TunerConfig
detectorConfig(std::uint32_t window = 3,
               std::uint32_t threshold = 40000)
{
    TunerConfig config;
    config.phase_window = window;
    config.phase_threshold_milli_pct = threshold;
    return config;
}

/** An epoch with a "suggestion rate" signature of @p suggested/1000. */
EpochRecord
epochWith(std::uint64_t suggested)
{
    EpochRecord rec;
    rec.reads = 1000;
    rec.suggested = suggested;
    rec.prefetches_issued = suggested;
    rec.buffer_consumed = suggested / 2;
    rec.buffer_hits = suggested / 2;
    rec.dram_row_hits = 600;
    rec.dram_row_misses = 400;
    return rec;
}

TEST(PhaseDetector, SeedWindowNeverFires)
{
    PhaseDetector det(detectorConfig());
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(det.observe(epochWith(100))) << i;
    EXPECT_EQ(det.phase(), 0u);
    EXPECT_EQ(det.epochsObserved(), 3u);
}

TEST(PhaseDetector, StableTelemetryKeepsOnePhase)
{
    PhaseDetector det(detectorConfig());
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(det.observe(epochWith(100))) << i;
    EXPECT_EQ(det.phase(), 0u);
}

TEST(PhaseDetector, FiresOnSustainedShift)
{
    PhaseDetector det(detectorConfig());
    for (int i = 0; i < 3; ++i)
        det.observe(epochWith(100));
    // 100 -> 900 suggestions per 1000 reads: an 800% feature shift,
    // far beyond the 40% threshold.
    EXPECT_TRUE(det.observe(epochWith(900)));
    EXPECT_EQ(det.phase(), 1u);
}

TEST(PhaseDetector, WindowRestartEnforcesMinimumSpacing)
{
    PhaseDetector det(detectorConfig());
    for (int i = 0; i < 3; ++i)
        det.observe(epochWith(100));
    ASSERT_TRUE(det.observe(epochWith(900)));
    // The reference window restarted from the new regime, so even an
    // immediate flip back cannot fire until it refills: consecutive
    // boundaries are >= phase_window + 1 epochs apart.
    EXPECT_FALSE(det.observe(epochWith(100)));
    EXPECT_FALSE(det.observe(epochWith(100)));
    EXPECT_EQ(det.phase(), 1u);
}

TEST(PhaseDetector, SmallWiggleStaysBelowThreshold)
{
    PhaseDetector det(detectorConfig(3, 40000));
    for (int i = 0; i < 3; ++i)
        det.observe(epochWith(100));
    // A 10% wiggle against a 40% threshold.
    EXPECT_FALSE(det.observe(epochWith(110)));
    EXPECT_EQ(det.phase(), 0u);
}

TEST(PhaseDetector, FeaturesAreIntegerMilliRates)
{
    EpochRecord rec;
    rec.reads = 2000;
    rec.suggested = 500;
    rec.suppressed = 100;
    rec.prefetches_issued = 400;
    rec.buffer_consumed = 300;
    rec.buffer_hits = 200;
    rec.dram_row_hits = 750;
    rec.dram_row_misses = 250;
    rec.read_q_hwm = 3;
    rec.write_q_hwm = 2;
    rec.caq_hwm = 1;
    rec.lpq_hwm = 1;
    const std::vector<std::int64_t> feats =
        PhaseDetector::features(rec);
    ASSERT_EQ(feats.size(), 6u);
    EXPECT_EQ(feats[0], 75000); // consumed/issued
    EXPECT_EQ(feats[1], 10000); // buffer hits/reads
    EXPECT_EQ(feats[2], 25000); // suggested/reads
    EXPECT_EQ(feats[3], 5000);  // suppressed/reads
    EXPECT_EQ(feats[4], 75000); // row-hit ratio
    EXPECT_EQ(feats[5], 7000);  // queue pressure
}

TEST(PhaseDetector, SnapshotRoundTripContinuesExactly)
{
    PhaseDetector a(detectorConfig());
    for (int i = 0; i < 2; ++i)
        a.observe(epochWith(100));

    SnapshotWriter w;
    w.beginSection("det");
    a.saveState(w);
    w.endSection();
    const std::vector<std::uint8_t> bytes = w.finish(0);

    PhaseDetector b(detectorConfig());
    SnapshotReader r(bytes);
    r.openSection("det");
    b.loadState(r);
    r.endSection();

    // Both see the same future: one more seed epoch, then a shift.
    EXPECT_EQ(a.observe(epochWith(100)), b.observe(epochWith(100)));
    EXPECT_EQ(a.observe(epochWith(900)), b.observe(epochWith(900)));
    EXPECT_EQ(a.phase(), b.phase());
    EXPECT_EQ(a.epochsObserved(), b.epochsObserved());
}

// --- ShadowTuner candidate neighborhood -----------------------------

ShadowTuner
makeShadowTuner(const TunerConfig &config)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.mc_prefetcher = McPrefetcherKind::Asd;
    return ShadowTuner(config, makeSystemConfig(options),
                       []() {
                           return std::vector<
                               std::unique_ptr<TraceSource>>{};
                       });
}

TEST(ShadowTuner, CandidatesAreDedupedOneKnobNeighbors)
{
    TunerConfig config;
    config.shadow_threads = 1;
    config.space.degrees = {1, 2, 4};
    config.space.filter_slots = {8};
    config.space.buffer_lines = {16};
    config.space.epoch_reads = {2000};
    config.space.policies = {0, 2};
    const ShadowTuner tuner = makeShadowTuner(config);

    AsdTuning current; // defaults: d1, 2000 reads, 8 slots, 16 lines
    const std::vector<AsdTuning> out = tuner.candidates(current);

    // Incumbent, degree 2, degree 4, pinned policy 2 — every value
    // equal to the incumbent's own coordinate deduplicates away
    // (degree 1, slots 8, lines 16, epoch 2000, policy 0 = the
    // incumbent's adaptive walk).
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], current);
    AsdTuning d2 = current;
    d2.max_degree = 2;
    EXPECT_EQ(out[1], d2);
    AsdTuning d4 = current;
    d4.max_degree = 4;
    EXPECT_EQ(out[2], d4);
    EXPECT_FALSE(out[3].sched.adaptive);
    EXPECT_EQ(out[3].sched.fixed_policy, 2);
    EXPECT_EQ(out[3].max_degree, current.max_degree);
}

TEST(ShadowTuner, PolicyZeroReenablesAdaptiveWalk)
{
    TunerConfig config;
    config.shadow_threads = 1;
    config.space.degrees = {};
    config.space.filter_slots = {};
    config.space.buffer_lines = {};
    config.space.epoch_reads = {};
    config.space.policies = {0};
    const ShadowTuner tuner = makeShadowTuner(config);

    AsdTuning pinned;
    pinned.sched.adaptive = false;
    pinned.sched.fixed_policy = 4;
    const std::vector<AsdTuning> out = tuner.candidates(pinned);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], pinned);
    EXPECT_TRUE(out[1].sched.adaptive);
}

// --- TunerRecorder and sinks ----------------------------------------

TunerDecision
sampleDecision(std::uint64_t index)
{
    TunerDecision d;
    d.decision = index;
    d.cycle = 1000 * (index + 1);
    d.epoch = 10 + index;
    d.phase = index;
    d.candidates = 4;
    d.shadow_cycles = 240000;
    d.adopted_change = index % 2 == 0;
    d.adopted.max_degree = 2;
    d.adopted.sched.adaptive = false;
    d.adopted.sched.fixed_policy = 3;
    d.incumbent_shadow_accesses = 500;
    d.winner_shadow_accesses = 520;
    d.accesses_at_decision = 9000 + index;
    return d;
}

TEST(TunerRecorder, RealizeFillsTheRightDecision)
{
    TunerRecorder rec;
    rec.append(sampleDecision(0));
    rec.append(sampleDecision(1));
    rec.realize(1, 12345);
    ASSERT_EQ(rec.decisions().size(), 2u);
    EXPECT_FALSE(rec.decisions()[0].realized_valid);
    EXPECT_TRUE(rec.decisions()[1].realized_valid);
    EXPECT_EQ(rec.decisions()[1].realized_accesses, 12345u);
    // Out-of-range realize warns and is otherwise a no-op.
    rec.realize(7, 1);
    EXPECT_EQ(rec.decisions().size(), 2u);
}

TEST(TunerRecorder, CsvHasHeaderAndOneRowPerDecision)
{
    TunerRecorder rec;
    rec.append(sampleDecision(0));
    rec.append(sampleDecision(1));
    std::ostringstream out;
    writeTunerCsv(rec.decisions(), out);
    const std::string csv = out.str();
    EXPECT_EQ(csv.find("decision,cycle,epoch,phase"), 0u);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 3u); // header + 2 rows
    // The policy column carries the TuneSpace encoding (pinned 3).
    EXPECT_NE(csv.find(",3,500,520,"), std::string::npos);
}

TEST(TunerRecorder, JsonParsesAndRoundsTrip)
{
    TunerRecorder rec;
    rec.append(sampleDecision(0));
    rec.realize(0, 9999);
    const auto doc = jsonParse(tunerJson(rec.decisions()));
    ASSERT_TRUE(doc.has_value());
    const JsonValue *format = doc->find("format");
    ASSERT_NE(format, nullptr);
    ASSERT_NE(format->asString(), nullptr);
    EXPECT_EQ(*format->asString(), "asdsim/tuner/v1");
    const JsonValue *decisions = doc->find("decisions");
    ASSERT_NE(decisions, nullptr);
    ASSERT_EQ(decisions->items().size(), 1u);
    const JsonValue &d = decisions->items()[0];
    EXPECT_EQ(d.find("realized_accesses")->asU64(), 9999u);
    EXPECT_EQ(d.find("adopted")->find("policy")->asU64(), 3u);
}

TEST(TunerRecorder, SnapshotRoundTripPreservesEveryField)
{
    TunerRecorder a;
    a.append(sampleDecision(0));
    a.append(sampleDecision(1));
    a.realize(0, 777);

    SnapshotWriter w;
    w.beginSection("rec");
    a.saveState(w);
    w.endSection();
    const std::vector<std::uint8_t> bytes = w.finish(0);

    TunerRecorder b;
    SnapshotReader r(bytes);
    r.openSection("rec");
    b.loadState(r);
    r.endSection();

    // Byte-stable sinks make field-exhaustive comparison one line.
    std::ostringstream csv_a;
    std::ostringstream csv_b;
    writeTunerCsv(a.decisions(), csv_a);
    writeTunerCsv(b.decisions(), csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str());
    EXPECT_EQ(tunerJson(a.decisions()), tunerJson(b.decisions()));
}

// --- Live applyTuning semantics -------------------------------------

TEST(ApplyTuning, DegreeAndEpochChangeConfigOnly)
{
    AsdPrefetcher pf{AsdConfig{}};
    AsdTuning t = tuningOf(AsdConfig{});
    t.max_degree = 4;
    t.epoch_reads = 4000;
    pf.applyTuning(t);
    EXPECT_EQ(pf.config().max_degree, 4u);
    EXPECT_EQ(pf.config().epoch_reads, 4000u);
    EXPECT_EQ(pf.config().filter_slots, 8u);
}

TEST(ApplyTuning, BufferResizePreservesResidentLines)
{
    AsdPrefetcher pf{AsdConfig{}};
    pf.fillBuffer(42, 0);
    AsdTuning t = tuningOf(AsdConfig{});
    t.buffer_lines = 32;
    pf.applyTuning(t);
    EXPECT_EQ(pf.buffer().capacityLines(), 32u);
    EXPECT_TRUE(pf.bufferContains(42));
}

TEST(ApplyTuning, PinnedPolicyTakesEffectImmediately)
{
    AsdPrefetcher pf{AsdConfig{}};
    AsdTuning t = tuningOf(AsdConfig{});
    t.sched.adaptive = false;
    t.sched.fixed_policy = 5;
    pf.applyTuning(t);
    EXPECT_EQ(pf.schedulingPolicy(), 5);
}

// --- TunedRun checkpoint/restore ------------------------------------

TEST(TunedRun, SnapshotSplitMatchesStraightRun)
{
    const Benchmark bench = findBenchmark("GemsFDTD");
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.mc_prefetcher = McPrefetcherKind::Asd;
    options.tuner.enabled = true;
    options.tuner.shadow_horizon = 20000;
    options.tuner.phase_threshold_milli_pct = 15000;
    options.tuner.shadow_threads = 2;
    options.tuner.space.degrees = {1, 2};
    options.tuner.space.filter_slots = {};
    options.tuner.space.buffer_lines = {};
    options.tuner.space.epoch_reads = {};
    options.tuner.space.policies = {};
    const std::uint64_t accesses = 150000;

    TunedRun straight(bench, options, accesses);
    const TunedRunResult want = straight.run();
    // The split must land mid-run with the tuner already active,
    // otherwise this test degenerates to the plain snapshot test.
    ASSERT_GE(want.decisions.size(), 1u);

    TunedRun first(bench, options, accesses);
    first.runUntil(want.metrics.cycles / 2);
    SnapshotWriter w;
    first.saveSnapshot(w);
    const std::vector<std::uint8_t> bytes = w.finish(0);

    TunedRun second(bench, options, accesses);
    SnapshotReader r(bytes);
    second.loadSnapshot(r);
    second.runUntil(kNoCycle);
    const TunedRunResult got = second.result();

    EXPECT_EQ(got.metrics.cycles, want.metrics.cycles);
    EXPECT_EQ(got.metrics.accesses, want.metrics.accesses);
    EXPECT_EQ(got.metrics.mc_reads, want.metrics.mc_reads);
    EXPECT_EQ(got.metrics.ms_prefetches_issued,
              want.metrics.ms_prefetches_issued);
    EXPECT_EQ(got.epochs.size(), want.epochs.size());
    // The sinks serialize every TunerDecision field, so equal output
    // means the full decision logs (including realized measurements
    // queued across the split) are identical.
    EXPECT_EQ(tunerJson(got.decisions), tunerJson(want.decisions));
}

/**
 * @p bytes with the "tun" section payload rewritten by @p edit and its
 * CRC refreshed, so only the tuned-run checks can reject it.
 */
std::vector<std::uint8_t>
withTunEdit(std::vector<std::uint8_t> bytes,
            const std::function<void(std::uint8_t *)> &edit)
{
    const std::string name = "tun";
    const auto it =
        std::search(bytes.begin(), bytes.end(), name.begin(), name.end());
    EXPECT_NE(it, bytes.end());
    // Section name, then u64 payload length, u32 CRC, payload.
    const auto at = static_cast<std::size_t>(it - bytes.begin()) +
                    name.size();
    std::uint64_t length = 0;
    for (std::size_t i = 8; i-- > 0;)
        length = (length << 8) | bytes[at + i];
    std::uint8_t *payload = bytes.data() + at + 12;
    edit(payload);
    const std::uint32_t crc =
        crc32(payload, static_cast<std::size_t>(length));
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + 8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    return bytes;
}

/** Store little-endian @p value over @p width bytes at @p at. */
void
put(std::uint8_t *at, std::uint64_t value, std::size_t width)
{
    for (std::size_t i = 0; i < width; ++i)
        at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

TEST(TunedRun, MalformedTuningSnapshotIsRejected)
{
    const Benchmark bench = findBenchmark("GemsFDTD");
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.tuner.enabled = true;
    const std::uint64_t accesses = 20000;

    TunedRun first(bench, options, accesses);
    first.runUntil(50000);
    SnapshotWriter w;
    first.saveSnapshot(w);
    const std::vector<std::uint8_t> bytes = w.finish(0);

    // The "tun" payload opens with u32 degree, epoch, slots, lines,
    // a bool, i64 fixed and start policies, u32 high and low marks.
    const std::vector<std::pair<std::string,
                                std::function<void(std::uint8_t *)>>>
        edits = {
            {"degree 0", [](std::uint8_t *p) { put(p, 0, 4); }},
            {"degree huge", [](std::uint8_t *p) { put(p, 1u << 30, 4); }},
            {"epoch 0", [](std::uint8_t *p) { put(p + 4, 0, 4); }},
            {"slots 0", [](std::uint8_t *p) { put(p + 8, 0, 4); }},
            {"lines 0", [](std::uint8_t *p) { put(p + 12, 0, 4); }},
            {"fixed policy 0", [](std::uint8_t *p) { put(p + 17, 0, 8); }},
            {"fixed policy 2^32+1",
             [](std::uint8_t *p) { put(p + 17, (1ULL << 32) + 1, 8); }},
            {"start policy 6", [](std::uint8_t *p) { put(p + 25, 6, 8); }},
            {"low above high", [](std::uint8_t *p) { put(p + 33, 0, 4); }},
        };

    {
        // The rewrite itself is sound: an unchanged payload loads.
        TunedRun second(bench, options, accesses);
        SnapshotReader r(withTunEdit(bytes, [](std::uint8_t *) {}));
        EXPECT_NO_THROW(second.loadSnapshot(r));
    }
    for (const auto &[what, edit] : edits) {
        SCOPED_TRACE(what);
        TunedRun second(bench, options, accesses);
        SnapshotReader r(withTunEdit(bytes, edit));
        EXPECT_THROW(second.loadSnapshot(r), SnapshotError);
    }
}

} // namespace
} // namespace asd
