/**
 * @file
 * Unit and property tests for the common substrate: RNG, alias-method
 * sampler, histogram, stat registry, table printer, JSON edge cases,
 * and the checked narrow() conversion.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace asd
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(99);
    std::vector<int> buckets(8, 0);
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++buckets[rng.nextBelow(8)];
    for (const int count : buckets) {
        EXPECT_NEAR(count, draws / 8, draws / 8 / 5)
            << "bucket far from uniform";
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextInRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        saw_lo = saw_lo || v == 5;
        saw_hi = saw_hi || v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(21);
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(DiscreteSampler, MatchesWeights)
{
    const std::vector<double> weights = {1.0, 3.0, 6.0};
    DiscreteSampler sampler(weights);
    Rng rng(17);
    std::vector<int> counts(3, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.015);
    EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.015);
}

TEST(DiscreteSampler, SingleOutcome)
{
    DiscreteSampler sampler({42.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightOutcomeNeverDrawn)
{
    DiscreteSampler sampler({1.0, 0.0, 1.0});
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(DiscreteSampler, NormalizedProbabilities)
{
    DiscreteSampler sampler({2.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(sampler.probability(0), 0.25);
    EXPECT_DOUBLE_EQ(sampler.probability(2), 0.5);
}

TEST(Histogram, AddAndCount)
{
    Histogram hist(4);
    hist.add(1);
    hist.add(2, 5);
    hist.add(4);
    EXPECT_EQ(hist.count(1), 1u);
    EXPECT_EQ(hist.count(2), 5u);
    EXPECT_EQ(hist.count(3), 0u);
    EXPECT_EQ(hist.count(4), 1u);
    EXPECT_EQ(hist.total(), 7u);
}

TEST(Histogram, SaturatesIntoLastBucket)
{
    Histogram hist(3);
    hist.add(3);
    hist.add(7);
    hist.add(100);
    EXPECT_EQ(hist.count(3), 3u);
}

TEST(Histogram, Fractions)
{
    Histogram hist(2);
    hist.add(1, 3);
    hist.add(2, 1);
    EXPECT_DOUBLE_EQ(hist.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(hist.fraction(2), 0.25);
}

TEST(Histogram, EmptyFractionIsZero)
{
    Histogram hist(4);
    EXPECT_DOUBLE_EQ(hist.fraction(1), 0.0);
}

TEST(Histogram, ClearResets)
{
    Histogram hist(4);
    hist.add(2, 10);
    hist.clear();
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(hist.count(2), 0u);
}

TEST(Histogram, L1DistanceIdenticalIsZero)
{
    Histogram a(4);
    Histogram b(4);
    a.add(1, 2);
    a.add(3, 2);
    b.add(1, 4);
    b.add(3, 4); // same shape, different scale
    EXPECT_NEAR(a.l1Distance(b), 0.0, 1e-12);
}

TEST(Histogram, L1DistanceDisjointIsTwo)
{
    Histogram a(4);
    Histogram b(4);
    a.add(1, 10);
    b.add(4, 10);
    EXPECT_NEAR(a.l1Distance(b), 2.0, 1e-12);
}

TEST(StatRegistry, RegisterAndRead)
{
    Counter counter;
    StatRegistry registry;
    registry.add("x.y", counter);
    counter.inc(3);
    EXPECT_EQ(registry.value("x.y"), 3u);
    EXPECT_TRUE(registry.has("x.y"));
    EXPECT_FALSE(registry.has("x.z"));
}

TEST(StatRegistry, DumpIsSorted)
{
    Counter a;
    Counter b;
    StatRegistry registry;
    registry.add("b", b);
    registry.add("a", a);
    const auto dump = registry.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(Table, AlignedOutputContainsCells)
{
    Table table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0), "2.0");
}

// JSON edge cases: escaping of backslash and control characters,
// 64-bit extremes, and deep nesting against the parser's recursion
// cap.

TEST(Json, EscapesBackslashQuoteAndControlChars)
{
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape("nl\nend"), "nl\\nend");
    EXPECT_EQ(jsonEscape(std::string("nul\0!", 5)), "nul\\u0000!");
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
    // A Windows-style path survives a writer -> parser round trip.
    JsonWriter w;
    w.beginObject().key("path").value("C:\\tmp\\x.json").endObject();
    EXPECT_EQ(w.str(), "{\"path\":\"C:\\\\tmp\\\\x.json\"}");
    EXPECT_TRUE(jsonParse(w.str()).has_value());
}

TEST(Json, Uint64MaxRoundTrips)
{
    JsonWriter w;
    w.beginObject()
        .key("max")
        .value(std::numeric_limits<std::uint64_t>::max())
        .key("min")
        .value(std::numeric_limits<std::int64_t>::min())
        .endObject();
    EXPECT_EQ(w.str(), "{\"max\":18446744073709551615,"
                       "\"min\":-9223372036854775808}");
    EXPECT_TRUE(jsonParse(w.str()).has_value());
}

TEST(Json, DeeplyNestedArraysWithinCheckerCap)
{
    std::string doc;
    for (int i = 0; i < 100; ++i)
        doc += '[';
    doc += '1';
    for (int i = 0; i < 100; ++i)
        doc += ']';
    EXPECT_TRUE(jsonParse(doc).has_value());
}

TEST(Json, AbsurdNestingIsRejectedNotOverflowed)
{
    std::string doc;
    for (int i = 0; i < 100000; ++i)
        doc += '[';
    doc += '1';
    for (int i = 0; i < 100000; ++i)
        doc += ']';
    // The parser bounds recursion depth instead of crashing; a
    // 100k-deep document is rejected as unparseable.
    EXPECT_FALSE(jsonParse(doc).has_value());
}

TEST(Json, WriterHandlesDeepNestingAndEmptyContainers)
{
    JsonWriter w;
    for (int i = 0; i < 64; ++i)
        w.beginArray();
    w.beginObject().endObject();
    for (int i = 0; i < 64; ++i)
        w.endArray();
    EXPECT_TRUE(jsonParse(w.str()).has_value());
    EXPECT_EQ(w.str().substr(0, 10), "[[[[[[[[[[");
}

// --- narrow() ------------------------------------------------------

TEST(Narrow, RoundTripsInRangeValues)
{
    EXPECT_EQ(narrow<std::uint32_t>(std::uint64_t{0}), 0u);
    EXPECT_EQ(narrow<std::uint32_t>(std::uint64_t{0xffffffffULL}),
              0xffffffffu);
    EXPECT_EQ(narrow<std::int32_t>(std::int64_t{-5}), -5);
    EXPECT_EQ(narrow<std::uint8_t>(255u), 255u);
    // Widening and identity conversions are fine too.
    EXPECT_EQ(narrow<std::uint64_t>(std::uint32_t{7}), 7u);
}

TEST(NarrowDeathTest, PanicsOnTruncation)
{
    EXPECT_DEATH(narrow<std::uint32_t>(std::uint64_t{1} << 32),
                 "narrow");
    EXPECT_DEATH(narrow<std::uint8_t>(256u), "narrow");
}

TEST(NarrowDeathTest, PanicsOnSignMismatch)
{
    EXPECT_DEATH(narrow<std::uint32_t>(std::int64_t{-1}), "narrow");
    EXPECT_DEATH(
        narrow<std::int32_t>(std::uint64_t{0xffffffff80000000ULL}),
        "narrow");
}

} // namespace
} // namespace asd
