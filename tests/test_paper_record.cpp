/**
 * @file
 * The paper record's driver and its extension figures, one figure at
 * a time. The driver shares a default-body job between figures and
 * calls its readers in figure order, and it writes every file before
 * it reports a failed render. The VM-sensitivity, OS-pressure and
 * tuner figures run end to end and write well-formed files whose rows
 * agree with each other. Run under ASD_BENCH_SCALE=0.02, where the
 * full-scale gates do not apply; tools/record_golden.sh pins the
 * bytes of the whole record at 0.4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "workloads/profiles.hpp"

#include "paper_record.hpp"

namespace
{

using namespace asd;
using namespace asd::record;

/** The record's figure that writes @p file. */
Figure
figureWriting(const std::string &file)
{
    for (Figure &figure : paperFigures())
        if (figure.file == file)
            return figure;
    ADD_FAILURE() << "no figure writes " << file;
    return Figure{};
}

/** A fresh, empty directory under the system temp directory. */
std::filesystem::path
freshDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("asd_paper_record_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Write @p file's figure alone into a fresh directory; its bytes. */
std::string
recordAlone(const std::string &file)
{
    const std::filesystem::path dir = freshDir(file);
    EXPECT_EQ(writeRecord({figureWriting(file)}, dir), 0);
    const std::string bytes = slurp(dir / file);
    std::filesystem::remove_all(dir);
    return bytes;
}

JsonValue
parsed(const std::string &text)
{
    const std::optional<JsonValue> doc = jsonParse(text);
    if (!doc) {
        ADD_FAILURE() << "not JSON: " << text;
        return JsonValue::makeNull();
    }
    return *doc;
}

std::uint64_t
u64(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    if (!value || !value->asU64()) {
        ADD_FAILURE() << "no unsigned " << key;
        return 0;
    }
    return *value->asU64();
}

double
number(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    if (!value || !value->asDouble()) {
        ADD_FAILURE() << "no number " << key;
        return 0.0;
    }
    return *value->asDouble();
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::stringstream in(text);
    std::string part;
    while (std::getline(in, part, sep))
        parts.push_back(part);
    return parts;
}

TEST(PaperRecord, ReadersOfASharedJobRunInFigureOrder)
{
    RunOptions options;
    options.mode = PrefetchMode::PMS;
    const JobSpec job = makeJob(findBenchmark("bwaves"), options);

    auto calls = std::make_shared<std::vector<std::string>>();
    auto seen = std::make_shared<std::vector<Cycle>>();
    const auto figureNamed = [&](const std::string &name) {
        Figure figure{name + ".txt", {},
                      [job, seen](const Results &r, std::ostream &out) {
                          out << r.at(job.id).cycles << "\n";
                          return Failure{};
                      }};
        figure.read(job, [name, calls, seen](const System &system,
                                             const RunResult &result) {
            calls->push_back(name);
            seen->push_back(result.metrics.cycles);
            EXPECT_GT(system.asd()->streamLengthHist().total(), 0U);
        });
        return figure;
    };
    // A plain request of the same job shares it too.
    Figure plain{"plain.txt", {job},
                 [job](const Results &r, std::ostream &out) {
                     out << r.at(job.id).cycles << "\n";
                     return Failure{};
                 }};

    const std::filesystem::path dir = freshDir("shared");
    ASSERT_EQ(writeRecord({figureNamed("first"), plain,
                           figureNamed("second")},
                          dir),
              0);
    EXPECT_EQ(*calls, (std::vector<std::string>{"first", "second"}));
    ASSERT_EQ(seen->size(), 2U);
    EXPECT_EQ(seen->front(), seen->back());
    const std::string cycles = std::to_string(seen->front()) + "\n";
    EXPECT_EQ(slurp(dir / "first.txt"), cycles);
    EXPECT_EQ(slurp(dir / "plain.txt"), cycles);
    EXPECT_EQ(slurp(dir / "second.txt"), cycles);
    std::filesystem::remove_all(dir);
}

TEST(PaperRecord, FailedRenderStillWritesEveryFile)
{
    const Figure failing{"failing.txt", {},
                         [](const Results &, std::ostream &out) {
                             out << "partial\n";
                             return Failure("gate did not hold");
                         }};
    const Figure passing{"passing.txt", {},
                         [](const Results &, std::ostream &out) {
                             out << "whole\n";
                             return Failure{};
                         }};

    const std::filesystem::path dir = freshDir("failing");
    EXPECT_EQ(writeRecord({failing, passing}, dir), 1);
    EXPECT_EQ(slurp(dir / "failing.txt"), "partial\n");
    EXPECT_EQ(slurp(dir / "passing.txt"), "whole\n");
    std::filesystem::remove_all(dir);
}

TEST(PaperRecord, VmSensitivityCsvHasEveryPointOfEveryBenchmark)
{
    ASSERT_LT(benchScale(), 1.0);
    const std::vector<std::string> lines =
        split(recordAlone("ext_vm_sensitivity.csv"), '\n');
    ASSERT_EQ(lines.size(), 1U + 3U * 6U);
    EXPECT_EQ(lines.front(),
              "benchmark,vm,policy,page_bytes,mean_len,len1_5_pct,"
              "len16_pct,tlb_hits,tlb_misses,pages_mapped,cycles");

    const std::vector<std::string> benches = {"longstream", "bwaves",
                                              "tpcc"};
    const std::vector<std::string> points = {
        "off", "identity-4k", "seq-4k", "random-4k", "random-64k",
        "huge-2m"};
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::uint64_t pages_4k = 0;
        for (std::size_t p = 0; p < points.size(); ++p) {
            const std::vector<std::string> row =
                split(lines[1 + b * points.size() + p], ',');
            ASSERT_EQ(row.size(), 11U);
            EXPECT_EQ(row[0], benches[b]);
            EXPECT_EQ(row[1], points[p]);
            const std::uint64_t hits = std::stoull(row[7]);
            const std::uint64_t misses = std::stoull(row[8]);
            const std::uint64_t pages = std::stoull(row[9]);
            EXPECT_GT(std::stoull(row[10]), 0U) << row[1];
            EXPECT_GT(std::stod(row[4]), 0.0) << row[1];
            if (points[p] == "off") {
                // The untranslated machine of figs. 5-7.
                EXPECT_EQ(hits + misses + pages, 0U);
                continue;
            }
            EXPECT_GT(pages, 0U) << row[1];
            EXPECT_GE(misses, pages) << row[1];
            if (points[p] == "identity-4k")
                pages_4k = pages;
            // Every 4 KB policy maps the same pages; larger pages,
            // no more of them.
            if (std::stoull(row[3]) == 4096)
                EXPECT_EQ(pages, pages_4k) << row[1];
            else
                EXPECT_LE(pages, pages_4k) << row[1];
        }
    }
}

TEST(PaperRecord, OsPressureJsonHasEveryMixAndBothContenders)
{
    ASSERT_LT(benchScale(), 1.0);
    const JsonValue doc = parsed(recordAlone("ext_os_pressure.json"));
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(*doc.find("schema")->asString(), "asd/bench/os/v1");
    EXPECT_DOUBLE_EQ(number(doc, "bench_scale"), benchScale());

    const JsonValue *mixes = doc.find("mixes");
    ASSERT_NE(mixes, nullptr);
    const std::vector<std::string> labels = {"os-off",    "os-16k",
                                             "os-2k",     "os-16k-t4",
                                             "os-2k-t4",  "os-2k-t8"};
    const std::vector<std::uint64_t> tenants = {0, 0, 0, 4, 4, 8};
    ASSERT_EQ(mixes->items().size(), labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const JsonValue &mix = mixes->items()[i];
        ASSERT_NE(mix.find("label"), nullptr);
        EXPECT_EQ(*mix.find("label")->asString(), labels[i]);
        EXPECT_EQ(u64(mix, "tenants"), tenants[i]);
        const bool os_on = mix.find("frames") != nullptr;
        EXPECT_EQ(os_on, i > 0) << labels[i];

        const JsonValue *fixed = mix.find("asd");
        const JsonValue *tuned = mix.find("asd_tuner");
        ASSERT_NE(fixed, nullptr);
        ASSERT_NE(tuned, nullptr);
        EXPECT_GT(u64(mix, "np_cycles"), 0U);
        EXPECT_GT(u64(*fixed, "cycles"), 0U);
        EXPECT_GT(u64(*tuned, "cycles"), 0U);
        EXPECT_GE(u64(*tuned, "decisions"), u64(*tuned, "adoptions"));
        EXPECT_GT(number(*fixed, "mean_stream_len"), 0.0) << labels[i];
        // Faults only where the OS model runs.
        if (os_on)
            EXPECT_GT(number(*fixed, "faults_per_kacc"), 0.0) << labels[i];
        else
            EXPECT_EQ(number(*fixed, "faults_per_kacc"), 0.0);
    }

    const JsonValue *headline = doc.find("headline");
    ASSERT_NE(headline, nullptr);
    for (const char *key : {"streams_degrade_under_pressure",
                            "coverage_degrades_under_pressure",
                            "tuner_recovers_on", "best_recovery_milli_pct"})
        EXPECT_NE(headline->find(key), nullptr) << key;
}

TEST(PaperRecord, TunerJsonComparesAgainstTheBestFixedDegree)
{
    ASSERT_LT(benchScale(), 1.0);
    const JsonValue doc = parsed(recordAlone("ext_tuner_adaptation.json"));
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(*doc.find("schema")->asString(), "asd/bench/tuner/v1");
    EXPECT_GT(u64(doc, "np_cycles"), 0U);

    const JsonValue *fixed = doc.find("fixed");
    ASSERT_NE(fixed, nullptr);
    ASSERT_EQ(fixed->items().size(), 3U);
    std::vector<std::uint64_t> degrees;
    std::uint64_t fewest = UINT64_MAX;
    for (const JsonValue &run : fixed->items()) {
        degrees.push_back(u64(run, "degree"));
        fewest = std::min(fewest, u64(run, "cycles"));
    }
    EXPECT_EQ(degrees, (std::vector<std::uint64_t>{1, 2, 4}));
    const JsonValue *best = doc.find("best_fixed");
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(u64(*best, "cycles"), fewest);

    const JsonValue *tuner = doc.find("tuner");
    ASSERT_NE(tuner, nullptr);
    const JsonValue *log = tuner->find("log");
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(u64(*tuner, "decisions"), log->items().size());
    EXPECT_GE(u64(*tuner, "decisions"), u64(*tuner, "adoptions"));
    const bool beats = u64(*tuner, "cycles") < fewest;
    ASSERT_NE(doc.find("tuner_beats_best_fixed"), nullptr);
    EXPECT_EQ(*doc.find("tuner_beats_best_fixed")->asBool(), beats);
    ASSERT_NE(doc.find("margin_milli_pct"), nullptr);
    const std::int64_t margin = *doc.find("margin_milli_pct")->asI64();
    if (beats)
        EXPECT_GE(margin, 0);
    else
        EXPECT_LE(margin, 0);
}

} // namespace
