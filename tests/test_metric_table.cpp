/**
 * @file
 * Properties of the RunMetrics table and its consumers: keys and
 * labels are unique and every stored entry has one source; every
 * label the sweep CSV, asdsim_cli's report and the bake-off cells
 * list names an entry; every readable entry round-trips through the
 * metrics JSON; collectMetrics agrees with the components' own
 * accessors; and the report rows keep their order and formats.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "arena/report.hpp"
#include "runner/result_sink.hpp"
#include "sim/metric_table.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "tuner/run.hpp"

using namespace asd;

namespace
{

/** Every readable entry set to a distinct non-zero value. */
RunMetrics
distinctMetrics()
{
    RunMetrics m;
    std::uint64_t next = 1;
    for (const MetricEntry &entry : metricTable()) {
        if (!entry.ref)
            continue;
        std::visit(
            [&](auto *member) {
                using T = std::remove_pointer_t<decltype(member)>;
                if constexpr (std::is_same_v<T, bool>)
                    *member = true;
                else if constexpr (std::is_same_v<T, double>)
                    *member = static_cast<double>(next) + 0.5;
                else
                    *member = next;
            },
            entry.ref(m));
        ++next;
    }
    return m;
}

/** A finished System for @p options over a short @p bench trace. */
struct FinishedRun
{
    FinishedRun(const RunOptions &options, const std::string &bench)
    {
        SyntheticConfig trace_config = findBenchmark(bench).trace;
        trace_config.total_accesses = 5000;
        trace = makeTraceSource(options, trace_config);
        system.emplace(makeSystemConfig(options),
                       std::vector<TraceSource *>{trace.get()});
        metrics = system->run();
    }

    std::unique_ptr<TraceSource> trace;
    std::optional<System> system;
    RunMetrics metrics;
};

} // namespace

/** Every label in the table. */
std::set<std::string_view>
tableLabels()
{
    std::set<std::string_view> labels;
    for (const MetricEntry &entry : metricTable())
        labels.insert(entry.label);
    return labels;
}

TEST(MetricTable, KeysAndLabelsAreUniqueAndSourced)
{
    std::set<std::string_view> keys;
    for (const MetricEntry &entry : metricTable()) {
        SCOPED_TRACE(entry.label);
        EXPECT_TRUE(entry.key.empty() || keys.insert(entry.key).second);
        ASSERT_TRUE(entry.get);
        // A stored value has exactly one source, a stat sum feeds a
        // count, and a written-only value (power_pj.total) has none.
        if (entry.ref) {
            EXPECT_NE(entry.stat == nullptr, entry.derive == nullptr);
        } else {
            EXPECT_TRUE(entry.stat == nullptr && !entry.derive);
        }
        if (entry.stat) {
            EXPECT_TRUE(std::holds_alternative<std::uint64_t>(
                entry.get(RunMetrics{})));
        }
        // A flag without a key is some group's presence.
        if (entry.key.empty()) {
            EXPECT_TRUE(
                std::holds_alternative<bool>(entry.get(RunMetrics{})));
        }
    }
    EXPECT_EQ(tableLabels().size(), metricTable().size());
    EXPECT_GE(keys.size(), 34u);
}

TEST(MetricTable, EveryConsumerLabelResolves)
{
    const std::set<std::string_view> labels = tableLabels();
    for (const std::string_view label : kCsvMetricColumns)
        EXPECT_TRUE(labels.count(label)) << label;
    for (const ReportSection &section : reportSections())
        for (const std::string_view label : section.labels)
            EXPECT_TRUE(labels.count(label)) << label;
    for (const std::string_view label : kBakeoffCellMetrics)
        EXPECT_TRUE(labels.count(label)) << label;
    EXPECT_EQ(metricEntry("tlb_hits").key, "vm.tlb_hits");
    EXPECT_DEATH(metricEntry("no_such_metric"), "no_such_metric");
}

TEST(MetricTable, DistinctValuesRoundTripThroughJson)
{
    const RunMetrics m = distinctMetrics();
    const auto doc = jsonParse(toJson(m));
    ASSERT_TRUE(doc);
    const auto back = metricsFromJson(*doc);
    ASSERT_TRUE(back);
    EXPECT_TRUE(*back == m);
    // Each readable value reached the document on its own: the
    // round trip of a table that aliased two members would differ.
    for (const MetricEntry &entry : metricTable()) {
        if (entry.ref) {
            EXPECT_EQ(entry.get(*back), entry.get(m)) << entry.label;
        }
    }
}

TEST(MetricTable, NonFiniteNumberIsRejected)
{
    std::string text = toJson(RunMetrics{});
    const std::string from = "\"dram_watts\":0";
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "\"dram_watts\":1e999");
    const auto doc = jsonParse(text);
    ASSERT_TRUE(doc);
    EXPECT_FALSE(metricsFromJson(*doc));
}

TEST(MetricTable, CollectAgreesWithComponentAccessors)
{
    RunOptions vm;
    vm.mode = PrefetchMode::PMS;
    vm.vm.enabled = true;
    vm.vm.policy = FrameAllocPolicy::RandomShuffle;
    RunOptions os = vm;
    os.vm.enabled = false;
    os.os.enabled = true;
    os.os.frames = 256;
    os.tenants.enabled = true;
    for (const RunOptions &options : {RunOptions{}, vm, os}) {
        const FinishedRun run(options, "tpcc");
        const System &s = *run.system;
        const RunMetrics &m = run.metrics;
        EXPECT_EQ(m.cycles, s.nowCycle());
        EXPECT_EQ(m.mc_reads, s.mc().readsObserved());
        EXPECT_EQ(m.mc_writes, s.mc().writesObserved());
        EXPECT_EQ(m.ms_prefetches_issued, s.mc().prefetchesIssued());
        EXPECT_EQ(m.buffer_hits, s.mc().bufferHits());
        EXPECT_EQ(m.lpq_drops, s.mc().lpqDrops());
        EXPECT_EQ(m.vm_enabled, options.vm.enabled);
        EXPECT_EQ(m.os_enabled, options.os.enabled);
        EXPECT_EQ(m.tenants_enabled, options.tenants.enabled);
        const OsKernel *kernel = s.osKernel();
        EXPECT_EQ(m.pages_mapped, kernel ? kernel->pagesMapped() : 0);
        if (options.os.enabled) {
            EXPECT_GT(m.os_minor_faults, 0u);
            EXPECT_EQ(m.os_minor_faults, kernel->minorFaults());
            EXPECT_EQ(m.os_major_faults, kernel->majorFaults());
            EXPECT_EQ(m.os_reclaims, kernel->reclaims());
            EXPECT_EQ(m.os_stall_cycles, kernel->stallCycles());
            EXPECT_EQ(m.os_resident_pages, kernel->residentPages());
            EXPECT_EQ(m.tenant_active, options.tenants.slots);
        } else {
            EXPECT_EQ(m.os_stall_cycles, 0u);
            EXPECT_EQ(m.os_resident_pages, 0u);
        }
        if (kernel) {
            // The walks the MMUs stalled on, not the kernel's faults.
            EXPECT_GT(m.tlb_misses, 0u);
            EXPECT_GT(m.page_walk_cycles, 0u);
            EXPECT_EQ(m.tlb_hits + m.tlb_misses, m.accesses);
        } else {
            EXPECT_EQ(m.tlb_hits + m.tlb_misses, 0u);
        }
    }
}

TEST(MetricTable, ReportRowsKeepOrderAndFormats)
{
    RunMetrics m;
    m.cycles = 123456;
    m.dram_watts = 1.25;
    m.coverage_pct = 100.0 / 3.0;
    EXPECT_EQ(reportRows(m).size(), 10u);
    EXPECT_EQ(reportRows(m)[0],
              (std::pair<std::string, std::string>{"cycles", "123456"}));
    EXPECT_EQ(reportRows(m)[2].second, "1.250");
    EXPECT_EQ(reportRows(m)[4],
              (std::pair<std::string, std::string>{"coverage_pct",
                                                   "33.33"}));
    m.vm_enabled = true;
    EXPECT_EQ(reportRows(m).size(), 14u);
    m.vm_enabled = false;
    m.os_enabled = true;
    m.tenants_enabled = true;
    const auto rows = reportRows(m);
    ASSERT_EQ(rows.size(), 22u);
    EXPECT_EQ(rows[10].first, "tlb_hits");
    EXPECT_EQ(rows[12].first, "os_minor_faults");
    EXPECT_EQ(rows.back().first, "tenant_departures");
}
