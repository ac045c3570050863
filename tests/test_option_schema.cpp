/**
 * @file
 * Properties of the RunOptions field table and its consumers: every
 * entry parses from its flag, reaches the options JSON and the job id
 * (unless declared otherwise), survives the snapshot "cli" section
 * and shows in --help; malformed command-line values are rejected;
 * the cross-field rules hold; every RunMetrics field round-trips
 * through JSON and a damaged metrics record is refused.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "runner/job.hpp"
#include "sim/serialize.hpp"
#include "sim/snapshot_io.hpp"

using namespace asd;

namespace
{

/** A non-default value for every field, as the field's own text. */
const std::map<std::string, std::string> kSamples = {
    {"mode", "NP"},
    {"mc_prefetcher", "ghb"},
    {"ps_kind", "asd"},
    {"scheduler", "frfcfs"},
    {"fixed_policy", "3"},
    {"buffer_lines", "32"},
    {"filter_slots", "4"},
    {"max_degree", "2"},
    {"saturate_long_streams", "true"},
    {"ps_oracle", "true"},
    {"accesses", "5000"},
    {"warmup_cycles", "1000"},
    {"vm.enabled", "true"},
    {"vm.policy", "random"},
    {"vm.page_bytes", "8192"},
    {"vm.huge_bytes", "4194304"},
    {"vm.phys_bytes", "1073741824"},
    {"vm.seed", "7"},
    {"vm.tlb_entries", "128"},
    {"vm.tlb_ways", "8"},
    {"vm.walk_cycles", "90"},
    {"vm.walker", "hashed"},
    {"ghb_delta_correlate", "true"},
    {"os.enabled", "true"},
    {"os.frames", "2048"},
    {"os.minor_fault_cycles", "500"},
    {"os.major_fault_cycles", "30000"},
    {"os.major_fault_frac", "0.125"},
    {"os.reclaim_cycles", "400"},
    {"os.writeback_cycles", "3000"},
    {"os.hashed_probe_cycles", "35"},
    {"os.seed", "11"},
    {"tenants.enabled", "true"},
    {"tenants.slots", "6"},
    {"tenants.zipf_s", "0.75"},
    {"tenants.mean_lifetime", "20000"},
    {"tenants.seed", "99"},
    {"tuner.enabled", "true"},
    {"tuner.shadow_horizon", "30000"},
    {"tuner.min_epochs_between", "3"},
    {"tuner.max_decisions", "4"},
    {"tuner.shadow_threads", "2"},
    {"tuner.phase_window", "5"},
    {"tuner.phase_threshold_milli_pct", "20000"},
    {"tuner.degrees", "1,2"},
    {"tuner.filter_slots", "8"},
    {"tuner.buffer_lines", "16,64"},
    {"tuner.epoch_reads", "2000"},
    {"tuner.policies", "0,5"},
    {"telemetry.enabled", "true"},
    {"telemetry.capture_slh", "false"},
    {"telemetry.max_epochs", "10"},
};

bool
isSwitchKey(const std::string &key)
{
    return key.size() > 8 && key.substr(key.size() - 8) == ".enabled";
}

/**
 * Where a field's effect is visible: every group switched on, so the
 * group members reach the JSON and the job id. Group switches start
 * from the defaults instead, so setting them is a change.
 */
RunOptions
baseFor(const OptionField &f)
{
    RunOptions o;
    if (isSwitchKey(f.key))
        return o;
    o.vm.enabled = true;
    o.os.enabled = true;
    o.tenants.enabled = true;
    o.tuner.enabled = true;
    return o;
}

/** Apply @p args through the asdsim_cli flag table. */
CliError
applyFlags(RunOptions &options, const std::vector<std::string> &args)
{
    return applyCliArgs(args, runOptionFlags(options), "");
}

std::string
usageOf(const std::vector<CliFlag> &flags)
{
    return cliUsage("", flags);
}

bool
listsFlag(const std::string &usage, const std::string &flag)
{
    return usage.find("  " + flag + " ") != std::string::npos ||
           usage.find("  " + flag + "\n") != std::string::npos;
}

RunRecord
snapshotRoundTrip(const RunOptions &options)
{
    SnapshotWriter writer;
    saveCliSection(writer, {"bwaves", 1234, options});
    SnapshotReader reader(writer.finish(42));
    return loadCliSection(reader);
}

} // namespace

TEST(OptionTable, SamplesCoverEveryField)
{
    std::size_t matched = 0;
    for (const OptionField &f : runOptionFields()) {
        EXPECT_TRUE(kSamples.count(f.key)) << "no sample for " << f.key;
        matched += kSamples.count(f.key);
    }
    EXPECT_EQ(matched, kSamples.size()) << "sample for a missing field";
}

TEST(OptionTable, EveryFieldReachesEveryConsumer)
{
    const Benchmark &bench = findBenchmark("bwaves");
    RunOptions defaults;
    const std::string usage = usageOf(runOptionFlags(defaults));
    for (const OptionField &f : runOptionFields()) {
        SCOPED_TRACE(f.key);
        const auto sample = kSamples.find(f.key);
        ASSERT_NE(sample, kSamples.end());
        const RunOptions base = baseFor(f);
        RunOptions changed = base;
        ASSERT_FALSE(f.parse(changed, sample->second));
        ASSERT_EQ(f.format(changed), sample->second);
        ASSERT_NE(f.format(changed), f.format(base));

        if (f.flag) {
            EXPECT_TRUE(listsFlag(usage, f.flag));
            RunOptions via_flag = base;
            std::vector<std::string> args = {f.flag};
            if (!f.isSwitch())
                args.push_back(
                    f.flag_shift == 0
                        ? sample->second
                        : std::to_string(std::stoull(sample->second) >>
                                         f.flag_shift));
            EXPECT_FALSE(applyFlags(via_flag, args));
            EXPECT_EQ(f.format(via_flag), sample->second);
        }
        if (std::string(f.key).rfind("telemetry.", 0) != 0) {
            EXPECT_NE(toJson(changed), toJson(base));
        }
        if (f.id.rank != 0) {
            EXPECT_NE(makeJobId(bench, changed), makeJobId(bench, base));
        }

        const RunRecord back = snapshotRoundTrip(changed);
        EXPECT_EQ(back.bench, "bwaves");
        EXPECT_EQ(back.accesses, 1234u);
        for (const OptionField &g : runOptionFields())
            EXPECT_EQ(g.format(back.options), g.format(changed)) << g.key;
    }
}

TEST(OptionTable, HelpListsEveryEnumName)
{
    RunOptions options;
    const std::string cli_help = usageOf(runOptionFlags(options));
    std::vector<SweepAxis> axes = sweepAxes();
    const std::string sweep_help = usageOf(sweepAxisFlags(axes));
    for (const std::string &help : {cli_help, sweep_help}) {
        for (const auto &e : enumNames(McPrefetcherKind{}))
            EXPECT_NE(help.find(e.name), std::string::npos) << e.name;
        for (const auto &e : enumNames(FrameAllocPolicy{}))
            EXPECT_NE(help.find(e.name), std::string::npos) << e.name;
        for (const auto &e : enumNames(PageWalkerKind{}))
            EXPECT_NE(help.find(e.name), std::string::npos) << e.name;
    }
    for (const SweepAxis &axis : axes)
        EXPECT_TRUE(listsFlag(sweep_help, axis.field->axis.flag));
}

TEST(OptionTable, SweepAxesFollowJobIdOrder)
{
    // An axis outside the job id would give two grid points one id.
    int last = 0;
    for (const SweepAxis &axis : sweepAxes()) {
        EXPECT_GT(axis.field->id.rank, last) << axis.field->key;
        last = axis.field->id.rank;
    }
}

TEST(CliValues, MalformedValuesAreRejected)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--accesses", "abc"},
        {"--accesses", "12x"},
        {"--accesses", " 5"},
        {"--accesses", "+5"},
        {"--accesses", "99999999999999999999"},
        {"--degree", "-1"},
        {"--degree", "0"},
        {"--buffer", ""},
        {"--accesses"},
        {"--vm-phys-mb", "17592186044416"},
        {"--vm-phys-mb", "0"},
        {"--mc-prefetcher", "bogus"},
        {"--mode", "np"},
        {"--vm-policy", "off"},
        {"--policy", "0"},
        {"--policy", "6"},
        {"--os-major-frac", "1.5"},
        {"--os-major-frac", "nan"},
        {"--os-major-frac", "inf"},
        {"--tenants", "0"},
        {"--tune-degrees", "1,,2"},
        {"--tune-policies", "6"},
        {"--no-such-flag"},
    };
    for (const auto &args : bad) {
        RunOptions options;
        EXPECT_TRUE(applyFlags(options, args)) << args[0];
    }
}

TEST(CliValues, WellFormedValuesParse)
{
    RunOptions o;
    ASSERT_FALSE(applyFlags(
        o, {"--accesses", "5000", "--vm-phys-mb", "1024", "--degree", "4",
            "--tenants", "3", "--tune-degrees", "1,2", "--saturate",
            "--os-major-frac", "0.5", "--telemetry-no-slh"}));
    EXPECT_EQ(o.accesses, 5000u);
    EXPECT_EQ(o.vm.phys_bytes, 1ULL << 30);
    EXPECT_EQ(o.max_degree, 4u);
    EXPECT_TRUE(o.tenants.enabled);
    EXPECT_EQ(o.tenants.slots, 3u);
    EXPECT_EQ(o.tuner.space.degrees, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_TRUE(o.saturate_long_streams);
    EXPECT_EQ(o.os.major_fault_frac, 0.5);
    EXPECT_FALSE(o.telemetry.capture_slh);
    EXPECT_FALSE(o.vm.enabled);
}

TEST(CliValues, SweepAxesCheckEveryValue)
{
    std::vector<SweepAxis> axes = sweepAxes();
    const std::vector<CliFlag> flags = sweepAxisFlags(axes);
    EXPECT_TRUE(applyCliArgs({"--degrees", "1,,2"}, flags, ""));
    EXPECT_TRUE(applyCliArgs({"--degrees", "-1"}, flags, ""));
    EXPECT_TRUE(applyCliArgs({"--vm-policies", "off,bogus"}, flags, ""));
    EXPECT_TRUE(applyCliArgs({"--os-frames", "0"}, flags, ""));
    EXPECT_FALSE(applyCliArgs(
        {"--modes", "NP", "--modes", "MS", "--tenants", "off,4"}, flags,
        ""));
    for (const SweepAxis &axis : axes) {
        const std::string flag = axis.field->axis.flag;
        if (flag == "--modes") {
            EXPECT_EQ(axis.values, (std::vector<std::string>{"NP", "MS"}));
        } else if (flag == "--tenants") {
            EXPECT_EQ(axis.values,
                      (std::vector<std::string>{"off", "4"}));
        }
    }
}

TEST(Validate, EachCrossFieldRule)
{
    RunOptions o;
    EXPECT_FALSE(validate(o));
    EXPECT_FALSE(validate(o, {true, false}));

    RunOptions os_vm;
    os_vm.os.enabled = true;
    os_vm.vm.enabled = true;
    EXPECT_TRUE(validate(os_vm));

    RunOptions tuned;
    tuned.tuner.enabled = true;
    EXPECT_FALSE(validate(tuned));
    EXPECT_TRUE(validate(tuned, {true, false}));
    tuned.mode = PrefetchMode::PS;
    EXPECT_TRUE(validate(tuned));
    tuned.mode = PrefetchMode::MS;
    tuned.mc_prefetcher = McPrefetcherKind::NextLine;
    EXPECT_TRUE(validate(tuned));

    RunOptions tenants;
    tenants.tenants.enabled = true;
    EXPECT_FALSE(validate(tenants));
    EXPECT_TRUE(validate(tenants, {true, false}));

    EXPECT_FALSE(validate(o, {false, true}));
    EXPECT_TRUE(validate(o, {true, true}));
}

TEST(Validate, GridSkipsInvalidPoints)
{
    std::vector<SweepAxis> axes = sweepAxes();
    const std::vector<CliFlag> flags = sweepAxisFlags(axes);
    ASSERT_FALSE(applyCliArgs({"--modes", "NP,MS", "--prefetchers",
                               "asd,nextline", "--vm-policies", "off,seq",
                               "--os-frames", "off,64", "--tune"},
                              flags, ""));
    const std::vector<RunOptions> grid = expandGrid(RunOptions{}, axes);
    // 2 modes x 2 kinds x 3 VM/OS points, plus the one tunable
    // (MS, asd) variant of each VM/OS point.
    EXPECT_EQ(grid.size(), 2u * 2u * 3u + 3u);
    for (const RunOptions &point : grid)
        EXPECT_FALSE(validate(point));
}

namespace
{

RunMetrics
everyMetric()
{
    RunMetrics m;
    m.cycles = 1;
    m.accesses = 2;
    m.power.background_pj = 3.5;
    m.power.activate_pj = 4.25;
    m.power.read_pj = 5.125;
    m.power.write_pj = 6.0625;
    m.power.refresh_pj = 7.5;
    m.dram_watts = 8.25;
    m.dram_energy_mj = 9.75;
    m.useful_prefetch_pct = 10.5;
    m.coverage_pct = 11.25;
    m.delayed_regular_pct = 12.125;
    m.mc_reads = 13;
    m.mc_writes = 14;
    m.ms_prefetches_issued = 15;
    m.buffer_hits = 16;
    m.lpq_drops = 17;
    m.vm_enabled = true;
    m.tlb_hits = 18;
    m.tlb_misses = 19;
    m.tlb_evictions = 20;
    m.page_walk_cycles = 21;
    m.pages_mapped = 22;
    m.os_enabled = true;
    m.os_minor_faults = 23;
    m.os_major_faults = 24;
    m.os_reclaims = 25;
    m.os_writebacks = 26;
    m.os_shootdowns = 27;
    m.os_stall_cycles = 28;
    m.os_resident_pages = 29;
    m.tenants_enabled = true;
    m.tenant_arrivals = 30;
    m.tenant_departures = 31;
    m.tenant_active = 32;
    return m;
}

/** @p doc with member @p path dropped, or replaced when given. */
JsonValue
edited(const JsonValue &doc, const std::vector<std::string> &path,
       std::size_t depth, const JsonValue *replacement)
{
    std::vector<std::pair<std::string, JsonValue>> members;
    for (const auto &[name, value] : doc.members()) {
        if (name != path[depth])
            members.emplace_back(name, value);
        else if (depth + 1 < path.size())
            members.emplace_back(
                name, edited(value, path, depth + 1, replacement));
        else if (replacement)
            members.emplace_back(name, *replacement);
    }
    return JsonValue::makeObject(std::move(members));
}

/** Every leaf path of @p doc. */
void
leafPaths(const JsonValue &doc, std::vector<std::string> prefix,
          std::vector<std::vector<std::string>> &out)
{
    for (const auto &[name, value] : doc.members()) {
        prefix.push_back(name);
        if (value.kind() == JsonValue::Kind::Object)
            leafPaths(value, prefix, out);
        else
            out.push_back(prefix);
        prefix.pop_back();
    }
}

} // namespace

TEST(MetricsJson, EveryFieldRoundTrips)
{
    for (RunMetrics m : {everyMetric(), RunMetrics{}}) {
        const auto doc = jsonParse(toJson(m));
        ASSERT_TRUE(doc);
        const auto back = metricsFromJson(*doc);
        ASSERT_TRUE(back);
        EXPECT_TRUE(*back == m);
    }
}

TEST(MetricsJson, MissingOrMistypedFieldIsRejected)
{
    const auto doc = jsonParse(toJson(everyMetric()));
    ASSERT_TRUE(doc);
    std::vector<std::vector<std::string>> paths;
    leafPaths(*doc, {}, paths);
    EXPECT_GE(paths.size(), 34u);
    const JsonValue text = JsonValue::makeString("x");
    for (const auto &path : paths) {
        if (path.back() == "total")
            continue; // derived from the five components, not read
        SCOPED_TRACE(path.back());
        EXPECT_FALSE(metricsFromJson(edited(*doc, path, 0, nullptr)));
        EXPECT_FALSE(metricsFromJson(edited(*doc, path, 0, &text)));
    }
    // Optional groups may be absent as a whole, never in part.
    EXPECT_TRUE(metricsFromJson(edited(*doc, {"os"}, 0, nullptr)));
    EXPECT_TRUE(metricsFromJson(edited(*doc, {"tenants"}, 0, nullptr)));
    EXPECT_FALSE(metricsFromJson(edited(*doc, {"vm"}, 0, nullptr)));
    EXPECT_FALSE(metricsFromJson(edited(*doc, {"os"}, 0, &text)));
}
