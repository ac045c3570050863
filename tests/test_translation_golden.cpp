/**
 * @file
 * Golden pin of every translated run shape: each VM frame policy on
 * one thread and on an SMT pair, a VM run split at a snapshot and
 * restored, single-thread OS-model runs with both page-table walkers,
 * and the OS + tenant run split at a snapshot and under the tuner.
 * Each case records the metrics JSON verbatim, the per-epoch
 * telemetry CSV as a row count plus FNV-1a hash, and FNV-1a hashes of
 * the telemetry JSON and Chrome trace. The values were captured
 * before VM mode moved onto the OS kernel's translation path, and the
 * telemetry hashes before the recorder sampled the stat registry; any
 * byte that moves means the two paths are not equivalent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/sinks.hpp"
#include "trace/synthetic.hpp"
#include "tuner/tuned_run.hpp"
#include "workloads/profiles.hpp"

using namespace asd;

namespace
{

constexpr std::uint64_t kAccesses = 30000;
constexpr std::uint64_t kHash = 0x7a1e5ULL;

/** What one run leaves behind: metrics JSON and telemetry outputs. */
struct Outcome
{
    std::string json;
    std::uint64_t csv_rows = 0;
    std::uint64_t csv_fnv = 0;
    std::uint64_t tel_json_fnv = 0;
    std::uint64_t trace_fnv = 0;
};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Outcome
outcomeOf(const RunMetrics &metrics,
          const std::vector<EpochRecord> &epochs)
{
    std::ostringstream csv;
    writeTelemetryCsv(epochs, csv);
    const std::string text = csv.str();
    Outcome out;
    out.json = toJson(metrics);
    for (const char c : text)
        out.csv_rows += c == '\n' ? 1 : 0;
    out.csv_fnv = fnv1a(text);
    out.tel_json_fnv = fnv1a(telemetryJson(epochs));
    out.trace_fnv = fnv1a(telemetryChromeTrace(epochs));
    return out;
}

RunOptions
baseOptions()
{
    RunOptions o;
    o.accesses = kAccesses;
    o.telemetry.enabled = true;
    return o;
}

RunOptions
vmOptions(FrameAllocPolicy policy)
{
    RunOptions o = baseOptions();
    o.vm.enabled = true;
    o.vm.policy = policy;
    return o;
}

RunOptions
osOptions(PageWalkerKind walker)
{
    RunOptions o = baseOptions();
    o.os.enabled = true;
    o.os.frames = 512;
    o.vm.walker = walker;
    if (walker == PageWalkerKind::Hashed) {
        o.tenants.enabled = true;
        o.tenants.slots = 4;
        o.tenants.mean_lifetime = 4000;
    }
    return o;
}

Outcome
single(const std::string &bench, const RunOptions &options)
{
    std::vector<EpochRecord> epochs;
    const RunMetrics m =
        runBenchmark(findBenchmark(bench), options, &epochs);
    return outcomeOf(m, epochs);
}

Outcome
smtPair(const RunOptions &options)
{
    std::vector<EpochRecord> epochs;
    const RunMetrics m = runSmtPair(findBenchmark("bwaves"),
                                    findBenchmark("tpcc"), options,
                                    &epochs);
    return outcomeOf(m, epochs);
}

/** tpcc under @p options, saved at @p split and finished restored. */
Outcome
splitAt(const RunOptions &options, Cycle split)
{
    const Benchmark bench = findBenchmark("tpcc");
    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, options);
    const SystemConfig config = makeSystemConfig(options);

    const auto save_trace = makeTraceSource(options, trace_config);
    System saver(config, {save_trace.get()});
    saver.runUntil(split);
    SnapshotWriter writer;
    saver.saveSnapshot(writer);
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    const auto load_trace = makeTraceSource(options, trace_config);
    System loader(config, {load_trace.get()});
    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    loader.loadSnapshot(reader);
    loader.runUntil(kNoCycle);
    return outcomeOf(loader.collectMetrics(),
                     loader.telemetry()->records());
}

/** tpcc under @p options with the phase-adaptive tuner on. */
Outcome
tuned(RunOptions options)
{
    options.tuner.enabled = true;
    options.tuner.phase_window = 1;
    options.tuner.min_epochs_between = 1;
    options.tuner.shadow_horizon = 20000;
    options.tuner.phase_threshold_milli_pct = 5000;
    const TunedRunResult res =
        TunedRun(findBenchmark("tpcc"), options).run();
    return outcomeOf(res.metrics, res.epochs);
}

struct GoldenCase
{
    std::string name;
    std::function<Outcome()> run;
    Outcome expected;
};

// clang-format off
std::vector<GoldenCase>
goldenCases()
{
    using P = FrameAllocPolicy;
    return {
        {"vm_identity", [] { return single("tpcc", vmOptions(P::Identity)); },
         {R"({"cycles":697436,"accesses":30000,"dram_watts":1.3591974126944981,"dram_energy_mj":0.44463096,"power_pj":{"background":390564160,"activate":17706000,"read":35212800,"write":0,"refresh":1148000,"total":444630960},"useful_prefetch_pct":68.88888888888889,"coverage_pct":13.32827516439049,"delayed_regular_pct":2.6699737379632333,"mc_reads":7908,"mc_writes":0,"ms_prefetches_issued":1530,"buffer_hits":1054,"lpq_drops":99,"vm":{"enabled":true,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":171840,"pages_mapped":1808}})", 4, 0xfe615ae075a52cebULL, 0xc498df926b4d705bULL, 0x37293bd50b067466ULL}},
        {"vm_seq", [] { return single("tpcc", vmOptions(P::Sequential)); },
         {R"({"cycles":670260,"accesses":30000,"dram_watts":1.3358974714289977,"dram_energy_mj":0.41998060000000004,"power_pj":{"background":375345600,"activate":7542000,"read":35973000,"write":0,"refresh":1120000,"total":419980600},"useful_prefetch_pct":65.09433962264151,"coverage_pct":12.92134831460674,"delayed_regular_pct":2.4946236559139785,"mc_reads":8010,"mc_writes":0,"ms_prefetches_issued":1590,"buffer_hits":1035,"lpq_drops":75,"vm":{"enabled":true,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":171840,"pages_mapped":1808}})", 5, 0x03c9d968b1feef69ULL, 0x4197de025ec9358cULL, 0xa46cefe63de933b5ULL}},
        {"vm_random", [] { return single("tpcc", vmOptions(P::RandomShuffle)); },
         {R"({"cycles":721739,"accesses":30000,"dram_watts":1.3607700419126583,"dram_energy_mj":0.46065704,"power_pj":{"background":404173840,"activate":19176000,"read":36103200,"write":0,"refresh":1204000,"total":460657040},"useful_prefetch_pct":66.36029411764706,"coverage_pct":13.458431713682117,"delayed_regular_pct":2.800114876507754,"mc_reads":8047,"mc_writes":0,"ms_prefetches_issued":1632,"buffer_hits":1083,"lpq_drops":94,"vm":{"enabled":true,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":171840,"pages_mapped":1808}})", 5, 0xa38c59ed538791bfULL, 0xd9d2fef919c41995ULL, 0xda0eeb1c6fa7ed2aULL}},
        {"vm_huge", [] { return single("tpcc", vmOptions(P::HugePage)); },
         {R"({"cycles":679498,"accesses":30000,"dram_watts":1.3644704616643462,"dram_energy_mj":0.43487568000000004,"power_pj":{"background":380518880,"activate":17856000,"read":35380800,"write":0,"refresh":1120000,"total":434875680},"useful_prefetch_pct":67.46134020618557,"coverage_pct":13.221366334133098,"delayed_regular_pct":3.0413271245634457,"mc_reads":7919,"mc_writes":0,"ms_prefetches_issued":1552,"buffer_hits":1047,"lpq_drops":88,"vm":{"enabled":true,"tlb_hits":27805,"tlb_misses":2195,"tlb_evictions":2131,"page_walk_cycles":131700,"pages_mapped":672}})", 4, 0xc74167ee37b9e2c6ULL, 0x9f290cef70e88fd0ULL, 0x0d4e3ce5e7b85aeaULL}},
        {"vm_identity_smt", [] { return smtPair(vmOptions(P::Identity)); },
         {R"({"cycles":770847,"accesses":60000,"dram_watts":1.3883898016597327,"dram_energy_mj":0.50198692,"power_pj":{"background":431674320,"activate":23610000,"read":45414600,"write":0,"refresh":1288000,"total":501986920},"useful_prefetch_pct":67.32721121314644,"coverage_pct":13.741738186840289,"delayed_regular_pct":3.076395242451967,"mc_reads":10137,"mc_writes":0,"ms_prefetches_issued":2069,"buffer_hits":1393,"lpq_drops":481,"vm":{"enabled":true,"tlb_hits":56689,"tlb_misses":3311,"tlb_evictions":3183,"page_walk_cycles":198660,"pages_mapped":2138}})", 6, 0xbe61bd5d0610c35aULL, 0xa03f7bf2e237d31dULL, 0x3641f05b44256985ULL}},
        {"vm_seq_smt", [] { return smtPair(vmOptions(P::Sequential)); },
         {R"({"cycles":728002,"accesses":60000,"dram_watts":1.3619510098049181,"dram_energy_mj":0.46505772,"power_pj":{"background":407681120,"activate":10044000,"read":46128600,"write":0,"refresh":1204000,"total":465057720},"useful_prefetch_pct":67.6056338028169,"coverage_pct":13.493602171384257,"delayed_regular_pct":2.7341999103541013,"mc_reads":10316,"mc_writes":0,"ms_prefetches_issued":2059,"buffer_hits":1392,"lpq_drops":376,"vm":{"enabled":true,"tlb_hits":56689,"tlb_misses":3311,"tlb_evictions":3183,"page_walk_cycles":198660,"pages_mapped":2138}})", 6, 0x849c7f8bcef01989ULL, 0xbff630dd97bd99baULL, 0x8c042c1c701f1e87ULL}},
        {"vm_random_smt", [] { return smtPair(vmOptions(P::RandomShuffle)); },
         {R"({"cycles":788014,"accesses":60000,"dram_watts":1.3891054611720095,"dram_energy_mj":0.51343084,"power_pj":{"background":441287840,"activate":24438000,"read":46389000,"write":0,"refresh":1316000,"total":513430840},"useful_prefetch_pct":67.02932828760643,"coverage_pct":13.693467336683417,"delayed_regular_pct":3.29190460194827,"mc_reads":10348,"mc_writes":0,"ms_prefetches_issued":2114,"buffer_hits":1417,"lpq_drops":477,"vm":{"enabled":true,"tlb_hits":56689,"tlb_misses":3311,"tlb_evictions":3183,"page_walk_cycles":198660,"pages_mapped":2138}})", 6, 0xea01fde2aefb0629ULL, 0x00b84d30787fe454ULL, 0x07ba18b85620603fULL}},
        {"vm_huge_smt", [] { return smtPair(vmOptions(P::HugePage)); },
         {R"({"cycles":745726,"accesses":60000,"dram_watts":1.395175269629864,"dram_energy_mj":0.48800116000000004,"power_pj":{"background":417606560,"activate":23832000,"read":45330600,"write":0,"refresh":1232000,"total":488001160},"useful_prefetch_pct":67.7240684793555,"coverage_pct":13.24862096138692,"delayed_regular_pct":3.008970137390712,"mc_reads":10152,"mc_writes":0,"ms_prefetches_issued":1986,"buffer_hits":1345,"lpq_drops":525,"vm":{"enabled":true,"tlb_hits":57500,"tlb_misses":2500,"tlb_evictions":2372,"page_walk_cycles":150000,"pages_mapped":843}})", 6, 0xdae0330a5c32bfb5ULL, 0x6bd0adb47400acc9ULL, 0xee4d53a24fb51bc4ULL}},
        {"vm_random_split",
         [] { return splitAt(vmOptions(P::RandomShuffle), 300000); },
         {R"({"cycles":721739,"accesses":30000,"dram_watts":1.3607700419126583,"dram_energy_mj":0.46065704,"power_pj":{"background":404173840,"activate":19176000,"read":36103200,"write":0,"refresh":1204000,"total":460657040},"useful_prefetch_pct":66.36029411764706,"coverage_pct":13.458431713682117,"delayed_regular_pct":2.800114876507754,"mc_reads":8047,"mc_writes":0,"ms_prefetches_issued":1632,"buffer_hits":1083,"lpq_drops":94,"vm":{"enabled":true,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":171840,"pages_mapped":1808}})", 5, 0xa38c59ed538791bfULL, 0xd9d2fef919c41995ULL, 0xda0eeb1c6fa7ed2aULL}},
        {"os_radix",
         [] { return single("tpcc", osOptions(PageWalkerKind::Radix)); },
         {R"({"cycles":5157198,"accesses":30000,"dram_watts":1.2143191949116556,"dram_energy_mj":2.93737548,"power_pj":{"background":2888030880,"activate":10734000,"read":29958600,"write":0,"refresh":8652000,"total":2937375480},"useful_prefetch_pct":49.13657770800628,"coverage_pct":4.596857100895873,"delayed_regular_pct":0.7850985221674877,"mc_reads":6809,"mc_writes":0,"ms_prefetches_issued":637,"buffer_hits":313,"lpq_drops":49,"vm":{"enabled":false,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":4730940,"pages_mapped":1809},"os":{"minor_faults":1780,"major_faults":29,"reclaims":1297,"writebacks":1083,"shootdowns":1,"stall_cycles":4730940,"resident_pages":512}})", 4, 0x6297e4a3180fe3d7ULL, 0xc9bfa9e747215d5eULL, 0xdea1618994bb12feULL}},
        {"os_hashed_tenants",
         [] { return single("tpcc", osOptions(PageWalkerKind::Hashed)); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL}},
        {"os_hashed_tenants_split",
         [] { return splitAt(osOptions(PageWalkerKind::Hashed), 3000000); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL}},
        {"os_hashed_tenants_tuned",
         [] { return tuned(osOptions(PageWalkerKind::Hashed)); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL}},
    };
}
// clang-format on

TEST(TranslationGolden, EveryCaseReproducesItsPinnedOutputs)
{
    for (const GoldenCase &c : goldenCases()) {
        SCOPED_TRACE(c.name);
        const Outcome got = c.run();
        EXPECT_EQ(got.json, c.expected.json);
        EXPECT_EQ(got.csv_rows, c.expected.csv_rows);
        EXPECT_EQ(got.csv_fnv, c.expected.csv_fnv)
            << std::hex << "0x" << got.csv_fnv;
        EXPECT_EQ(got.tel_json_fnv, c.expected.tel_json_fnv)
            << std::hex << "0x" << got.tel_json_fnv;
        EXPECT_EQ(got.trace_fnv, c.expected.trace_fnv)
            << std::hex << "0x" << got.trace_fnv;
    }
}

/** The split run must also equal its own straight-through run. */
TEST(TranslationGolden, VmSplitMatchesStraightRun)
{
    const RunOptions o = vmOptions(FrameAllocPolicy::RandomShuffle);
    const Outcome straight = single("tpcc", o);
    const Outcome split = splitAt(o, 300000);
    EXPECT_EQ(split.json, straight.json);
    EXPECT_EQ(split.csv_rows, straight.csv_rows);
    EXPECT_EQ(split.csv_fnv, straight.csv_fnv);
    EXPECT_EQ(split.tel_json_fnv, straight.tel_json_fnv);
    EXPECT_EQ(split.trace_fnv, straight.trace_fnv);
}

/** Same for the OS + tenant run, split mid-mix. */
TEST(TranslationGolden, TenantSplitMatchesStraightRun)
{
    const RunOptions o = osOptions(PageWalkerKind::Hashed);
    const Outcome straight = single("tpcc", o);
    const Outcome split = splitAt(o, 3000000);
    EXPECT_EQ(split.json, straight.json);
    EXPECT_EQ(split.csv_fnv, straight.csv_fnv);
    EXPECT_EQ(split.tel_json_fnv, straight.tel_json_fnv);
    EXPECT_EQ(split.trace_fnv, straight.trace_fnv);
}

} // namespace
