/**
 * @file
 * Golden pin of every translated run shape: each VM frame policy on
 * one thread and on an SMT pair, a VM run split at a snapshot and
 * restored, single-thread OS-model runs with both page-table walkers,
 * and the OS + tenant run split at a snapshot and under the tuner;
 * plus a plain MS bwaves run under every memory-side contender (GHB
 * in both correlation modes), each also split at a snapshot.
 * Each case records the metrics JSON verbatim, the per-epoch
 * telemetry CSV as a row count plus FNV-1a hash, and FNV-1a hashes of
 * the telemetry JSON and Chrome trace. The values were captured
 * before VM mode moved onto the OS kernel's translation path, and the
 * telemetry hashes before the recorder sampled the stat registry, and
 * the contender metrics before ASD and the baselines shared one
 * prefetch buffer, scheduler and epoch clock (the baselines recorded
 * no telemetry until then); any byte that moves means the two paths
 * are not equivalent. Every split also pins the FNV-1a of the
 * snapshot image it saved, as does a mid-run image of the tuned run
 * (its "tun" section), so a change to how components lay out their
 * snapshots cannot move a byte unnoticed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/sinks.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
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
    std::uint64_t snapshot_fnv = 0; //!< the split image; 0 if none
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
    const RunResult res = BenchmarkRun(findBenchmark(bench), options).run();
    return outcomeOf(res.metrics, res.epochs);
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

/**
 * @p bench_name under @p options, saved at @p split and finished
 * restored.
 */
Outcome
splitAt(const RunOptions &options, Cycle split,
        const std::string &bench_name = "tpcc")
{
    const Benchmark bench = findBenchmark(bench_name);
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
    Outcome out = outcomeOf(loader.collectMetrics(),
                            loader.telemetry()->records());
    out.snapshot_fnv = fnv1a(std::string(bytes.begin(), bytes.end()));
    return out;
}

/** @p options with the phase-adaptive tuner on. */
RunOptions
tunerOn(RunOptions options)
{
    options.tuner.enabled = true;
    options.tuner.phase_window = 1;
    options.tuner.min_epochs_between = 1;
    options.tuner.shadow_horizon = 20000;
    options.tuner.phase_threshold_milli_pct = 5000;
    return options;
}

/** tpcc under @p options with the phase-adaptive tuner on. */
Outcome
tuned(const RunOptions &options)
{
    const RunResult res =
        BenchmarkRun(findBenchmark("tpcc"), tunerOn(options)).run();
    return outcomeOf(res.metrics, res.epochs);
}

/**
 * bwaves under the memory-side prefetcher @p kind alone (MS), long
 * enough for two epochs.
 */
RunOptions
contenderOptions(McPrefetcherKind kind, bool ghb_delta = false)
{
    RunOptions o = baseOptions();
    o.accesses = 80000;
    o.mode = PrefetchMode::MS;
    o.mc_prefetcher = kind;
    o.ghb_delta_correlate = ghb_delta;
    return o;
}

/** Every memory-side contender, GHB in both correlation modes. */
std::vector<std::pair<std::string, RunOptions>>
contenders()
{
    using K = McPrefetcherKind;
    return {
        {"ms_asd", contenderOptions(K::Asd)},
        {"ms_nextline", contenderOptions(K::NextLine)},
        {"ms_p5", contenderOptions(K::P5Style)},
        {"ms_ghb_ac", contenderOptions(K::Ghb)},
        {"ms_ghb_dc", contenderOptions(K::Ghb, true)},
        {"ms_stride", contenderOptions(K::Stride)},
        {"ms_dspatch", contenderOptions(K::Dspatch)},
        {"ms_perceptron", contenderOptions(K::Perceptron)},
    };
}

/** Mid-run split cycle of every contender case (after epoch 1). */
constexpr Cycle kContenderSplit = 400000;

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
    using K = McPrefetcherKind;
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
         {R"({"cycles":721739,"accesses":30000,"dram_watts":1.3607700419126583,"dram_energy_mj":0.46065704,"power_pj":{"background":404173840,"activate":19176000,"read":36103200,"write":0,"refresh":1204000,"total":460657040},"useful_prefetch_pct":66.36029411764706,"coverage_pct":13.458431713682117,"delayed_regular_pct":2.800114876507754,"mc_reads":8047,"mc_writes":0,"ms_prefetches_issued":1632,"buffer_hits":1083,"lpq_drops":94,"vm":{"enabled":true,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":171840,"pages_mapped":1808}})", 5, 0xa38c59ed538791bfULL, 0xd9d2fef919c41995ULL, 0xda0eeb1c6fa7ed2aULL, 0x9c3e27c881bd8a24ULL}},
        {"os_radix",
         [] { return single("tpcc", osOptions(PageWalkerKind::Radix)); },
         {R"({"cycles":5157198,"accesses":30000,"dram_watts":1.2143191949116556,"dram_energy_mj":2.93737548,"power_pj":{"background":2888030880,"activate":10734000,"read":29958600,"write":0,"refresh":8652000,"total":2937375480},"useful_prefetch_pct":49.13657770800628,"coverage_pct":4.596857100895873,"delayed_regular_pct":0.7850985221674877,"mc_reads":6809,"mc_writes":0,"ms_prefetches_issued":637,"buffer_hits":313,"lpq_drops":49,"vm":{"enabled":false,"tlb_hits":27136,"tlb_misses":2864,"tlb_evictions":2800,"page_walk_cycles":4730940,"pages_mapped":1809},"os":{"minor_faults":1780,"major_faults":29,"reclaims":1297,"writebacks":1083,"shootdowns":1,"stall_cycles":4730940,"resident_pages":512}})", 4, 0x6297e4a3180fe3d7ULL, 0xc9bfa9e747215d5eULL, 0xdea1618994bb12feULL}},
        {"os_hashed_tenants",
         [] { return single("tpcc", osOptions(PageWalkerKind::Hashed)); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL}},
        {"os_hashed_tenants_split",
         [] { return splitAt(osOptions(PageWalkerKind::Hashed), 3000000); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL, 0xd72401b59239233dULL}},
        {"os_hashed_tenants_tuned",
         [] { return tuned(osOptions(PageWalkerKind::Hashed)); },
         {R"({"cycles":6129046,"accesses":30000,"dram_watts":1.213507120344667,"dram_energy_mj":3.4885745600000004,"power_pj":{"background":3432265760,"activate":20508000,"read":25510800,"write":0,"refresh":10290000,"total":3488574560},"useful_prefetch_pct":43.05555555555556,"coverage_pct":0.5138405436764462,"delayed_regular_pct":0.08330556481172942,"mc_reads":6033,"mc_writes":0,"ms_prefetches_issued":72,"buffer_hits":31,"lpq_drops":0,"vm":{"enabled":false,"tlb_hits":21032,"tlb_misses":8968,"tlb_evictions":8904,"page_walk_cycles":5643880,"pages_mapped":2070},"os":{"minor_faults":2037,"major_faults":33,"reclaims":1558,"writebacks":1289,"shootdowns":1,"stall_cycles":5643880,"resident_pages":512},"tenants":{"arrivals":9,"departures":5,"active":4}})", 4, 0x2a4a16f521a0b1feULL, 0xab2942f5f65149beULL, 0x49500e0caa95974eULL}},
        {"ms_asd", [] { return single("bwaves", contenderOptions(K::Asd)); },
         {R"({"cycles":707510,"accesses":80000,"dram_watts":1.2998127585475825,"dram_energy_mj":0.4313464,"power_pj":{"background":396205600,"activate":8874000,"read":25090800,"write":0,"refresh":1176000,"total":431346400},"useful_prefetch_pct":79.33333333333333,"coverage_pct":23.238061423752885,"delayed_regular_pct":6.452358926919519,"mc_reads":5633,"mc_writes":0,"ms_prefetches_issued":1650,"buffer_hits":1309,"lpq_drops":11,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x7eecaed919a0ac41ULL, 0x207aa09529bf3918ULL, 0xd4279e9606ef927dULL}},
        {"ms_nextline", [] { return single("bwaves", contenderOptions(K::NextLine)); },
         {R"({"cycles":564770,"accesses":80000,"dram_watts":1.3402317417709864,"dram_energy_mj":0.3550294,"power_pj":{"background":316271200,"activate":8934000,"read":28900200,"write":0,"refresh":924000,"total":355029400},"useful_prefetch_pct":71.12068965517241,"coverage_pct":55.90228245363766,"delayed_regular_pct":33.96684189243833,"mc_reads":5608,"mc_writes":0,"ms_prefetches_issued":4408,"buffer_hits":3135,"lpq_drops":104,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x0bd8023eddcaea83ULL, 0xc66d6dbd7976f539ULL, 0x8e7c570c9d647b45ULL}},
        {"ms_p5", [] { return single("bwaves", contenderOptions(K::P5Style)); },
         {R"({"cycles":592260,"accesses":80000,"dram_watts":1.3230502427987707,"dram_energy_mj":0.3675374,"power_pj":{"background":331665600,"activate":8646000,"read":26245800,"write":0,"refresh":980000,"total":367537400},"useful_prefetch_pct":81.25550014667058,"coverage_pct":49.376114081996434,"delayed_regular_pct":24.859154929577464,"mc_reads":5610,"mc_writes":0,"ms_prefetches_issued":3409,"buffer_hits":2770,"lpq_drops":11,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0xa4fb30b9992f7c7cULL, 0x30c550b50212a950ULL, 0x77a0814cadf349b1ULL}},
        {"ms_ghb_ac", [] { return single("bwaves", contenderOptions(K::Ghb)); },
         {R"({"cycles":799150,"accesses":80000,"dram_watts":1.287427601826941,"dram_energy_mj":0.482574,"power_pj":{"background":447524000,"activate":9150000,"read":24570000,"write":0,"refresh":1330000,"total":482574000},"useful_prefetch_pct":0,"coverage_pct":0,"delayed_regular_pct":0.2826855123674912,"mc_reads":5660,"mc_writes":0,"ms_prefetches_issued":190,"buffer_hits":0,"lpq_drops":37,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0xd7dbc1c22a07e841ULL, 0x4b11fba6c7eedaefULL, 0x360c5ea796da17e9ULL}},
        {"ms_ghb_dc", [] { return single("bwaves", contenderOptions(K::Ghb, true)); },
         {R"({"cycles":797937,"accesses":80000,"dram_watts":1.2891835709335449,"dram_energy_mj":0.48249872000000005,"power_pj":{"background":446844720,"activate":9768000,"read":24570000,"write":0,"refresh":1316000,"total":482498720},"useful_prefetch_pct":17.316017316017316,"coverage_pct":0.7068386640749249,"delayed_regular_pct":0.2669514148424987,"mc_reads":5659,"mc_writes":0,"ms_prefetches_issued":231,"buffer_hits":40,"lpq_drops":37,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x729895164d472104ULL, 0x7fa13bf13ac03f59ULL, 0x37ca27bce9b22eb2ULL}},
        {"ms_stride", [] { return single("bwaves", contenderOptions(K::Stride)); },
         {R"({"cycles":709246,"accesses":80000,"dram_watts":1.3000730064321828,"dram_energy_mj":0.43249136000000005,"power_pj":{"background":397177760,"activate":8736000,"read":25401600,"write":0,"refresh":1176000,"total":432491360},"useful_prefetch_pct":76.25598086124401,"coverage_pct":22.562378340116794,"delayed_regular_pct":8.043875685557587,"mc_reads":5651,"mc_writes":0,"ms_prefetches_issued":1672,"buffer_hits":1275,"lpq_drops":1,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x315565f4f34fcf67ULL, 0xe2c0aa48f5f81386ULL, 0xf27cc40ae002535cULL}},
        {"ms_dspatch", [] { return single("bwaves", contenderOptions(K::Dspatch)); },
         {R"({"cycles":741998,"accesses":80000,"dram_watts":1.293370884773274,"dram_energy_mj":0.45013068,"power_pj":{"background":415518880,"activate":7890000,"read":25489800,"write":0,"refresh":1232000,"total":450130680},"useful_prefetch_pct":60.91743119266055,"coverage_pct":11.766790714159136,"delayed_regular_pct":1.0443864229765014,"mc_reads":5643,"mc_writes":0,"ms_prefetches_issued":1090,"buffer_hits":664,"lpq_drops":475,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x926df9425c6a9286ULL, 0xfe5f8e1a3326853cULL, 0x2b87471fac443eefULL}},
        {"ms_perceptron", [] { return single("bwaves", contenderOptions(K::Perceptron)); },
         {R"({"cycles":577484,"accesses":80000,"dram_watts":1.3343870661005326,"dram_energy_mj":0.36143864000000003,"power_pj":{"background":323391040,"activate":8796000,"read":28299600,"write":0,"refresh":952000,"total":361438640},"useful_prefetch_pct":71.91066997518611,"coverage_pct":51.694612914734215,"delayed_regular_pct":22.89512555391433,"mc_reads":5606,"mc_writes":0,"ms_prefetches_issued":4030,"buffer_hits":2898,"lpq_drops":147,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})", 3, 0x78ab43d745cc4bbeULL, 0x49050591fb81c982ULL, 0x29670380dbd74a78ULL}},
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
        EXPECT_EQ(got.snapshot_fnv, c.expected.snapshot_fnv)
            << std::hex << "0x" << got.snapshot_fnv;
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

/** FNV-1a of each contender's mid-run snapshot image, by name. */
const std::map<std::string, std::uint64_t> kContenderSnapshotFnv = {
    {"ms_asd", 0xc0a2e55f3e82f954ULL},
    {"ms_nextline", 0xff52a2f3ea40687bULL},
    {"ms_p5", 0xcc25cc569a3fce04ULL},
    {"ms_ghb_ac", 0x5382884a9b94d494ULL},
    {"ms_ghb_dc", 0xec64e1fb48e4b885ULL},
    {"ms_stride", 0x85b00af453077309ULL},
    {"ms_dspatch", 0x938b536f0b5d333eULL},
    {"ms_perceptron", 0x02d7ff81a19b052fULL},
};

/**
 * Every memory-side contender split at a mid-run snapshot equals its
 * straight run: each one's "ms" section restores its whole state.
 * The image itself is pinned byte for byte.
 */
TEST(TranslationGolden, EveryContenderSplitMatchesStraightRun)
{
    for (const auto &[name, options] : contenders()) {
        SCOPED_TRACE(name);
        const Outcome straight = single("bwaves", options);
        const Outcome split = splitAt(options, kContenderSplit, "bwaves");
        EXPECT_EQ(split.json, straight.json);
        EXPECT_EQ(split.csv_rows, straight.csv_rows);
        EXPECT_EQ(split.csv_fnv, straight.csv_fnv);
        EXPECT_EQ(split.tel_json_fnv, straight.tel_json_fnv);
        EXPECT_EQ(split.trace_fnv, straight.trace_fnv);
        EXPECT_EQ(split.snapshot_fnv, kContenderSnapshotFnv.at(name))
            << std::hex << "0x" << split.snapshot_fnv;
    }
}

/**
 * A mid-run image of the tuned OS + tenant run, taken through
 * BenchmarkRun so its "tun" section (adopted tuning, phase detector,
 * decision log, pending work) is pinned with the machine's sections.
 */
TEST(TranslationGolden, TunedSnapshotIsPinned)
{
    BenchmarkRun run(findBenchmark("tpcc"),
                     tunerOn(osOptions(PageWalkerKind::Hashed)));
    run.runUntil(4500000); // after the first decision
    SnapshotWriter writer;
    run.saveSnapshot(writer);
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);
    EXPECT_FALSE(run.result().decisions.empty());
    const std::uint64_t got =
        fnv1a(std::string(bytes.begin(), bytes.end()));
    EXPECT_EQ(got, 0x0ef1a49562417287ULL) << std::hex << "0x" << got;
}

} // namespace
