/**
 * @file
 * Golden pin of every RunOptions view the tools persist or compare:
 * sweep job ids, the options JSON (and the config hash built on it),
 * the metrics JSON, and which jobs share a warm-up snapshot. The
 * expected strings were captured from the hand-written serializers;
 * any drift in a byte of them breaks result adoption on --resume,
 * snapshot binding, and cross-version comparisons of sweep output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/job.hpp"
#include "runner/warm_start.hpp"
#include "sim/serialize.hpp"
#include "sim/snapshot_io.hpp"

using namespace asd;

namespace
{

struct GoldenCase
{
    std::string name;
    RunOptions options;
    std::optional<std::uint64_t> seed;
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    const auto add = [&cases](std::string name, RunOptions options,
                              std::optional<std::uint64_t> seed = {}) {
        cases.push_back({std::move(name), std::move(options), seed});
    };
    add("defaults", RunOptions{});
    for (const auto &[name, mode] :
         std::vector<std::pair<std::string, PrefetchMode>>{
             {"mode_np", PrefetchMode::NP},
             {"mode_ps", PrefetchMode::PS},
             {"mode_ms", PrefetchMode::MS}}) {
        RunOptions o;
        o.mode = mode;
        add(name, o);
    }
    for (const auto &[name, kind] :
         std::vector<std::pair<std::string, McPrefetcherKind>>{
             {"mc_nextline", McPrefetcherKind::NextLine},
             {"mc_p5", McPrefetcherKind::P5Style},
             {"mc_ghb", McPrefetcherKind::Ghb},
             {"mc_stride", McPrefetcherKind::Stride},
             {"mc_dspatch", McPrefetcherKind::Dspatch},
             {"mc_perceptron", McPrefetcherKind::Perceptron}}) {
        RunOptions o;
        o.mode = PrefetchMode::MS;
        o.mc_prefetcher = kind;
        add(name, o);
    }
    {
        RunOptions o;
        o.ps_kind = PsKind::Asd;
        add("ps_asd", o);
    }
    for (const auto &[name, sched] :
         std::vector<std::pair<std::string, SchedulerKind>>{
             {"sched_inorder", SchedulerKind::InOrder},
             {"sched_memoryless", SchedulerKind::Memoryless},
             {"sched_frfcfs", SchedulerKind::FrFcfs}}) {
        RunOptions o;
        o.scheduler = sched;
        add(name, o);
    }
    for (const auto &[name, policy] :
         std::vector<std::pair<std::string, FrameAllocPolicy>>{
             {"identity", FrameAllocPolicy::Identity},
             {"seq", FrameAllocPolicy::Sequential},
             {"random", FrameAllocPolicy::RandomShuffle},
             {"huge", FrameAllocPolicy::HugePage}}) {
        for (const std::uint64_t page : {4096u, 8192u}) {
            RunOptions o;
            o.vm.enabled = true;
            o.vm.policy = policy;
            o.vm.page_bytes = page;
            add("vm_" + name + "_" + std::to_string(page), o);
        }
    }
    {
        RunOptions o;
        o.os.enabled = true;
        o.os.frames = 2048;
        add("os_radix", o);
        o.vm.walker = PageWalkerKind::Hashed;
        o.os.major_fault_frac = 0.125;
        o.os.hashed_probe_cycles = 35;
        add("os_hashed", o);
    }
    {
        RunOptions o;
        o.tenants.enabled = true;
        o.tenants.slots = 6;
        o.tenants.zipf_s = 0.75;
        o.tenants.mean_lifetime = 20000;
        o.tenants.seed = 99;
        add("tenants", o);
    }
    {
        RunOptions o;
        o.mode = PrefetchMode::MS;
        o.tuner.enabled = true;
        o.tuner.shadow_horizon = 30000;
        o.tuner.max_decisions = 4;
        o.tuner.space.degrees = {1, 2};
        o.tuner.space.filter_slots = {8};
        o.tuner.space.buffer_lines = {16, 32, 64};
        o.tuner.space.epoch_reads = {2000};
        o.tuner.space.policies = {0, 5};
        add("tuner_custom_axes", o);
    }
    {
        RunOptions o;
        o.mode = PrefetchMode::MS;
        o.mc_prefetcher = McPrefetcherKind::Ghb;
        o.ghb_delta_correlate = true;
        add("ghb_dc", o);
    }
    {
        RunOptions o;
        o.fixed_policy = 3;
        o.accesses = 5000;
        o.warmup_cycles = 20000;
        add("policy_accesses_warmup_seed", o, 42);
    }
    {
        RunOptions o;
        o.buffer_lines = 32;
        o.filter_slots = 4;
        o.max_degree = 2;
        o.saturate_long_streams = true;
        o.ps_oracle = true;
        add("structure_knobs", o);
    }
    {
        RunOptions o;
        o.telemetry.enabled = true;
        o.telemetry.capture_slh = false;
        o.telemetry.max_epochs = 10;
        add("telemetry", o);
    }
    return cases;
}

struct GoldenView
{
    const char *name;
    const char *job_id;
    const char *json;
    std::uint64_t config_hash;
};

// clang-format off
const GoldenView kGolden[] = {
    {"defaults",
     "bwaves.PMS.asd.pb16_sf8_d1",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x0b4b3d145a352662ULL},
    {"mode_np",
     "bwaves.NP.asd.pb16_sf8_d1",
     R"({"mode":"NP","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xd7fdf70d9bcbcc98ULL},
    {"mode_ps",
     "bwaves.PS.asd.pb16_sf8_d1",
     R"({"mode":"PS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x6799aba9329aab01ULL},
    {"mode_ms",
     "bwaves.MS.asd.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x80a754eca23fcac6ULL},
    {"mc_nextline",
     "bwaves.MS.nextline.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"nextline","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xfa2517b25e1482cdULL},
    {"mc_p5",
     "bwaves.MS.p5.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"p5","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x792fd5f3f64df639ULL},
    {"mc_ghb",
     "bwaves.MS.ghb.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"ghb","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x987c0bb3e0154577ULL},
    {"mc_stride",
     "bwaves.MS.stride.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"stride","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xe880aa5ea59902a3ULL},
    {"mc_dspatch",
     "bwaves.MS.dspatch.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"dspatch","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x133ea06abed75e75ULL},
    {"mc_perceptron",
     "bwaves.MS.perceptron.pb16_sf8_d1",
     R"({"mode":"MS","mc_prefetcher":"perceptron","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xaca95b3edd8f39baULL},
    {"ps_asd",
     "bwaves.PMS.asd.pb16_sf8_d1.ps_asd",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"asd","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x44e86fe91c074b08ULL},
    {"sched_inorder",
     "bwaves.PMS.asd.pb16_sf8_d1.inorder",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"inorder","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x51b74aa9314b8d2eULL},
    {"sched_memoryless",
     "bwaves.PMS.asd.pb16_sf8_d1.memoryless",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"memoryless","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xd92811f65db99609ULL},
    {"sched_frfcfs",
     "bwaves.PMS.asd.pb16_sf8_d1.frfcfs",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"frfcfs","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x9ab252a681c74717ULL},
    {"vm_identity_4096",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_identity_p4096",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x8be73942e78c980bULL},
    {"vm_identity_8192",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_identity_p8192",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"identity","page_bytes":8192,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x138c4d34d9a71c5aULL},
    {"vm_seq_4096",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_seq_p4096",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"seq","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xd1e28d7b358a948aULL},
    {"vm_seq_8192",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_seq_p8192",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"seq","page_bytes":8192,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x37c05e9defbe031bULL},
    {"vm_random_4096",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_random_p4096",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"random","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xadc66ab19c7c82e2ULL},
    {"vm_random_8192",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_random_p8192",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"random","page_bytes":8192,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x2b70a5b06100d7a3ULL},
    {"vm_huge_4096",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_huge",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"huge","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x356f673cb1f95082ULL},
    {"vm_huge_8192",
     "bwaves.PMS.asd.pb16_sf8_d1.vm_huge",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":true,"policy":"huge","page_bytes":8192,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x2d17f1c221b06dc3ULL},
    {"os_radix",
     "bwaves.PMS.asd.pb16_sf8_d1.os_f2048",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60},"os":{"frames":2048,"minor_fault_cycles":800,"major_fault_cycles":20000,"major_fault_frac":0.02,"reclaim_cycles":300,"writeback_cycles":2000,"hashed_probe_cycles":20,"seed":1517}})",
     0xc4af467d709a1680ULL},
    {"os_hashed",
     "bwaves.PMS.asd.pb16_sf8_d1.os_f2048_hashed",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60,"walker":"hashed"},"os":{"frames":2048,"minor_fault_cycles":800,"major_fault_cycles":20000,"major_fault_frac":0.125,"reclaim_cycles":300,"writeback_cycles":2000,"hashed_probe_cycles":35,"seed":1517}})",
     0x9497b4347f9a4f3bULL},
    {"tenants",
     "bwaves.PMS.asd.pb16_sf8_d1.ten6_z750_l20000",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60},"tenants":{"slots":6,"zipf_s":0.75,"mean_lifetime":20000,"seed":99}})",
     0x2e8cbdd0f233cd5fULL},
    {"tuner_custom_axes",
     "bwaves.MS.asd.pb16_sf8_d1.tune",
     R"({"mode":"MS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60},"tuner":{"shadow_horizon":30000,"min_epochs_between":2,"max_decisions":4,"shadow_threads":1,"phase_window":3,"phase_threshold_milli_pct":40000,"degrees":[1,2],"filter_slots":[8],"buffer_lines":[16,32,64],"epoch_reads":[2000],"policies":[0,5]}})",
     0x95ad3b3cafa680c4ULL},
    {"ghb_dc",
     "bwaves.MS.ghb.pb16_sf8_d1.dc",
     R"({"mode":"MS","mc_prefetcher":"ghb","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60},"ghb_delta_correlate":true})",
     0x4bdbc37bed2d35b5ULL},
    {"policy_accesses_warmup_seed",
     "bwaves.PMS.asd.pb16_sf8_d1.pol3.acc5000.wu20000.seed42",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":3,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":5000,"warmup_cycles":20000,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x4cfc93322a42f474ULL},
    {"structure_knobs",
     "bwaves.PMS.asd.pb32_sf4_d2.sat.oracle",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":32,"filter_slots":4,"max_degree":2,"saturate_long_streams":true,"ps_oracle":true,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0xf907a28c91fa9d57ULL},
    {"telemetry",
     "bwaves.PMS.asd.pb16_sf8_d1",
     R"({"mode":"PMS","mc_prefetcher":"asd","ps_kind":"power5","scheduler":"ahb","fixed_policy":null,"buffer_lines":16,"filter_slots":8,"max_degree":1,"saturate_long_streams":false,"ps_oracle":false,"accesses":null,"warmup_cycles":0,"vm":{"enabled":false,"policy":"identity","page_bytes":4096,"huge_bytes":2097152,"phys_bytes":4294967296,"seed":24301,"tlb_entries":64,"tlb_ways":4,"walk_cycles":60}})",
     0x0b4b3d145a352662ULL},
};
// clang-format on

constexpr std::uint64_t kHashAccesses = 5000;

RunMetrics
plainMetrics()
{
    RunMetrics m;
    m.cycles = 123456;
    m.accesses = 5000;
    m.power.background_pj = 1.5;
    m.power.activate_pj = 2.25;
    m.power.read_pj = 3.125;
    m.power.write_pj = 0.5;
    m.power.refresh_pj = 0.0625;
    m.dram_watts = 0.875;
    m.dram_energy_mj = 12.5;
    m.useful_prefetch_pct = 61.25;
    m.coverage_pct = 33.5;
    m.delayed_regular_pct = 4.75;
    m.mc_reads = 4100;
    m.mc_writes = 900;
    m.ms_prefetches_issued = 2000;
    m.buffer_hits = 1225;
    m.lpq_drops = 17;
    return m;
}

RunMetrics
vmMetrics()
{
    RunMetrics m = plainMetrics();
    m.vm_enabled = true;
    m.tlb_hits = 4000;
    m.tlb_misses = 1000;
    m.tlb_evictions = 936;
    m.page_walk_cycles = 60000;
    m.pages_mapped = 64;
    return m;
}

RunMetrics
osTenantMetrics()
{
    RunMetrics m = plainMetrics();
    m.tlb_hits = 3900;
    m.tlb_misses = 1100;
    m.os_enabled = true;
    m.os_minor_faults = 300;
    m.os_major_faults = 7;
    m.os_reclaims = 50;
    m.os_writebacks = 11;
    m.os_shootdowns = 49;
    m.os_stall_cycles = 400000;
    m.os_resident_pages = 250;
    m.tenants_enabled = true;
    m.tenant_arrivals = 9;
    m.tenant_departures = 5;
    m.tenant_active = 4;
    return m;
}

const char *const kPlainMetricsJson =
    R"({"cycles":123456,"accesses":5000,"dram_watts":0.875,"dram_energy_mj":12.5,"power_pj":{"background":1.5,"activate":2.25,"read":3.125,"write":0.5,"refresh":0.0625,"total":7.4375},"useful_prefetch_pct":61.25,"coverage_pct":33.5,"delayed_regular_pct":4.75,"mc_reads":4100,"mc_writes":900,"ms_prefetches_issued":2000,"buffer_hits":1225,"lpq_drops":17,"vm":{"enabled":false,"tlb_hits":0,"tlb_misses":0,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0}})";
const char *const kVmMetricsJson =
    R"({"cycles":123456,"accesses":5000,"dram_watts":0.875,"dram_energy_mj":12.5,"power_pj":{"background":1.5,"activate":2.25,"read":3.125,"write":0.5,"refresh":0.0625,"total":7.4375},"useful_prefetch_pct":61.25,"coverage_pct":33.5,"delayed_regular_pct":4.75,"mc_reads":4100,"mc_writes":900,"ms_prefetches_issued":2000,"buffer_hits":1225,"lpq_drops":17,"vm":{"enabled":true,"tlb_hits":4000,"tlb_misses":1000,"tlb_evictions":936,"page_walk_cycles":60000,"pages_mapped":64}})";
const char *const kOsTenantMetricsJson =
    R"({"cycles":123456,"accesses":5000,"dram_watts":0.875,"dram_energy_mj":12.5,"power_pj":{"background":1.5,"activate":2.25,"read":3.125,"write":0.5,"refresh":0.0625,"total":7.4375},"useful_prefetch_pct":61.25,"coverage_pct":33.5,"delayed_regular_pct":4.75,"mc_reads":4100,"mc_writes":900,"ms_prefetches_issued":2000,"buffer_hits":1225,"lpq_drops":17,"vm":{"enabled":false,"tlb_hits":3900,"tlb_misses":1100,"tlb_evictions":0,"page_walk_cycles":0,"pages_mapped":0},"os":{"minor_faults":300,"major_faults":7,"reclaims":50,"writebacks":11,"shootdowns":49,"stall_cycles":400000,"resident_pages":250},"tenants":{"arrivals":9,"departures":5,"active":4}})";

/** Jobs whose warm-up keys are compared pairwise. */
std::vector<JobSpec>
warmupJobs()
{
    const Benchmark &bwaves = findBenchmark("bwaves");
    const Benchmark &milc = findBenchmark("milc");
    RunOptions base;
    base.mode = PrefetchMode::MS;
    base.accesses = 4000;
    base.warmup_cycles = 1000;

    std::vector<JobSpec> jobs;
    const auto add = [&](const RunOptions &o,
                         std::optional<std::uint64_t> seed = {},
                         const Benchmark *bench = nullptr) {
        jobs.push_back(makeJob(bench ? *bench : bwaves, o, seed));
    };
    const auto vary = [&](auto &&edit) {
        RunOptions o = base;
        edit(o);
        add(o);
    };
    add(base);                                                  // 0
    vary([](RunOptions &o) { o.mode = PrefetchMode::NP; });     // 1
    vary([](RunOptions &o) { o.mode = PrefetchMode::PMS; });    // 2
    vary([](RunOptions &o) { o.mode = PrefetchMode::PS; });     // 3
    vary([](RunOptions &o) { o.buffer_lines = 32; });           // 4
    vary([](RunOptions &o) { o.filter_slots = 16; });           // 5
    vary([](RunOptions &o) { o.max_degree = 4; });              // 6
    vary([](RunOptions &o) {                                    // 7
        o.mc_prefetcher = McPrefetcherKind::Ghb;
        o.ghb_delta_correlate = true;
    });
    vary([](RunOptions &o) { o.fixed_policy = 2; });            // 8
    vary([](RunOptions &o) { o.saturate_long_streams = true; }); // 9
    vary([](RunOptions &o) { o.ps_kind = PsKind::Asd; });       // 10
    vary([](RunOptions &o) { o.ps_oracle = true; });            // 11
    vary([](RunOptions &o) {                                    // 12
        o.scheduler = SchedulerKind::FrFcfs;
    });
    vary([](RunOptions &o) { o.warmup_cycles = 2000; });        // 13
    vary([](RunOptions &o) { o.accesses = 8000; });             // 14
    add(base, 7);                                               // 15
    add(base, {}, &milc);                                       // 16
    vary([](RunOptions &o) { o.telemetry.enabled = true; });    // 17
    vary([](RunOptions &o) { o.tuner.enabled = true; });        // 18
    vary([](RunOptions &o) {                                    // 19
        o.tenants.enabled = true;
        o.tenants.slots = 3;
    });
    const auto vm = [&](FrameAllocPolicy policy, std::uint64_t page,
                        auto &&edit) {
        RunOptions o = base;
        o.vm.enabled = true;
        o.vm.policy = policy;
        o.vm.page_bytes = page;
        edit(o);
        add(o);
    };
    const auto none = [](RunOptions &) {};
    vm(FrameAllocPolicy::RandomShuffle, 4096, none);            // 20
    vm(FrameAllocPolicy::RandomShuffle, 8192, none);            // 21
    vm(FrameAllocPolicy::Identity, 4096, none);                 // 22
    vm(FrameAllocPolicy::HugePage, 4096, none);                 // 23
    vm(FrameAllocPolicy::HugePage, 8192, none);                 // 24
    vm(FrameAllocPolicy::RandomShuffle, 4096,                   // 25
       [](RunOptions &o) { o.max_degree = 2; });
    vm(FrameAllocPolicy::RandomShuffle, 4096,                   // 26
       [](RunOptions &o) { o.vm.seed = 3; });
    vm(FrameAllocPolicy::RandomShuffle, 4096,                   // 27
       [](RunOptions &o) { o.vm.phys_bytes = 1ULL << 30; });
    vm(FrameAllocPolicy::RandomShuffle, 4096,                   // 28
       [](RunOptions &o) { o.vm.walker = PageWalkerKind::Hashed; });
    vm(FrameAllocPolicy::RandomShuffle, 4096,                   // 29
       [](RunOptions &o) { o.vm.tlb.entries = 128; });
    const auto os = [&](auto &&edit) {
        RunOptions o = base;
        o.os.enabled = true;
        o.os.frames = 2048;
        edit(o);
        add(o);
    };
    os(none);                                                   // 30
    os([](RunOptions &o) { o.filter_slots = 4; });              // 31
    os([](RunOptions &o) { o.os.frames = 4096; });              // 32
    os([](RunOptions &o) {                                      // 33
        o.vm.walker = PageWalkerKind::Hashed;
    });
    os([](RunOptions &o) { o.os.major_fault_frac = 0.5; });     // 34
    os([](RunOptions &o) { o.os.seed = 11; });                  // 35
    os([](RunOptions &o) { o.vm.page_bytes = 8192; });          // 36
    os([](RunOptions &o) { o.vm.tlb.walk_cycles = 90; });       // 37
    os([](RunOptions &o) { o.vm.phys_bytes = 1ULL << 30; });    // 38
    os([](RunOptions &o) { o.vm.seed = 5; });                   // 39
    os([](RunOptions &o) {                                      // 40
        o.tenants.enabled = true;
    });
    return jobs;
}

/** Equivalence class of each warmupJobs() entry under warmupKey. */
const std::vector<int> kWarmupClasses = {
    0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 10, 11, 12, 13, 14, 15, 16, 0, 0, 0,
    20, 21, 22, 23, 24, 20, 26, 27, 20, 29, 30, 30, 32, 33, 34, 35, 36,
    37, 30, 30, 30
};

/** Class of each key: index of its first occurrence. */
std::vector<int>
classesOf(const std::vector<std::string> &keys)
{
    std::map<std::string, int> first;
    std::vector<int> classes;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto it =
            first.emplace(keys[i], static_cast<int>(i)).first;
        classes.push_back(it->second);
    }
    return classes;
}

} // namespace

TEST(RunOptionsGolden, CoversEveryCase)
{
    const std::vector<GoldenCase> cases = goldenCases();
    ASSERT_EQ(cases.size(), std::size(kGolden));
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(cases[i].name, kGolden[i].name);
}

TEST(RunOptionsGolden, JobIdJsonAndConfigHash)
{
    const Benchmark &bench = findBenchmark("bwaves");
    const std::vector<GoldenCase> cases = goldenCases();
    ASSERT_EQ(cases.size(), std::size(kGolden));
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const GoldenCase &c = cases[i];
        SCOPED_TRACE(c.name);
        EXPECT_EQ(makeJobId(bench, c.options, c.seed),
                  kGolden[i].job_id);
        EXPECT_EQ(toJson(c.options), kGolden[i].json);
        EXPECT_EQ(runConfigHash(bench.name, kHashAccesses, c.options),
                  kGolden[i].config_hash);
    }
}

TEST(RunOptionsGolden, MetricsJson)
{
    EXPECT_EQ(toJson(plainMetrics()), kPlainMetricsJson);
    EXPECT_EQ(toJson(vmMetrics()), kVmMetricsJson);
    EXPECT_EQ(toJson(osTenantMetrics()), kOsTenantMetricsJson);
}

TEST(RunOptionsGolden, WarmupKeyPartition)
{
    std::vector<std::string> keys;
    for (const JobSpec &job : warmupJobs())
        keys.push_back(warmupKey(job));
    EXPECT_EQ(classesOf(keys), kWarmupClasses);
}
