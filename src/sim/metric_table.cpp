#include "sim/metric_table.hpp"

#include "common/log.hpp"
#include "common/table.hpp"
#include "sim/run_options_schema.hpp"
#include "sim/system.hpp"

namespace asd
{

namespace
{

/** An entry over the member @p access reaches, summing @p stat. */
template <typename Access>
MetricEntry
summed(std::string_view key, std::string_view label, Access access,
       const char *stat, bool RunMetrics::*group = nullptr)
{
    return {key, label, group,
            [access](const RunMetrics &m) -> MetricValue {
                return access(m);
            },
            [access](RunMetrics &m) -> MetricRef { return &access(m); },
            stat, nullptr};
}

/** An entry whose value @p derive computes. */
template <typename Access>
MetricEntry
derived(std::string_view key, std::string_view label, Access access,
        MetricDerive derive, bool RunMetrics::*group = nullptr)
{
    MetricEntry entry = summed(key, label, access, nullptr, group);
    entry.derive = std::move(derive);
    return entry;
}

PowerReport
power(const System &s)
{
    return PowerModel(s.config().dram).report(s.dram(), s.nowCycle());
}

/** The DRAM energy component @p part. */
MetricDerive
energy(PicoJoule PowerReport::*part)
{
    return [part](const System &s, const RunMetrics &) {
        return power(s).*part;
    };
}

/** Whether the machine registered @p stat. */
MetricDerive
registered(const char *stat)
{
    return [stat](const System &s, const RunMetrics &) {
        return s.stats().has(stat);
    };
}

/** A Fig. 13 efficiency measure: 0 without a memory-side prefetcher. */
double
prefetchPct(const System &s, std::uint64_t part, std::uint64_t whole)
{
    return s.stats().has("ms.buffer.consumed") ? percentOf(part, whole)
                                               : 0.0;
}

} // namespace

std::span<const MetricEntry>
metricTable()
{
    using M = RunMetrics;
    using P = PowerReport;
    using S = const System &;
    constexpr auto os = &M::os_enabled;
    constexpr auto tenants = &M::tenants_enabled;
    // clang-format off
    static const std::vector<MetricEntry> table = {
        derived("cycles", "cycles", at(&M::cycles),
                [](S s, const M &) { return s.nowCycle(); }),
        summed("accesses", "accesses", at(&M::accesses), "cpu.t*.retired"),
        derived("dram_watts", "dram_watts", at(&M::dram_watts),
                [](S s, const M &) {
                    return power(s).averageWatts(s.nowCycle(),
                                                 s.config().cpu_hz);
                }),
        derived("dram_energy_mj", "dram_energy_mj", at(&M::dram_energy_mj),
                [](S s, const M &) { return power(s).totalPj() * 1e-9; }),
        derived("power_pj.background", "background_pj",
                at(&M::power, &P::background_pj), energy(&P::background_pj)),
        derived("power_pj.activate", "activate_pj",
                at(&M::power, &P::activate_pj), energy(&P::activate_pj)),
        derived("power_pj.read", "read_pj", at(&M::power, &P::read_pj),
                energy(&P::read_pj)),
        derived("power_pj.write", "write_pj", at(&M::power, &P::write_pj),
                energy(&P::write_pj)),
        derived("power_pj.refresh", "refresh_pj",
                at(&M::power, &P::refresh_pj), energy(&P::refresh_pj)),
        {"power_pj.total", "total_pj", nullptr,
         [](const M &m) -> MetricValue { return m.power.totalPj(); },
         nullptr, nullptr, nullptr},
        // Useful = consumed from the buffer + forwarded straight to a
        // merged demand read, over all memory-side prefetches issued.
        derived("useful_prefetch_pct", "useful_prefetch_pct",
                at(&M::useful_prefetch_pct), [](S s, const M &m) {
                    return prefetchPct(s, s.stats().sum(
                        "ms.buffer.consumed+mc.prefetches_merged_useful"),
                        m.ms_prefetches_issued);
                }),
        derived("coverage_pct", "coverage_pct", at(&M::coverage_pct),
                [](S s, const M &m) {
                    return prefetchPct(s, m.buffer_hits, m.mc_reads);
                }),
        derived("delayed_regular_pct", "delayed_regular_pct",
                at(&M::delayed_regular_pct), [](S s, const M &m) {
                    return prefetchPct(s, s.stats().sum("mc.regulars_delayed"),
                                       m.mc_reads - m.buffer_hits +
                                           m.mc_writes);
                }),
        summed("mc_reads", "mc_reads", at(&M::mc_reads), "mc.reads"),
        summed("mc_writes", "mc_writes", at(&M::mc_writes), "mc.writes"),
        summed("ms_prefetches_issued", "ms_prefetches_issued",
               at(&M::ms_prefetches_issued), "mc.prefetches_issued"),
        summed("buffer_hits", "buffer_hits", at(&M::buffer_hits),
               "mc.buffer_hits_entry+mc.buffer_hits_caq+"
               "mc.merged_with_prefetch"),
        summed("lpq_drops", "lpq_drops", at(&M::lpq_drops), "mc.lpq_dropped"),
        // VM mode registers translation under "vm.", the OS model
        // under "os."; the vm block reads whichever is there.
        derived("vm.enabled", "vm_enabled", at(&M::vm_enabled),
                registered("vm.stall_cycles")),
        summed("vm.tlb_hits", "tlb_hits", at(&M::tlb_hits),
               "vm.t*.tlb.hits+os.t*.tlb.hits"),
        summed("vm.tlb_misses", "tlb_misses", at(&M::tlb_misses),
               "vm.t*.tlb.misses+os.t*.tlb.misses"),
        summed("vm.tlb_evictions", "tlb_evictions", at(&M::tlb_evictions),
               "vm.t*.tlb.evictions+os.t*.tlb.evictions"),
        // The MMUs' walk stalls; the kernel's own <p>.stall_cycles is
        // os_stall_cycles.
        summed("vm.page_walk_cycles", "page_walk_cycles",
               at(&M::page_walk_cycles),
               "vm.t*.stall_cycles+os.t*.stall_cycles"),
        summed("vm.pages_mapped", "pages_mapped", at(&M::pages_mapped),
               "vm.pages_mapped+os.pages_mapped"),
        // Present only when enabled, so records written before the OS
        // model and the tenant engine existed keep their bytes.
        derived("", "os_enabled", at(&M::os_enabled),
                registered("os.stall_cycles")),
        summed("os.minor_faults", "os_minor_faults", at(&M::os_minor_faults),
               "os.minor_faults", os),
        summed("os.major_faults", "os_major_faults", at(&M::os_major_faults),
               "os.major_faults", os),
        summed("os.reclaims", "os_reclaims", at(&M::os_reclaims),
               "os.reclaims", os),
        summed("os.writebacks", "os_writebacks", at(&M::os_writebacks),
               "os.writebacks", os),
        summed("os.shootdowns", "os_shootdowns", at(&M::os_shootdowns),
               "os.shootdowns", os),
        summed("os.stall_cycles", "os_stall_cycles", at(&M::os_stall_cycles),
               "os.stall_cycles", os),
        derived("os.resident_pages", "os_resident_pages",
                at(&M::os_resident_pages), [](S s, const M &) {
                    const OsKernel *kernel = s.osKernel();
                    return kernel ? kernel->residentPages() : 0;
                }, os),
        derived("", "tenants_enabled", at(&M::tenants_enabled),
                registered("tenants.arrivals")),
        summed("tenants.arrivals", "tenant_arrivals", at(&M::tenant_arrivals),
               "tenants.arrivals", tenants),
        summed("tenants.departures", "tenant_departures",
               at(&M::tenant_departures), "tenants.departures", tenants),
        summed("tenants.active", "tenant_active", at(&M::tenant_active),
               "tenants.active", tenants),
    };
    // clang-format on
    return table;
}

const MetricEntry &
metricEntry(std::string_view label)
{
    for (const MetricEntry &entry : metricTable())
        if (entry.label == label)
            return entry;
    panic("no run metric labelled " + std::string(label));
}

const std::vector<ReportSection> &
reportSections()
{
    static const std::vector<ReportSection> sections = {
        {nullptr,
         {"cycles", "accesses", "dram_watts", "dram_energy_mj",
          "coverage_pct", "useful_prefetch_pct", "delayed_regular_pct",
          "ms_prefetches_issued", "mc_reads", "mc_writes"}},
        {&RunMetrics::vm_enabled,
         {"tlb_hits", "tlb_misses", "page_walk_cycles", "pages_mapped"}},
        {&RunMetrics::os_enabled,
         {"tlb_hits", "tlb_misses", "os_minor_faults", "os_major_faults",
          "os_reclaims", "os_writebacks", "os_shootdowns",
          "os_stall_cycles", "os_resident_pages"}},
        {&RunMetrics::tenants_enabled,
         {"tenant_active", "tenant_arrivals", "tenant_departures"}},
    };
    return sections;
}

std::vector<std::pair<std::string, std::string>>
reportRows(const RunMetrics &m)
{
    std::vector<std::pair<std::string, std::string>> rows;
    for (const ReportSection &section : reportSections()) {
        if (section.when && !(m.*section.when))
            continue;
        for (const std::string_view label : section.labels) {
            const MetricValue value = metricEntry(label).get(m);
            const double *x = std::get_if<double>(&value);
            rows.emplace_back(
                label, x ? Table::num(*x, label.ends_with("_pct") ? 2 : 3)
                         : std::to_string(std::get<std::uint64_t>(value)));
        }
    }
    return rows;
}

} // namespace asd
