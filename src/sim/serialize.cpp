#include "sim/serialize.hpp"

#include <functional>
#include <type_traits>
#include <utility>

namespace asd
{

namespace
{

/** "group.key" -> {"group", "key"}; top-level keys have no group. */
std::pair<std::string_view, std::string_view>
splitKey(std::string_view key)
{
    const std::size_t dot = key.find('.');
    if (dot == std::string_view::npos)
        return {"", key};
    return {key.substr(0, dot), key.substr(dot + 1)};
}

/**
 * Write the @p fields that @p emitted accepts as one JSON object,
 * nesting dotted keys one level ("vm.tlb_hits" -> "vm": {"tlb_hits":
 * ...}); each group's keys must be contiguous.
 */
template <typename Fields, typename Emitted, typename Write>
void
writeGrouped(JsonWriter &w, const Fields &fields, Emitted emitted,
             Write write)
{
    w.beginObject();
    std::string_view open;
    for (const auto &f : fields) {
        if (!emitted(f))
            continue;
        const auto [group, key] = splitKey(f.key);
        if (group != open) {
            if (!open.empty())
                w.endObject();
            if (!group.empty())
                w.key(group).beginObject();
            open = group;
        }
        w.key(key);
        write(f);
    }
    if (!open.empty())
        w.endObject();
    w.endObject();
}

/** One RunMetrics value in the metrics JSON. */
struct MetricField
{
    std::string_view key; //!< dotted JSON path
    /** Optional group: written and read only while this is set. */
    bool RunMetrics::*present = nullptr;
    std::function<void(JsonWriter &, const RunMetrics &)> write;
    /** nullptr for derived values that are written but not read. */
    std::function<bool(const JsonValue &, RunMetrics &)> read;
};

template <typename Access>
MetricField
metric(std::string_view key, Access access,
       bool RunMetrics::*present = nullptr)
{
    using T = std::remove_cvref_t<decltype(access(
        std::declval<RunMetrics &>()))>;
    return {key, present,
            [access](JsonWriter &w, const RunMetrics &m) {
                w.value(access(m));
            },
            [access](const JsonValue &v, RunMetrics &m) {
                std::optional<T> x;
                if constexpr (std::is_same_v<T, double>)
                    x = v.asDouble();
                else if constexpr (std::is_same_v<T, bool>)
                    x = v.asBool();
                else
                    x = v.asU64();
                access(m) = x.value_or(T{});
                return x.has_value();
            }};
}

const std::vector<MetricField> &
metricFields()
{
    using M = RunMetrics;
    using P = PowerReport;
    constexpr auto os = &M::os_enabled;
    constexpr auto tenants = &M::tenants_enabled;
    // clang-format off
    static const std::vector<MetricField> fields = {
        metric("cycles", at(&M::cycles)),
        metric("accesses", at(&M::accesses)),
        metric("dram_watts", at(&M::dram_watts)),
        metric("dram_energy_mj", at(&M::dram_energy_mj)),
        metric("power_pj.background", at(&M::power, &P::background_pj)),
        metric("power_pj.activate", at(&M::power, &P::activate_pj)),
        metric("power_pj.read", at(&M::power, &P::read_pj)),
        metric("power_pj.write", at(&M::power, &P::write_pj)),
        metric("power_pj.refresh", at(&M::power, &P::refresh_pj)),
        {"power_pj.total", nullptr,
         [](JsonWriter &w, const M &m) { w.value(m.power.totalPj()); },
         nullptr},
        metric("useful_prefetch_pct", at(&M::useful_prefetch_pct)),
        metric("coverage_pct", at(&M::coverage_pct)),
        metric("delayed_regular_pct", at(&M::delayed_regular_pct)),
        metric("mc_reads", at(&M::mc_reads)),
        metric("mc_writes", at(&M::mc_writes)),
        metric("ms_prefetches_issued", at(&M::ms_prefetches_issued)),
        metric("buffer_hits", at(&M::buffer_hits)),
        metric("lpq_drops", at(&M::lpq_drops)),
        metric("vm.enabled", at(&M::vm_enabled)),
        metric("vm.tlb_hits", at(&M::tlb_hits)),
        metric("vm.tlb_misses", at(&M::tlb_misses)),
        metric("vm.tlb_evictions", at(&M::tlb_evictions)),
        metric("vm.page_walk_cycles", at(&M::page_walk_cycles)),
        metric("vm.pages_mapped", at(&M::pages_mapped)),
        // Present only when enabled, so records written before the OS
        // model and the tenant engine existed keep their bytes.
        metric("os.minor_faults", at(&M::os_minor_faults), os),
        metric("os.major_faults", at(&M::os_major_faults), os),
        metric("os.reclaims", at(&M::os_reclaims), os),
        metric("os.writebacks", at(&M::os_writebacks), os),
        metric("os.shootdowns", at(&M::os_shootdowns), os),
        metric("os.stall_cycles", at(&M::os_stall_cycles), os),
        metric("os.resident_pages", at(&M::os_resident_pages), os),
        metric("tenants.arrivals", at(&M::tenant_arrivals), tenants),
        metric("tenants.departures", at(&M::tenant_departures), tenants),
        metric("tenants.active", at(&M::tenant_active), tenants),
    };
    // clang-format on
    return fields;
}

} // namespace

void
writeJson(JsonWriter &writer, const RunOptions &options)
{
    writeGrouped(
        writer, runOptionFields(),
        [&](const OptionField &f) { return f.emitted(options); },
        [&](const OptionField &f) { f.write_json(writer, options); });
}

void
writeJson(JsonWriter &writer, const RunMetrics &metrics)
{
    writeGrouped(
        writer, metricFields(),
        [&](const MetricField &f) {
            return !f.present || metrics.*f.present;
        },
        [&](const MetricField &f) { f.write(writer, metrics); });
}

std::string
toJson(const RunOptions &options)
{
    JsonWriter writer;
    writeJson(writer, options);
    return writer.str();
}

std::string
toJson(const RunMetrics &metrics)
{
    JsonWriter writer;
    writeJson(writer, metrics);
    return writer.str();
}

std::optional<RunMetrics>
metricsFromJson(const JsonValue &value)
{
    if (value.kind() != JsonValue::Kind::Object)
        return std::nullopt;
    RunMetrics m;
    for (const MetricField &f : metricFields()) {
        if (!f.read)
            continue;
        const auto [group, key] = splitKey(f.key);
        const JsonValue *object = &value;
        if (!group.empty()) {
            object = value.find(group);
            if (!object && f.present)
                continue; // optional group absent: stays disabled
            if (!object || object->kind() != JsonValue::Kind::Object)
                return std::nullopt;
            if (f.present)
                m.*f.present = true;
        }
        const JsonValue *member = object->find(key);
        if (!member || !f.read(*member, m))
            return std::nullopt;
    }
    return m;
}

} // namespace asd
