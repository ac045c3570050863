#include "sim/serialize.hpp"

#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

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

/**
 * Read @p v into @p out; false when it has the wrong type. A
 * non-finite double is refused too: the writer cannot state it.
 */
template <typename T>
bool
readJson(const JsonValue &v, T &out)
{
    std::optional<T> x;
    if constexpr (std::is_same_v<T, double>) {
        x = v.asDouble();
        if (x && !std::isfinite(*x))
            x.reset();
    } else if constexpr (std::is_same_v<T, bool>)
        x = v.asBool();
    else
        x = v.asU64();
    if (x)
        out = *x;
    return x.has_value();
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
        writer, metricTable(),
        [&](const MetricEntry &e) {
            return !e.key.empty() && (!e.group || metrics.*e.group);
        },
        [&](const MetricEntry &e) { writeJson(writer, e.get(metrics)); });
}

void
writeJson(JsonWriter &writer, const MetricValue &value)
{
    std::visit([&](auto v) { writer.value(v); }, value);
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
    for (const MetricEntry &e : metricTable()) {
        if (e.key.empty() || !e.ref)
            continue;
        const auto [group, key] = splitKey(e.key);
        const JsonValue *object = &value;
        if (!group.empty()) {
            object = value.find(group);
            if (!object && e.group)
                continue; // optional group absent: stays disabled
            if (!object || object->kind() != JsonValue::Kind::Object)
                return std::nullopt;
            if (e.group)
                m.*e.group = true;
        }
        const JsonValue *member = object->find(key);
        if (!member || !std::visit(
                           [&](auto *field) {
                               return readJson(*member, *field);
                           },
                           e.ref(m)))
            return std::nullopt;
    }
    return m;
}

} // namespace asd
