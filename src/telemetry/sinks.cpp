#include "telemetry/sinks.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/file.hpp"
#include "common/json.hpp"

namespace asd
{

namespace
{

std::string
pct(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    return buf;
}

/**
 * Visit the record's scalar columns in CSV order: @p count(name,
 * value) for each table column, @p percent(name, value) for the two
 * derived percentages.
 */
template <typename Count, typename Percent>
void
forEachColumn(const EpochRecord &rec, Count count, Percent percent)
{
    for (std::size_t i = 0; i < kTelemetryColumns.size(); ++i) {
        if (i == kPercentColumnsAt) {
            percent("accuracy_pct", rec.accuracy_pct);
            percent("coverage_pct", rec.coverage_pct);
        }
        count(kTelemetryColumns[i].name, rec.*kTelemetryColumns[i].field);
    }
}

/** Emit the scalar fields shared by the JSON and trace exporters. */
void
writeScalarMembers(JsonWriter &w, const EpochRecord &rec)
{
    const auto member = [&w](const char *name, auto value) {
        w.key(name).value(value);
    };
    forEachColumn(rec, member, member);
}

} // namespace

void
writeTelemetryCsv(const std::vector<EpochRecord> &records,
                  std::ostream &out)
{
    out << "epoch,start_cycle,end_cycle";
    const auto header = [&out](const char *name, auto) {
        out << ',' << name;
    };
    forEachColumn(EpochRecord{}, header, header);
    out << '\n';
    for (const auto &rec : records) {
        out << rec.epoch << ',' << rec.start_cycle << ','
            << rec.end_cycle;
        forEachColumn(
            rec,
            [&out](const char *, std::uint64_t value) {
                out << ',' << value;
            },
            [&out](const char *, double value) {
                out << ',' << pct(value);
            });
        out << '\n';
    }
}

std::string
telemetryJson(const std::vector<EpochRecord> &records)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("asdsim/telemetry/v1");
    w.key("epochs").beginArray();
    for (const auto &rec : records) {
        w.beginObject();
        w.key("epoch").value(rec.epoch);
        w.key("start_cycle").value(rec.start_cycle);
        w.key("end_cycle").value(rec.end_cycle);
        writeScalarMembers(w, rec);
        if (!rec.slh.empty()) {
            w.key("slh").beginArray();
            for (const auto &lht : rec.slh) {
                w.beginObject();
                w.key("thread").value(lht.thread);
                w.key("positive").beginArray();
                for (const auto count : lht.positive)
                    w.value(count);
                w.endArray();
                w.key("negative").beginArray();
                for (const auto count : lht.negative)
                    w.value(count);
                w.endArray();
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
telemetryChromeTrace(const std::vector<EpochRecord> &records)
{
    // Trace-event timestamps are microseconds; we map one simulated
    // cycle to one microsecond, which keeps the timeline proportional
    // and the numbers readable.
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const auto &rec : records) {
        const std::uint64_t ts = rec.start_cycle;
        const std::uint64_t dur =
            rec.end_cycle > rec.start_cycle
                ? rec.end_cycle - rec.start_cycle
                : 0;

        // One slice per epoch with the full record attached.
        w.beginObject();
        w.key("name").value("epoch " + std::to_string(rec.epoch));
        w.key("cat").value("epoch");
        w.key("ph").value("X");
        w.key("ts").value(ts);
        w.key("dur").value(dur);
        w.key("pid").value(1);
        w.key("tid").value(1);
        w.key("args").beginObject();
        writeScalarMembers(w, rec);
        w.endObject();
        w.endObject();

        // Counter tracks for the headline per-epoch series.
        const auto counter = [&w, ts](const char *name) -> JsonWriter & {
            w.beginObject();
            w.key("name").value(name);
            w.key("ph").value("C");
            w.key("ts").value(ts);
            w.key("pid").value(1);
            return w.key("args").beginObject();
        };
        counter("prefetch quality")
            .key("accuracy_pct")
            .value(rec.accuracy_pct)
            .key("coverage_pct")
            .value(rec.coverage_pct)
            .endObject()
            .endObject();
        counter("scheduler policy")
            .key("policy")
            .value(rec.policy)
            .endObject()
            .endObject();
        counter("queue high-water")
            .key("read_q")
            .value(rec.read_q_hwm)
            .key("write_q")
            .value(rec.write_q_hwm)
            .key("caq")
            .value(rec.caq_hwm)
            .key("lpq")
            .value(rec.lpq_hwm)
            .endObject()
            .endObject();
        counter("dram rows")
            .key("row_hits")
            .value(rec.dram_row_hits)
            .key("row_misses")
            .value(rec.dram_row_misses)
            .endObject()
            .endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
saveTelemetryCsv(const std::vector<EpochRecord> &records,
                 const std::string &path)
{
    std::ostringstream out;
    writeTelemetryCsv(records, out);
    return saveString(out.str(), path, "telemetry CSV");
}

bool
saveTelemetryJson(const std::vector<EpochRecord> &records,
                  const std::string &path)
{
    return saveString(telemetryJson(records), path, "telemetry JSON");
}

bool
saveTelemetryChromeTrace(const std::vector<EpochRecord> &records,
                         const std::string &path)
{
    return saveString(telemetryChromeTrace(records), path,
                      "telemetry trace");
}

} // namespace asd
