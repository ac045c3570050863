#include "arena/report.hpp"

#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/serialize.hpp"

namespace asd
{

std::string
formatMilliPct(std::int64_t milli_pct)
{
    const bool negative = milli_pct < 0;
    const std::uint64_t magnitude = static_cast<std::uint64_t>(
        negative ? -milli_pct : milli_pct);
    std::string out = negative ? "-" : "";
    out += std::to_string(magnitude / 1000);
    const std::uint64_t frac = magnitude % 1000;
    out += '.';
    if (frac < 100)
        out += '0';
    if (frac < 10)
        out += '0';
    out += std::to_string(frac);
    return out;
}

namespace
{

const PrefetcherInfo &
infoFor(const std::string &name)
{
    const PrefetcherInfo *info =
        PrefetcherRegistry::instance().find(name);
    panicIfNot(info != nullptr,
               "bake-off report: unregistered prefetcher name");
    return *info;
}

void
writeScore(JsonWriter &w, const PrefetcherScore &score)
{
    w.beginObject();
    w.key("rank").value(score.rank);
    w.key("name").value(score.name);
    w.key("side").value(toString(infoFor(score.name).side));
    w.key("jobs_ok").value(score.jobs_ok);
    w.key("jobs_failed").value(score.jobs_failed);
    w.key("speedup_milli_pct").value(score.speedup_milli_pct);
    w.key("accuracy_milli_pct").value(score.accuracy_milli_pct);
    w.key("coverage_milli_pct").value(score.coverage_milli_pct);
    w.key("timeliness_milli_pct").value(score.timeliness_milli_pct);
    w.key("traffic_overhead_milli_pct")
        .value(score.traffic_overhead_milli_pct);
    w.key("cycles_total").value(score.cycles_total);
    w.endObject();
}

void
writeCell(JsonWriter &w, const BakeoffCell &cell)
{
    w.beginObject();
    w.key("prefetcher").value(cell.prefetcher);
    w.key("workload").value(cell.workload);
    w.key("status").value(toString(cell.status));
    const auto metric = [&](std::string_view label) {
        w.key(label);
        writeJson(w, metricEntry(label).get(cell.metrics));
    };
    metric("cycles");
    w.key("baseline_cycles").value(cell.baseline_cycles);
    w.key("speedup_milli_pct")
        .value(speedupMilliPct(cell.baseline_cycles,
                               cell.metrics.cycles));
    for (const std::string_view label : kBakeoffCellMetrics)
        metric(label);
    w.endObject();
}

} // namespace

std::string
bakeoffJson(const BakeoffResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("asdbakeoff/v1");
    w.key("workloads").beginArray();
    for (const BakeoffWorkload &workload : result.workloads) {
        w.beginObject();
        w.key("label").value(workload.label);
        w.key("benchmark").value(workload.bench->name);
        w.key("vm").value(workload.vm);
        w.endObject();
    }
    w.endArray();
    w.key("prefetchers").beginArray();
    for (const std::string &name : result.prefetchers)
        w.value(name);
    w.endArray();
    w.key("jobs").beginObject();
    w.key("total").value(
        static_cast<std::uint64_t>(result.total_jobs));
    w.key("adopted").value(
        static_cast<std::uint64_t>(result.adopted));
    w.endObject();
    w.key("leaderboard").beginArray();
    for (const PrefetcherScore &score : result.scores)
        writeScore(w, score);
    w.endArray();
    w.key("cells").beginArray();
    for (const BakeoffCell &cell : result.cells)
        writeCell(w, cell);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
bakeoffMarkdown(const BakeoffResult &result)
{
    std::string out = "# Prefetcher bake-off\n\n";
    out += std::to_string(result.prefetchers.size());
    out += " contenders x ";
    out += std::to_string(result.workloads.size());
    out += " workloads\n\n";
    out += "| rank | prefetcher | side | speedup % | accuracy % | "
           "coverage % | timeliness % | traffic % | jobs |\n";
    out += "|---:|:---|:---|---:|---:|---:|---:|---:|---:|\n";
    for (const PrefetcherScore &score : result.scores) {
        out += "| " + std::to_string(score.rank);
        out += " | " + score.name;
        out += " | " + toString(infoFor(score.name).side);
        out += " | " + formatMilliPct(score.speedup_milli_pct);
        out += " | " + formatMilliPct(score.accuracy_milli_pct);
        out += " | " + formatMilliPct(score.coverage_milli_pct);
        out += " | " + formatMilliPct(score.timeliness_milli_pct);
        out +=
            " | " + formatMilliPct(score.traffic_overhead_milli_pct);
        out += " | " + std::to_string(score.jobs_ok);
        if (score.jobs_failed > 0)
            out += " (+" + std::to_string(score.jobs_failed) +
                   " failed)";
        out += " |\n";
    }
    out += "\nSpeedup is the mean cycle gain over the no-prefetch "
           "baseline; traffic is memory-side prefetches per 100 "
           "demand reads.\n";

    out += "\n## Per-workload speedup\n\n";
    out += "| workload |";
    for (const PrefetcherScore &score : result.scores) {
        out += ' ';
        out += score.name;
        out += " |";
    }
    out += "\n|:---|";
    for (std::size_t i = 0; i < result.scores.size(); ++i)
        out += "---:|";
    out += "\n";
    for (const BakeoffWorkload &workload : result.workloads) {
        out += "| ";
        out += workload.label;
        out += " |";
        for (const PrefetcherScore &score : result.scores) {
            // Cells are workload-major but few; linear scan keeps
            // this a pure function of the result.
            bool found = false;
            for (const BakeoffCell &cell : result.cells) {
                if (cell.workload != workload.label ||
                    cell.prefetcher != score.name)
                    continue;
                out += ' ';
                if (cell.status == JobStatus::Ok) {
                    out += formatMilliPct(speedupMilliPct(
                        cell.baseline_cycles, cell.metrics.cycles));
                } else {
                    out += toString(cell.status);
                }
                out += " |";
                found = true;
                break;
            }
            if (!found)
                out += " - |";
        }
        out += "\n";
    }
    return out;
}

} // namespace asd
