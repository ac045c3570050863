#ifndef ASD_SIM_METRIC_TABLE_HPP
#define ASD_SIM_METRIC_TABLE_HPP

/**
 * @file
 * The one RunMetrics table. Each entry names a RunMetrics member, its
 * dotted key in the metrics JSON and where System::collectMetrics
 * reads it. The metrics JSON is a loop over the table; the sweep CSV,
 * asdsim_cli's report and the bake-off cells are ordered lists of
 * labels into it. A new run metric is its member plus one entry.
 */

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/metrics.hpp"

namespace asd
{

class System;

/** A metric's value, typed as its RunMetrics member. */
using MetricValue = std::variant<std::uint64_t, double, bool>;

/** A RunMetrics member, typed. */
using MetricRef = std::variant<std::uint64_t *, double *, bool *>;

/** Computes a value from the finished machine and the stat sums. */
using MetricDerive =
    std::function<MetricValue(const System &, const RunMetrics &)>;

/** One run metric. */
struct MetricEntry
{
    /**
     * Dotted metrics-JSON key; empty for a group flag, which the JSON
     * states by the group object's presence.
     */
    std::string_view key;
    std::string_view label; //!< the member's name; CSV and CLI print it
    bool RunMetrics::*group; //!< written and read only while set
    std::function<MetricValue(const RunMetrics &)> get;
    /** The member; null for a value written but never read back. */
    std::function<MetricRef(RunMetrics &)> ref;
    /** Registry stats summed into a count (StatRegistry::sum). */
    const char *stat;
    /** Set instead of stat; runs after every stat entry is filled. */
    MetricDerive derive;
};

/** Every metric in metrics-JSON order. */
std::span<const MetricEntry> metricTable();

/** The entry labelled @p label; panics when there is none. */
const MetricEntry &metricEntry(std::string_view label);

/** A block of asdsim_cli's report. */
struct ReportSection
{
    bool RunMetrics::*when; //!< shown while set; always when null
    std::vector<std::string_view> labels;
};

/** asdsim_cli's report rows, in order. */
const std::vector<ReportSection> &reportSections();

/**
 * The reportSections() rows @p m shows: label and value, a count in
 * full, a percentage to 2 decimals and any other double to 3.
 */
std::vector<std::pair<std::string, std::string>>
reportRows(const RunMetrics &m);

} // namespace asd

#endif // ASD_SIM_METRIC_TABLE_HPP
