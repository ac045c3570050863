#ifndef ASD_ARENA_REPORT_HPP
#define ASD_ARENA_REPORT_HPP

/**
 * @file
 * Rendering of a finished bake-off: a machine-readable JSON document
 * (schema "asdbakeoff/v1") and a human-readable Markdown leaderboard.
 * Both are pure functions of the BakeoffResult's deterministic fields
 * — no wall-clock times, thread counts, or worker ids — so the same
 * grid produces byte-identical reports at any parallelism.
 */

#include <array>
#include <string>
#include <string_view>

#include "arena/bakeoff.hpp"

namespace asd
{

/** The metrics each JSON cell ends with, after its cycles and speedup. */
inline constexpr std::array<std::string_view, 5> kBakeoffCellMetrics = {
    "useful_prefetch_pct", "coverage_pct", "delayed_regular_pct",
    "ms_prefetches_issued", "mc_reads"};

/**
 * @return the full bake-off report as one JSON document (schema
 * "asdbakeoff/v1"): grid, ranked leaderboard, and per-cell metrics.
 */
std::string bakeoffJson(const BakeoffResult &result);

/**
 * @return the ranked leaderboard as a Markdown table, with one
 * per-workload detail section per prefetcher. Milli-percent values
 * render with three decimals.
 */
std::string bakeoffMarkdown(const BakeoffResult &result);

/** Format integer milli-percent as a decimal string ("12.345"). */
std::string formatMilliPct(std::int64_t milli_pct);

} // namespace asd

#endif // ASD_ARENA_REPORT_HPP
