#ifndef ASD_SIM_SERIALIZE_HPP
#define ASD_SIM_SERIALIZE_HPP

/**
 * @file
 * Machine-readable views of the experiment layer: JSON serialization
 * of RunOptions (driven by the field table in run_options_schema.hpp,
 * which also supplies the enum names) and of RunMetrics (driven by the
 * metrics field list in serialize.cpp), so sweep results can be
 * consumed by scripts instead of scraped from text tables.
 */

#include <optional>
#include <string>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/run_options_schema.hpp"

namespace asd
{

/** Append @p options as one JSON object to @p writer. */
void writeJson(JsonWriter &writer, const RunOptions &options);

/** Append @p metrics as one JSON object to @p writer. */
void writeJson(JsonWriter &writer, const RunMetrics &metrics);

/** @return @p options as a standalone JSON document. */
std::string toJson(const RunOptions &options);

/** @return @p metrics as a standalone JSON document. */
std::string toJson(const RunMetrics &metrics);

/**
 * Inverse of writeJson(RunMetrics): rebuild metrics from a parsed
 * JSON object (e.g. the "metrics" member of a sweep result record).
 * @return nullopt when @p value is not an object or any field is
 * missing or of the wrong type — a round-trip must be exact, so
 * partial records are rejected rather than zero-filled.
 */
std::optional<RunMetrics> metricsFromJson(const JsonValue &value);

} // namespace asd

#endif // ASD_SIM_SERIALIZE_HPP
