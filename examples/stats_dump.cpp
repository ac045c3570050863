/**
 * @file
 * Diagnostic example: run one benchmark in one configuration and dump
 * every registered counter, the run metrics, and the final stream-
 * length histogram — as one valid JSON document on stdout, so the
 * output can feed scripts directly. Useful when adapting the
 * simulator to new workloads.
 *
 * Usage: stats_dump [benchmark] [NP|PS|MS|PMS] [asd|nextline|p5]
 */

#include <iostream>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"

int
main(int argc, char **argv)
{
    using namespace asd;

    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const std::string mode_text = argc > 2 ? argv[2] : "PMS";
    const auto mode = parseEnum<PrefetchMode>(mode_text);
    if (!mode)
        fatal("unknown mode (use NP|PS|MS|PMS): " + mode_text);
    const std::string kind_text = argc > 3 ? argv[3] : "asd";
    const auto kind = parseEnum<McPrefetcherKind>(kind_text);
    if (!kind)
        fatal("unknown prefetcher kind: " + kind_text);

    const Benchmark &bench = findBenchmark(name);
    RunOptions options;
    options.mode = *mode;
    options.mc_prefetcher = *kind;

    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, options);
    SyntheticTraceGenerator trace(trace_config);

    System system(makeSystemConfig(options), {&trace});
    const RunMetrics metrics = system.run();

    JsonWriter writer;
    writer.beginObject();
    writer.key("schema").value("asdsim/stats-dump/v1");
    writer.key("benchmark").value(name);
    writer.key("options");
    writeJson(writer, options);
    writer.key("metrics");
    writeJson(writer, metrics);

    writer.key("counters").beginObject();
    for (const auto &[stat_name, value] : system.stats().dump())
        writer.key(stat_name).value(value);
    writer.endObject();

    writer.key("stream_length_hist");
    if (const AsdPrefetcher *asd_pf = system.asd()) {
        // Fraction of streams per length bucket (index 0 = length 1).
        writer.beginArray();
        const Histogram &hist = asd_pf->streamLengthHist();
        for (std::uint64_t len = 1; len <= hist.buckets(); ++len)
            writer.value(hist.fraction(len));
        writer.endArray();
    } else {
        writer.null();
    }
    writer.endObject();

    std::cout << writer.str() << "\n";
    return 0;
}
