#include "sim/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/log.hpp"
#include "sim/run_options_schema.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"

namespace asd
{

double
parseBenchScale(const char *text)
{
    if (!text || *text == '\0')
        return 1.0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0') {
        warn("ignoring non-numeric ASD_BENCH_SCALE \"" +
             std::string(text) + "\"");
        return 1.0;
    }
    if (!std::isfinite(v) || v <= 0.0) {
        warn("ignoring non-positive ASD_BENCH_SCALE \"" +
             std::string(text) + "\"");
        return 1.0;
    }
    return v;
}

double
benchScale()
{
    // Deliberate CI trace-length scaling knob, read once and cached;
    // every derived trace length flows into the job id, so two
    // differently-scaled runs can never collide in the sweep store.
    // asdlint:allow(wall-clock-and-env): CI scale knob, read once at startup and cached; scaled lengths feed the job id
    static const double scale = parseBenchScale(std::getenv("ASD_BENCH_SCALE"));
    return scale;
}

std::uint64_t
scaledAccesses(const Benchmark &bench, const RunOptions &options)
{
    const std::uint64_t base =
        options.accesses.value_or(bench.trace.total_accesses);
    const auto scaled =
        static_cast<std::uint64_t>(static_cast<double>(base) *
                                   benchScale());
    return scaled < 1000 ? 1000 : scaled;
}

SystemConfig
makeSystemConfig(const RunOptions &options)
{
    SystemConfig config;
    config.mode = options.mode;
    config.mc_prefetcher = options.mc_prefetcher;
    config.ps_kind = options.ps_kind;
    config.ps_oracle = options.ps_oracle;
    config.vm = options.vm;
    config.os = options.os;
    config.mc.scheduler = options.scheduler;
    config.asd.buffer_lines = options.buffer_lines;
    config.asd.filter_slots = options.filter_slots;
    config.asd.max_degree = options.max_degree;
    config.asd.saturate_long_streams = options.saturate_long_streams;
    if (options.fixed_policy) {
        config.asd.sched.adaptive = false;
        config.asd.sched.fixed_policy = *options.fixed_policy;
    }
    config.ghb.delta_correlate = options.ghb_delta_correlate;
    config.telemetry = options.telemetry;
    config.tuner = options.tuner;
    config.warmup_cycles = options.warmup_cycles;
    return config;
}

std::unique_ptr<TraceSource>
makeTraceSource(const RunOptions &options, const SyntheticConfig &trace)
{
    if (options.tenants.enabled)
        return std::make_unique<TenantMixSource>(options.tenants, trace,
                                                 trace.total_accesses);
    return std::make_unique<SyntheticTraceGenerator>(trace);
}

RunMetrics
runSmtPair(const Benchmark &a, const Benchmark &b,
           const RunOptions &options,
           std::vector<EpochRecord> *epochs_out)
{
    if (const CliError error = validate(options, RunContext{.smt = true}))
        fatal("runSmtPair: " + *error);
    SyntheticConfig config_a = a.trace;
    SyntheticConfig config_b = b.trace;
    config_a.total_accesses = scaledAccesses(a, options);
    config_b.total_accesses = scaledAccesses(b, options);
    // Distinct seeds so co-running identical benchmarks do not share
    // address streams.
    config_b.seed = config_b.seed * 7919 + 17;
    SyntheticTraceGenerator trace_a(config_a);
    SyntheticTraceGenerator trace_b(config_b);

    System system(makeSystemConfig(options), {&trace_a, &trace_b});
    const RunMetrics metrics = system.run();
    if (epochs_out)
        *epochs_out = system.telemetry() ? system.telemetry()->records()
                                         : std::vector<EpochRecord>{};
    return metrics;
}

} // namespace asd
