#ifndef ASD_SIM_EXPERIMENT_HPP
#define ASD_SIM_EXPERIMENT_HPP

/**
 * @file
 * The paper's default machine and trace for a benchmark in a given
 * configuration: RunOptions, the SystemConfig and trace source they
 * resolve to, and the SMT-pair run. Centralizes the paper's defaults
 * so every figure runs the same machine; single-threaded runs go
 * through BenchmarkRun (tuner/run.hpp).
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/system_config.hpp"
#include "sim/tuner_config.hpp"
#include "telemetry/recorder.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{

/** Per-run knobs the experiments vary. */
struct RunOptions
{
    PrefetchMode mode = PrefetchMode::PMS;
    McPrefetcherKind mc_prefetcher = McPrefetcherKind::Asd;
    PsKind ps_kind = PsKind::Power5;
    SchedulerKind scheduler = SchedulerKind::Ahb;

    /** Pin the LPQ policy (disables Adaptive Scheduling). */
    std::optional<int> fixed_policy;

    /** ASD structure sizes (paper defaults). */
    std::uint32_t buffer_lines = 16;
    std::uint32_t filter_slots = 8;
    std::uint32_t max_degree = 1;
    bool saturate_long_streams = false;

    /** Idealized (instant, free) processor-side prefetch fills. */
    bool ps_oracle = false;

    /**
     * GHB correlation mode: false = the classic address-correlating
     * G/AC (default, the original contender), true = global delta
     * correlation (G/DC), which actually fires on streaming
     * workloads whose addresses never recur at the controller.
     */
    bool ghb_delta_correlate = false;

    /** Override the benchmark's trace length. */
    std::optional<std::uint64_t> accesses;

    /**
     * Cycles before the memory-side prefetcher is armed (see
     * SystemConfig::warmup_cycles). While disarmed the machine
     * evolves exactly as if no MS prefetcher were attached, which is
     * what makes one warm-up snapshot reusable across MS-parameter
     * sweeps. 0 = armed from the start.
     */
    Cycle warmup_cycles = 0;

    /** VM mode (off by default => seed-identical). */
    VmConfig vm;

    /**
     * OS memory model (off by default => seed-identical). Excludes
     * vm.enabled; reads granule/TLB/walker geometry from the vm block
     * either way.
     */
    OsConfig os;

    /** Multi-tenant scenario engine (off by default). */
    TenantMixConfig tenants;

    /** Per-epoch telemetry recorder (off by default). */
    TelemetryConfig telemetry;

    /** Phase-adaptive tuner (off by default => byte-identical). */
    TunerConfig tuner;
};

/** The paper's default machine for @p options. */
SystemConfig makeSystemConfig(const RunOptions &options);

/**
 * The trace a single-threaded run of @p trace under @p options
 * replays: a tenant mix of it when options.tenants is on, else the
 * synthetic trace itself.
 */
std::unique_ptr<TraceSource> makeTraceSource(const RunOptions &options,
                                             const SyntheticConfig &trace);

/**
 * Run two benchmark threads on one core (SMT experiments). A non-null
 * @p epochs_out receives the telemetry time-series (empty when
 * options.telemetry.enabled is false). fatal() when @p options break
 * a validate() rule for SMT (tuner, tenant mix).
 */
RunMetrics runSmtPair(const Benchmark &a, const Benchmark &b,
                      const RunOptions &options,
                      std::vector<EpochRecord> *epochs_out = nullptr);

/**
 * Global trace-length multiplier from the ASD_BENCH_SCALE environment
 * variable (default 1.0); lets CI shrink the figure runs.
 */
double benchScale();

/**
 * Parse one ASD_BENCH_SCALE value. Unset (nullptr), empty,
 * non-numeric, non-finite, or non-positive text yields 1.0 (with a
 * warning for everything except unset/empty) instead of propagating a
 * garbage trace length. Exposed separately so tests can cover the
 * rejection paths without mutating the environment behind the cached
 * benchScale().
 */
double parseBenchScale(const char *text);

/** Apply benchScale() and any explicit override to a trace length. */
std::uint64_t scaledAccesses(const Benchmark &bench,
                             const RunOptions &options);

} // namespace asd

#endif // ASD_SIM_EXPERIMENT_HPP
