/**
 * @file
 * Extension experiment: online phase-adaptive reconfiguration. A
 * phase-churning workload alternates between a long-stream regime
 * (deep prefetch degree pays) and a short-stream regime (deep degree
 * pollutes), with each regime spanning several ASD epochs. Every
 * fixed configuration from the degree axis is run straight through;
 * the tuner (src/tuner/) runs once, re-deciding its configuration at
 * detected phase changes via snapshot-forked shadow simulations. The
 * headline is the tuner finishing ahead of the best fixed
 * configuration — adaptivity beating any single point of its own
 * search space.
 *
 * Writes a JSON report (schema asd/bench/tuner/v1) to the path given
 * as argv[1], default ./BENCH_tuner.json — run it from the repo root
 * to refresh the checked-in copy. Downscaled runs (ASD_BENCH_SCALE
 * < 1) skip the headline gate: with only a handful of epochs the
 * phase detector never has enough evidence to act.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/experiment.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace
{

using namespace asd;

/**
 * Alternating stream-length regimes under tight bandwidth pressure,
 * each spanning several epochs so the phase detector can see the
 * change and an adopted configuration has time to matter. The
 * generator cycles through the phase list for the whole trace.
 *
 * The regimes are chosen so the best prefetch degree flips with the
 * phase (measured on each regime in isolation):
 *  - 16-line streams: degree 4 beats degree 1 by >2 pp of NP cycles
 *    (deep prefetch is pure timeliness).
 *  - 2-line bursts mixed with 4-line streams: the SLH keeps
 *    prefetching on the length-4 evidence, the length-2 majority
 *    wastes it, and every extra degree amplifies the pollution —
 *    degree 1 is the least bad (both lose to NP here).
 * No fixed degree is optimal in both regimes, which is exactly the
 * gap an online reconfiguration controller can close.
 */
Benchmark
churningBench()
{
    Benchmark bench;
    bench.name = "phase-churn";
    SyntheticConfig &trace = bench.trace;
    trace.seed = 777;
    trace.total_accesses = 360000;
    trace.working_set_bytes = 512ULL << 20;
    trace.mean_gap = 2.0;
    trace.mean_touches_per_line = 3.0;
    trace.reuse_frac = 0.1;
    trace.write_frac = 0.2;
    trace.dependent_frac = 0.1;
    trace.negative_dir_frac = 0.1;
    trace.concurrent_streams = 8;

    // Long regime: 15-16 line streams.
    std::vector<double> longs(16, 0.0);
    longs[15] = 1.0;
    longs[14] = 0.5;
    // Toxic regime: 2-line bursts with enough 4-line streams that
    // the SLH stays optimistic.
    std::vector<double> shorts(16, 0.0);
    shorts[1] = 1.0;
    shorts[3] = 0.5;

    trace.phases = {PhaseProfile{longs, 60000},
                    PhaseProfile{shorts, 60000}};
    return bench;
}

std::int64_t
speedupMilliPct(Cycle baseline, Cycle cycles)
{
    if (baseline == 0)
        return 0;
    return (static_cast<std::int64_t>(baseline) -
            static_cast<std::int64_t>(cycles)) *
           100000 / static_cast<std::int64_t>(baseline);
}

RunOptions
fixedOptions(std::uint32_t degree)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.mc_prefetcher = McPrefetcherKind::Asd;
    options.max_degree = degree;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asd;

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_tuner.json";
    const Benchmark bench = churningBench();

    RunOptions np;
    np.mode = PrefetchMode::NP;
    const Cycle np_cycles = runBenchmark(bench, np).cycles;

    // --- Fixed configurations: the tuner's own degree axis ----------
    struct Fixed
    {
        std::uint32_t degree = 0;
        Cycle cycles = 0;
    };
    std::vector<Fixed> fixed;
    for (const std::uint32_t degree : {1u, 2u, 4u}) {
        Fixed f;
        f.degree = degree;
        f.cycles =
            runBenchmark(bench, fixedOptions(degree)).cycles;
        fixed.push_back(f);
    }
    const Fixed *best_fixed = &fixed.front();
    for (const Fixed &f : fixed) {
        if (f.cycles < best_fixed->cycles)
            best_fixed = &f;
    }

    // --- The tuner, once, over the same trace -----------------------
    // The search space is restricted to the degree axis, so the
    // fixed grid above IS the tuner's whole space: any win over the
    // best fixed run comes from phase-switching alone, not from
    // reaching configurations the fixed grid was never offered.
    RunOptions tuned_options = fixedOptions(1);
    tuned_options.tuner.enabled = true;
    // The horizon must be long enough for the degree choice to
    // separate the candidates by whole retired accesses — a regime
    // here spans ~1.7M cycles, so 300k cycles samples it cleanly
    // without straddling the next flip.
    tuned_options.tuner.shadow_horizon = 300000;
    tuned_options.tuner.phase_threshold_milli_pct = 30000;
    tuned_options.tuner.shadow_threads = 0; // wall-clock only
    tuned_options.tuner.space.degrees = {1, 2, 4};
    tuned_options.tuner.space.filter_slots = {8};
    tuned_options.tuner.space.buffer_lines = {16};
    tuned_options.tuner.space.epoch_reads = {2000};
    tuned_options.tuner.space.policies = {0};
    BenchmarkRun tuned(bench, tuned_options);
    const RunResult result = tuned.run();
    const Cycle tuner_cycles = result.metrics.cycles;

    std::uint64_t shadow_cycles_total = 0;
    std::uint64_t adoptions = 0;
    for (const TunerDecision &d : result.decisions) {
        shadow_cycles_total += d.shadow_cycles;
        adoptions += d.adopted_change ? 1 : 0;
    }

    const bool full_scale = benchScale() >= 1.0;
    const bool beats_best =
        tuner_cycles < best_fixed->cycles;

    // --- Report -----------------------------------------------------
    JsonWriter writer;
    writer.beginObject();
    writer.key("schema").value("asd/bench/tuner/v1");
    writer.key("bench_scale").value(benchScale());
    writer.key("workload").value(bench.name);
    writer.key("np_cycles").value(np_cycles);
    writer.key("fixed").beginArray();
    for (const Fixed &f : fixed) {
        writer.beginObject();
        writer.key("degree").value(
            static_cast<std::uint64_t>(f.degree));
        writer.key("cycles").value(f.cycles);
        writer.key("speedup_milli_pct")
            .value(speedupMilliPct(np_cycles, f.cycles));
        writer.endObject();
    }
    writer.endArray();
    writer.key("best_fixed").beginObject();
    writer.key("degree").value(
        static_cast<std::uint64_t>(best_fixed->degree));
    writer.key("cycles").value(best_fixed->cycles);
    writer.key("speedup_milli_pct")
        .value(speedupMilliPct(np_cycles, best_fixed->cycles));
    writer.endObject();
    writer.key("tuner").beginObject();
    writer.key("cycles").value(tuner_cycles);
    writer.key("speedup_milli_pct")
        .value(speedupMilliPct(np_cycles, tuner_cycles));
    writer.key("decisions")
        .value(static_cast<std::uint64_t>(result.decisions.size()));
    writer.key("adoptions").value(adoptions);
    writer.key("shadow_cycles_total").value(shadow_cycles_total);
    writer.key("log").beginArray();
    for (const TunerDecision &d : result.decisions) {
        writer.beginObject();
        writer.key("cycle").value(d.cycle);
        writer.key("phase").value(d.phase);
        writer.key("adopted_change").value(d.adopted_change);
        writer.key("degree").value(static_cast<std::uint64_t>(
            d.adopted.max_degree));
        writer.key("epoch_reads").value(static_cast<std::uint64_t>(
            d.adopted.epoch_reads));
        writer.key("winner_shadow_accesses")
            .value(d.winner_shadow_accesses);
        writer.key("realized_accesses").value(d.realized_accesses);
        writer.key("realized_valid").value(d.realized_valid);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    writer.key("tuner_beats_best_fixed").value(beats_best);
    writer.key("margin_milli_pct")
        .value(speedupMilliPct(best_fixed->cycles, tuner_cycles));
    writer.endObject();

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot write " + out_path);
    out << writer.str() << "\n";

    std::cout << "ext_tuner_adaptation: tuner "
              << static_cast<double>(
                     speedupMilliPct(np_cycles, tuner_cycles)) /
                     1000.0
              << "% vs best fixed (d" << best_fixed->degree << ") "
              << static_cast<double>(speedupMilliPct(
                     np_cycles, best_fixed->cycles)) /
                     1000.0
              << "% over NP; " << result.decisions.size()
              << " decisions (" << adoptions << " adoptions) -> "
              << out_path << "\n";

    // The headline gates, after the report so a regression still
    // leaves the numbers on disk for diagnosis. Downscaled runs have
    // too few epochs for the detector to act, so only full-scale
    // runs are held to them.
    if (full_scale && result.decisions.empty())
        fatal("tuner made no decisions on the phase-churning "
              "workload at full scale");
    if (full_scale && !beats_best)
        fatal("tuner did not beat the best fixed configuration "
              "(tuner " + std::to_string(tuner_cycles) +
              " vs fixed d" + std::to_string(best_fixed->degree) +
              " " + std::to_string(best_fixed->cycles) + ")");
    return 0;
}
