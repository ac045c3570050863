#ifndef ASD_ARENA_BAKEOFF_HPP
#define ASD_ARENA_BAKEOFF_HPP

/**
 * @file
 * The bake-off arena: run every selected contender from the
 * PrefetcherRegistry across workload suites under identical machine
 * conditions and rank them. Layered on SweepRunner, so contender runs
 * execute in parallel, share warm-up snapshots (an NP baseline and
 * every memory-side contender of the same workload fork one snapshot
 * — disarmed machines evolve identically), and can resume from a
 * previous run's result directory. The ranked output is byte-stable
 * across runs and thread counts.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arena/registry.hpp"
#include "arena/scoring.hpp"
#include "runner/sweep_runner.hpp"
#include "workloads/profiles.hpp"

namespace asd
{

/** One competition setting: a benchmark, optionally under VM/OS. */
struct BakeoffWorkload
{
    /** Report label, "<suite>/<bench>" plus "+vm"/"+os" suffixes. */
    std::string label;

    /** Into the static suite tables (suiteBenchmarks, findBenchmark). */
    const Benchmark *bench = nullptr;

    /** Run with the 4 KiB random-placement VM layer enabled. */
    bool vm = false;

    /** Run with the OS memory model enabled (canonical config). */
    bool os = false;
};

/** Knobs for one bake-off. */
struct BakeoffOptions
{
    /** Workload suites to sweep (in order). */
    std::vector<Suite> suites = {Suite::Spec2006fp, Suite::Nas,
                                 Suite::Commercial};

    /**
     * Extra benchmarks by name (resolved via findBenchmark), added
     * after the suites under the "extra/" label prefix. When suites
     * is empty these are the whole grid.
     */
    std::vector<std::string> benchmarks;

    /** Contender registry names; empty = every registered one. */
    std::vector<std::string> prefetchers;

    /** Also run every workload with the VM layer on ("+vm"). */
    bool vm_axis = false;

    /**
     * Also run every workload under the OS memory model ("+os"):
     * demand paging over the default finite frame pool with CLOCK
     * reclaim, so contenders are ranked under fault/reclaim stalls
     * and TLB shootdowns too.
     */
    bool os_axis = false;

    /** Trace-length override applied to every job. */
    std::optional<std::uint64_t> accesses;

    /**
     * Warm-up cycles before memory-side contenders arm. Nonzero
     * makes warm-start snapshot sharing effective: one warm-up per
     * workload serves the NP baseline and all MS contenders.
     */
    Cycle warmup_cycles = 20000;

    /** Worker threads; 0 = defaultThreadCount(). */
    unsigned threads = 0;

    /**
     * Result directory. When set, per-job records and warm-up
     * snapshots persist there (enables resume); empty = in-memory.
     */
    std::string out_dir;

    /** Adopt ok records already present in out_dir (needs out_dir). */
    bool resume = false;

    /** Share warm-up snapshots across jobs (see SweepOptions). */
    bool warm_start = true;

    /** Forwarded to SweepOptions::on_progress. */
    std::function<void(const SweepProgress &)> on_progress;
};

/** Everything a bake-off produces. */
struct BakeoffResult
{
    /** The competition grid, in run order. */
    std::vector<BakeoffWorkload> workloads;

    /** Contender registry names, in ranked-report tally order. */
    std::vector<std::string> prefetchers;

    /**
     * One cell per (workload, contender), workload-major in grid
     * order. NP baseline runs are folded into each cell's
     * baseline_cycles, not listed as cells.
     */
    std::vector<BakeoffCell> cells;

    /** Ranked leaderboard rows. */
    std::vector<PrefetcherScore> scores;

    /** Sweep statistics of the jobs that actually ran. */
    SweepSummary summary;

    /** Records adopted from out_dir instead of re-run (resume). */
    std::size_t adopted = 0;

    /** Total jobs in the grid, including baselines. */
    std::size_t total_jobs = 0;
};

/** Runs one bake-off; stateless between run() calls. */
class BakeoffRunner
{
  public:
    /**
     * Validates @p options eagerly: unknown prefetcher or benchmark
     * names and an empty grid fatal() here, not mid-sweep.
     */
    explicit BakeoffRunner(BakeoffOptions options);

    /** Execute the whole grid and score it. */
    BakeoffResult run();

    /** The resolved competition grid (visible before run()). */
    const std::vector<BakeoffWorkload> &
    workloads() const
    {
        return workloads_;
    }

    /** The resolved contender list (visible before run()). */
    const std::vector<const PrefetcherInfo *> &
    contenders() const
    {
        return contenders_;
    }

  private:
    RunOptions workloadOptions(const BakeoffWorkload &workload,
                               const RunOptions &base) const;

    BakeoffOptions options_;
    std::vector<BakeoffWorkload> workloads_;
    std::vector<const PrefetcherInfo *> contenders_;
};

} // namespace asd

#endif // ASD_ARENA_BAKEOFF_HPP
