#ifndef ASD_RUNNER_SWEEP_RUNNER_HPP
#define ASD_RUNNER_SWEEP_RUNNER_HPP

/**
 * @file
 * Parallel execution of a vector of JobSpecs over a ThreadPool.
 * Every job is an independent simulation (no shared mutable state in
 * the simulator), so results are bit-identical to a serial loop
 * regardless of thread count — enforced by test_runner. Progress and
 * result-sink callbacks are serialized under one mutex.
 */

#include <functional>
#include <string>
#include <vector>

#include "runner/job.hpp"
#include "runner/result_sink.hpp"

namespace asd
{

/** Snapshot handed to the progress hook after every finished job. */
struct SweepProgress
{
    std::size_t total = 0;
    std::size_t done = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timed_out = 0;

    /** Job that just finished. */
    std::string last_id;
    double last_wall_ms = 0.0;

    /** Time since run() started. */
    double elapsed_ms = 0.0;

    /** Naive remaining-time estimate: elapsed/done * (total-done). */
    double eta_ms = 0.0;
};

/** The CLIs' one-line progress display on stderr. */
void printProgress(const SweepProgress &p);

/** Knobs for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = defaultThreadCount(). */
    unsigned threads = 0;

    /** Applied to jobs whose own timeout_ms is 0 (0 = none). */
    double default_timeout_ms = 0.0;

    /**
     * Share warm-up snapshots across jobs (see runner/warm_start.hpp):
     * each distinct warm-up among eligible jobs (default body,
     * warmup_cycles > 0) is simulated once and forked. Per-job
     * results stay byte-identical to cold starts.
     */
    bool warm_start = false;

    /**
     * On-disk warm-up snapshot cache (used only with warm_start);
     * empty = in-memory only. Snapshots persist across sweeps and
     * are validated before reuse — a mismatch falls back to a fresh
     * warm-up.
     */
    std::string snapshot_dir;

    /** Invoked after each job, serialized. */
    std::function<void(const SweepProgress &)> on_progress;

    /** Receives each result + the final summary, serialized. */
    ResultSink *sink = nullptr;
};

/** Runs job vectors; stateless between run() calls. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Execute @p jobs and return their results *in job order* (not
     * completion order). Failures are captured per job; run() itself
     * never throws on simulation errors.
     */
    std::vector<JobResult> run(const std::vector<JobSpec> &jobs);

    /** Summary of the most recent run(). */
    const SweepSummary &
    lastSummary() const
    {
        return summary_;
    }

  private:
    SweepOptions options_;
    SweepSummary summary_;
};

} // namespace asd

#endif // ASD_RUNNER_SWEEP_RUNNER_HPP
