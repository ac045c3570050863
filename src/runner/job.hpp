#ifndef ASD_RUNNER_JOB_HPP
#define ASD_RUNNER_JOB_HPP

/**
 * @file
 * The sweep runner's unit of work: one benchmark in one configuration
 * with a stable id and an explicit seed, plus the structured record a
 * finished (or failed) job leaves behind. Jobs are pure values — the
 * runner can execute them on any thread in any order and still
 * produce results identical to a serial loop.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/run_options_schema.hpp"
#include "workloads/profiles.hpp"

namespace asd
{

/** One simulation to run. */
struct JobSpec
{
    /**
     * Stable identifier, unique within a sweep; doubles as the result
     * file stem. makeJob() derives one from the varied fields.
     */
    std::string id;

    Benchmark bench;
    RunOptions options;

    /** Overrides the benchmark's trace seed when set. */
    std::optional<std::uint64_t> seed;

    /**
     * Soft wall-clock limit in milliseconds (0 = none). Simulations
     * are hard-bounded by SystemConfig::max_cycles, so the runner
     * checks the limit when the job finishes and downgrades the
     * result to TimedOut rather than killing the thread.
     */
    double timeout_ms = 0.0;

    /**
     * Custom work body; when empty the job runs
     * runBenchmark(effectiveBench(job), options), which honours every
     * RunOptions field, the tuner included. Lets harnesses reuse the
     * pool for SMT pairs, side outputs or fault-injection tests.
     */
    std::function<RunMetrics(const JobSpec &)> body;
};

/** How a job ended. */
enum class JobStatus : std::uint8_t
{
    Ok,       //!< ran to completion
    Failed,   //!< threw; error holds the message
    TimedOut, //!< completed but exceeded timeout_ms
};

constexpr std::array<EnumName<JobStatus>, 3>
enumNames(JobStatus)
{
    return {{{JobStatus::Ok, "ok"},
             {JobStatus::Failed, "failed"},
             {JobStatus::TimedOut, "timed_out"}}};
}

/** Structured outcome of one job. */
struct JobResult
{
    JobSpec spec;
    JobStatus status = JobStatus::Ok;

    /** Valid unless status == Failed. */
    RunMetrics metrics;

    /** Exception message when status == Failed. */
    std::string error;

    /** Wall-clock duration of the job body. */
    double wall_ms = 0.0;

    /** Pool worker that ran the job (telemetry only). */
    unsigned worker = 0;
};

/**
 * Derive a stable job id from the fields experiments vary:
 * "<bench>.<mode>.<mc_prefetcher>.pb16_sf8_d1" plus the fragments the
 * RunOptions field table declares for non-default knobs, then the
 * seed override.
 */
std::string makeJobId(const Benchmark &bench, const RunOptions &options,
                      std::optional<std::uint64_t> seed = std::nullopt);

/** @p job's benchmark with the job's seed override applied. */
Benchmark effectiveBench(const JobSpec &job);

/** Build a JobSpec with makeJobId() as its id. */
JobSpec makeJob(const Benchmark &bench, const RunOptions &options,
                std::optional<std::uint64_t> seed = std::nullopt);

/**
 * Execute @p job on the calling thread: run the body (default:
 * runBenchmark of effectiveBench(job)), capture exceptions as Failed
 * records and enforce the soft timeout. Never throws.
 */
JobResult runJob(const JobSpec &job);

} // namespace asd

#endif // ASD_RUNNER_JOB_HPP
