#include "runner/job.hpp"

#include <chrono>
#include <exception>

#include "tuner/run.hpp"

namespace asd
{

std::string
makeJobId(const Benchmark &bench, const RunOptions &options,
          std::optional<std::uint64_t> seed)
{
    std::string id = bench.name + jobIdSuffix(options);
    if (seed)
        id += ".seed" + std::to_string(*seed);
    return id;
}

Benchmark
effectiveBench(const JobSpec &job)
{
    Benchmark bench = job.bench;
    if (job.seed)
        bench.trace.seed = *job.seed;
    return bench;
}

JobSpec
makeJob(const Benchmark &bench, const RunOptions &options,
        std::optional<std::uint64_t> seed)
{
    JobSpec job;
    job.id = makeJobId(bench, options, seed);
    job.bench = bench;
    job.options = options;
    job.seed = seed;
    return job;
}

JobResult
runJob(const JobSpec &job)
{
    JobResult result;
    result.spec = job;

    const auto start = std::chrono::steady_clock::now();
    try {
        result.metrics = job.body
                             ? job.body(job)
                             : runBenchmark(effectiveBench(job), job.options);
        result.status = JobStatus::Ok;
    } catch (const std::exception &e) {
        result.status = JobStatus::Failed;
        result.error = e.what();
    } catch (...) {
        result.status = JobStatus::Failed;
        result.error = "unknown exception";
    }
    const auto end = std::chrono::steady_clock::now();
    result.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();

    if (result.status == JobStatus::Ok && job.timeout_ms > 0.0 &&
        result.wall_ms > job.timeout_ms) {
        result.status = JobStatus::TimedOut;
        result.error = "exceeded timeout of " +
                       std::to_string(job.timeout_ms) + " ms";
    }
    return result;
}

} // namespace asd
