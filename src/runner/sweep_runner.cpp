#include "runner/sweep_runner.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "common/thread_pool.hpp"
#include "runner/warm_start.hpp"

namespace asd
{

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options))
{
}

std::vector<JobResult>
SweepRunner::run(const std::vector<JobSpec> &jobs_in)
{
    std::vector<JobSpec> jobs = jobs_in;
    std::size_t warm_started = 0;
    if (options_.warm_start) {
        auto cache =
            std::make_shared<WarmupCache>(options_.snapshot_dir);
        warm_started = applyWarmStart(jobs, std::move(cache));
    }

    const auto start = std::chrono::steady_clock::now();
    const auto elapsedMs = [start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    unsigned threads =
        options_.threads == 0 ? defaultThreadCount() : options_.threads;
    if (threads > jobs.size())
        threads = static_cast<unsigned>(jobs.size());
    if (threads == 0)
        threads = 1;

    summary_ = SweepSummary{};
    summary_.jobs = jobs.size();
    summary_.threads = threads;
    summary_.warm_started = warm_started;

    std::vector<JobResult> results(jobs.size());
    if (!jobs.empty()) {
        std::mutex report_mutex;
        SweepProgress progress;
        progress.total = jobs.size();

        ThreadPool pool(threads);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([&, i](unsigned worker) {
                JobSpec job = jobs[i];
                if (job.timeout_ms <= 0.0)
                    job.timeout_ms = options_.default_timeout_ms;
                JobResult result = runJob(job);
                result.worker = worker;

                std::lock_guard<std::mutex> lock(report_mutex);
                ++progress.done;
                switch (result.status) {
                case JobStatus::Ok:
                    ++progress.ok;
                    break;
                case JobStatus::Failed:
                    ++progress.failed;
                    break;
                case JobStatus::TimedOut:
                    ++progress.timed_out;
                    break;
                }
                progress.last_id = result.spec.id;
                progress.last_wall_ms = result.wall_ms;
                progress.elapsed_ms = elapsedMs();
                const auto left = progress.total - progress.done;
                progress.eta_ms =
                    progress.done == 0
                        ? 0.0
                        : progress.elapsed_ms /
                              static_cast<double>(progress.done) *
                              static_cast<double>(left);
                if (options_.sink)
                    options_.sink->write(result);
                results[i] = std::move(result);
                if (options_.on_progress)
                    options_.on_progress(progress);
            });
        }
        pool.wait();

        summary_.ok = progress.ok;
        summary_.failed = progress.failed;
        summary_.timed_out = progress.timed_out;
    }

    summary_.wall_ms = elapsedMs();
    if (options_.sink)
        options_.sink->finish(summary_);
    return results;
}

void
printProgress(const SweepProgress &p)
{
    std::fprintf(stderr,
                 "\r[%zu/%zu] %5.1f%%  eta %6.1fs  last %s (%.0f ms)"
                 "\033[K",
                 p.done, p.total,
                 100.0 * static_cast<double>(p.done) /
                     static_cast<double>(p.total),
                 p.eta_ms / 1000.0, p.last_id.c_str(),
                 p.last_wall_ms);
    if (p.done == p.total)
        std::fprintf(stderr, "\n");
}

} // namespace asd
