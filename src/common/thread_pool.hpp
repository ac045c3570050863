#ifndef ASD_COMMON_THREAD_POOL_HPP
#define ASD_COMMON_THREAD_POOL_HPP

/**
 * @file
 * Fixed-size worker pool over a shared task queue. Tasks are opaque
 * callables taking the worker index (for telemetry); they must not
 * throw — the sweep runner wraps all simulation work in runJob(),
 * which converts exceptions into structured failure records, and the
 * shadow tuner marks a throwing fork invalid.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asd
{

/**
 * Default worker-thread count (sweeps, shadow forks): the
 * ASD_SWEEP_THREADS environment variable when set to a positive
 * integer, otherwise std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultThreadCount();

/** A fixed set of workers draining one FIFO task queue. */
class ThreadPool
{
  public:
    using Task = std::function<void(unsigned worker)>;

    /** Spawn @p threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned threads);

    /** Joins after draining the queue. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; runs on some worker in FIFO order. */
    void submit(Task task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned
    threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop(unsigned index);

    std::mutex mutex_;
    std::condition_variable work_cv_; //!< workers: queue or stop
    std::condition_variable idle_cv_; //!< wait(): all drained
    std::deque<Task> queue_;
    std::vector<std::thread> workers_;
    std::size_t active_ = 0;
    bool stop_ = false;
};

} // namespace asd

#endif // ASD_COMMON_THREAD_POOL_HPP
