#include "runner/warm_start.hpp"

#include <filesystem>
#include <sstream>

#include "common/log.hpp"
#include "sim/serialize.hpp"
#include "sim/snapshot_io.hpp"
#include "snapshot/snapshot.hpp"
#include "tuner/run.hpp"

namespace asd
{

namespace
{

/**
 * The configuration the warm-up runs under: the job's options with
 * the memory side stripped (PMS -> PS, MS -> NP) and telemetry off.
 * The resulting machine's evolution is identical to the job's own
 * disarmed machine, but the snapshot carries no "ms"/"tel" sections,
 * so it restores into ANY memory-side configuration that shares the
 * warm-up key.
 */
RunOptions
warmupOptions(const JobSpec &job)
{
    RunOptions options = job.options;
    options.mode = options.mode == PrefetchMode::PMS ||
                           options.mode == PrefetchMode::PS
                       ? PrefetchMode::PS
                       : PrefetchMode::NP;
    options.telemetry.enabled = false;
    return options;
}

} // namespace

std::string
warmupKey(const JobSpec &job)
{
    // The machine evolves identically while the memory side is
    // disarmed, so only processor-side presence, the resolved trace,
    // and the fields the option table marks as shaping the warm-up
    // join the key; two jobs share a warm-up exactly when those agree.
    const Benchmark bench = effectiveBench(job);
    const RunOptions &o = job.options;
    const bool has_ps = o.mode == PrefetchMode::PS ||
                        o.mode == PrefetchMode::PMS;
    return "asdwarm/v2;bench=" + bench.name +
           ";seed=" + std::to_string(bench.trace.seed) +
           ";acc=" + std::to_string(scaledAccesses(bench, o)) +
           ";ps=" + (has_ps ? "1" : "0") + warmupFields(o);
}

bool
warmStartEligible(const JobSpec &job)
{
    // Tenant mixes and tuned runs always cold-start: the warm-up key
    // does not cover a tenant mix's trace, and a tuned run's
    // telemetry baseline must see its own warm-up boundary.
    return !job.body && job.options.warmup_cycles > 0 &&
           !job.options.tenants.enabled && !job.options.tuner.enabled;
}

SnapshotBytes
simulateWarmup(const JobSpec &job)
{
    BenchmarkRun warmup(effectiveBench(job), warmupOptions(job));
    warmup.runUntil(job.options.warmup_cycles);

    SnapshotWriter writer;
    warmup.saveSnapshot(writer);
    return writer.finish(fnv1a64(warmupKey(job)));
}

RunMetrics
runFromSnapshot(const JobSpec &job, const SnapshotBytes &bytes)
{
    SnapshotReader reader(bytes);
    reader.requireConfigHash(fnv1a64(warmupKey(job)));

    BenchmarkRun run(effectiveBench(job), job.options);
    run.loadSnapshot(reader);
    return run.run().metrics;
}

// --- WarmupCache ---------------------------------------------------

WarmupCache::WarmupCache(std::string dir) : dir_(std::move(dir)) {}

std::string
WarmupCache::diskPath(const std::string &key) const
{
    std::ostringstream name;
    name << std::hex << fnv1a64(key);
    return (std::filesystem::path(dir_) / (name.str() + ".asdsnap"))
        .string();
}

std::shared_ptr<const SnapshotBytes>
WarmupCache::tryDisk(const std::string &key) const
{
    if (dir_.empty())
        return nullptr;
    const std::string path = diskPath(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return nullptr;
    try {
        auto bytes = std::make_shared<const SnapshotBytes>(
            readSnapshotFile(path));
        // Validate framing and binding before handing it out; a
        // stale or foreign file must cause a fresh warm-up, not a
        // mismatched restore.
        SnapshotReader reader(*bytes);
        reader.requireConfigHash(fnv1a64(key));
        return bytes;
    } catch (const SnapshotError &e) {
        warn("ignoring unusable warm-up cache file " + path + " (" +
             e.what() + ")");
        return nullptr;
    }
}

void
WarmupCache::putDisk(const std::string &key,
                     const SnapshotBytes &bytes) const
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("cannot create warm-up cache directory " + dir_ + ": " +
             ec.message());
        return;
    }
    try {
        writeSnapshotFile(diskPath(key), bytes);
    } catch (const SnapshotError &e) {
        warn(std::string("cannot persist warm-up snapshot: ") +
             e.what());
    }
}

std::shared_ptr<const SnapshotBytes>
WarmupCache::obtain(const std::string &key,
                    const std::function<SnapshotBytes()> &make)
{
    std::promise<std::shared_ptr<const SnapshotBytes>> promise;
    std::shared_future<std::shared_ptr<const SnapshotBytes>> future;
    bool creator = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            future = it->second;
        } else {
            creator = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        }
    }
    if (creator) {
        try {
            std::shared_ptr<const SnapshotBytes> bytes = tryDisk(key);
            if (!bytes) {
                bytes =
                    std::make_shared<const SnapshotBytes>(make());
                putDisk(key, *bytes);
            }
            promise.set_value(std::move(bytes));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::size_t
applyWarmStart(std::vector<JobSpec> &jobs,
               std::shared_ptr<WarmupCache> cache)
{
    std::size_t wrapped = 0;
    for (JobSpec &job : jobs) {
        if (!warmStartEligible(job))
            continue;
        ++wrapped;
        job.body = [cache](const JobSpec &j) -> RunMetrics {
            try {
                const auto bytes = cache->obtain(
                    warmupKey(j), [&j] { return simulateWarmup(j); });
                return runFromSnapshot(j, *bytes);
            } catch (const SnapshotError &e) {
                warn("warm start failed for " + j.id + " (" +
                     e.what() + "); falling back to a cold start");
                return runBenchmark(effectiveBench(j), j.options);
            }
        };
    }
    return wrapped;
}

} // namespace asd
