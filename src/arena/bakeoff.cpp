#include "arena/bakeoff.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/serialize.hpp"

namespace asd
{

namespace
{

/**
 * Recover the metrics of an adopted result record: parse the record
 * JSON and rebuild RunMetrics from its "metrics" member. nullopt on
 * any shape mismatch — the caller then re-runs the job instead of
 * scoring garbage.
 */
std::optional<RunMetrics>
metricsFromRecordFile(const std::string &dir, const std::string &id)
{
    const std::filesystem::path path =
        std::filesystem::path(dir) / (sanitizeFileStem(id) + ".json");
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto doc = jsonParse(buffer.str());
    if (!doc)
        return std::nullopt;
    const JsonValue *metrics = doc->find("metrics");
    if (!metrics)
        return std::nullopt;
    return metricsFromJson(*metrics);
}

} // namespace

BakeoffRunner::BakeoffRunner(BakeoffOptions options)
    : options_(std::move(options))
{
    for (const Suite suite : options_.suites) {
        for (const Benchmark &bench : suiteBenchmarks(suite)) {
            BakeoffWorkload workload;
            workload.label = suiteName(suite) + "/" + bench.name;
            workload.bench = &bench;
            workloads_.push_back(std::move(workload));
        }
    }
    for (const std::string &name : options_.benchmarks) {
        BakeoffWorkload workload;
        workload.label = "extra/" + name;
        workload.bench = &findBenchmark(name); // fatal() when unknown
        workloads_.push_back(std::move(workload));
    }
    if (options_.vm_axis) {
        const std::size_t base = workloads_.size();
        workloads_.reserve(base * 2);
        for (std::size_t i = 0; i < base; ++i) {
            BakeoffWorkload vm_workload = workloads_[i];
            vm_workload.label += "+vm";
            vm_workload.vm = true;
            workloads_.push_back(std::move(vm_workload));
        }
    }
    if (options_.os_axis) {
        // Duplicate only the plain workloads: VM and OS are mutually
        // exclusive machine configurations.
        const std::size_t base = workloads_.size();
        for (std::size_t i = 0; i < base; ++i) {
            if (workloads_[i].vm)
                continue;
            BakeoffWorkload os_workload = workloads_[i];
            os_workload.label += "+os";
            os_workload.os = true;
            workloads_.push_back(std::move(os_workload));
        }
    }
    panicIfNot(!workloads_.empty(),
               "BakeoffRunner: empty workload grid (no suites and no "
               "benchmarks)");

    const PrefetcherRegistry &registry = PrefetcherRegistry::instance();
    if (options_.prefetchers.empty()) {
        for (const PrefetcherInfo &info : registry.all())
            contenders_.push_back(&info);
    } else {
        for (const std::string &name : options_.prefetchers) {
            const PrefetcherInfo *info = registry.find(name);
            if (!info)
                fatal("unknown prefetcher '" + name +
                      "' (see --list-prefetchers)");
            contenders_.push_back(info);
        }
    }
    panicIfNot(!contenders_.empty(),
               "BakeoffRunner: empty contender list");
}

RunOptions
BakeoffRunner::workloadOptions(const BakeoffWorkload &workload,
                               const RunOptions &base) const
{
    RunOptions out = base;
    if (options_.accesses)
        out.accesses = options_.accesses;
    out.warmup_cycles = options_.warmup_cycles;
    if (workload.vm) {
        // The bake-off's VM setting: 4 KiB pages placed uniformly at
        // random — the fragmented long-running-OS case where spatial
        // prefetchers lose cross-page streams.
        out.vm.enabled = true;
        out.vm.policy = FrameAllocPolicy::RandomShuffle;
    }
    if (workload.os) {
        // The bake-off's OS setting is the OsConfig default: demand
        // paging over a finite frame pool with CLOCK reclaim. Every
        // contender faces the same fault/reclaim stall pattern.
        out.os.enabled = true;
    }
    return out;
}

BakeoffResult
BakeoffRunner::run()
{
    BakeoffResult result;
    result.workloads = workloads_;
    for (const PrefetcherInfo *info : contenders_)
        result.prefetchers.push_back(info->name);

    // The full grid, workload-major: the NP baseline first, then one
    // job per contender. specs[i] corresponds 1:1 to outcomes[i].
    std::vector<JobSpec> specs;
    specs.reserve(workloads_.size() * (contenders_.size() + 1));
    for (const BakeoffWorkload &workload : workloads_) {
        RunOptions np;
        np.mode = PrefetchMode::NP;
        specs.push_back(makeJob(*workload.bench,
                                workloadOptions(workload, np)));
        for (const PrefetcherInfo *info : contenders_) {
            specs.push_back(makeJob(
                *workload.bench,
                workloadOptions(workload, info->defaults)));
        }
    }
    result.total_jobs = specs.size();

    std::optional<JsonDirSink> sink;
    std::string snapshot_dir;
    if (!options_.out_dir.empty()) {
        const std::filesystem::path out(options_.out_dir);
        sink.emplace((out / "results").string());
        snapshot_dir = (out / "snapshots").string();
    }

    // Resume: adopt clean records, re-running anything whose metrics
    // cannot be recovered exactly.
    std::vector<std::optional<JobResult>> outcomes(specs.size());
    std::vector<JobSpec> to_run;
    std::vector<std::size_t> to_run_index;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (options_.resume && sink) {
            auto metrics = metricsFromRecordFile(sink->dir(),
                                                 specs[i].id);
            if (metrics && sink->adoptExisting(specs[i])) {
                JobResult adopted;
                adopted.spec = specs[i];
                adopted.status = JobStatus::Ok;
                adopted.metrics = *metrics;
                outcomes[i] = std::move(adopted);
                ++result.adopted;
                continue;
            }
        }
        to_run.push_back(specs[i]);
        to_run_index.push_back(i);
    }

    SweepOptions sweep;
    sweep.threads = options_.threads;
    sweep.warm_start = options_.warm_start;
    sweep.snapshot_dir = snapshot_dir;
    sweep.on_progress = options_.on_progress;
    sweep.sink = sink ? &*sink : nullptr;
    SweepRunner runner(sweep);
    const std::vector<JobResult> ran = runner.run(to_run);
    result.summary = runner.lastSummary();
    for (std::size_t i = 0; i < ran.size(); ++i)
        outcomes[to_run_index[i]] = ran[i];

    // Fold into cells: baseline cycles come from each workload's NP
    // job (0 when that job failed, which disables the speedup term
    // rather than poisoning it).
    const std::size_t stride = contenders_.size() + 1;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
        const JobResult &baseline = *outcomes[w * stride];
        const Cycle baseline_cycles =
            baseline.status == JobStatus::Ok ? baseline.metrics.cycles
                                             : 0;
        for (std::size_t c = 0; c < contenders_.size(); ++c) {
            const JobResult &outcome = *outcomes[w * stride + 1 + c];
            BakeoffCell cell;
            cell.prefetcher = contenders_[c]->name;
            cell.workload = workloads_[w].label;
            cell.status = outcome.status;
            cell.metrics = outcome.metrics;
            cell.baseline_cycles = baseline_cycles;
            result.cells.push_back(std::move(cell));
        }
    }
    result.scores = scoreBakeoff(result.cells);
    return result;
}

} // namespace asd
