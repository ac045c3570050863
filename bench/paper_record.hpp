/**
 * @file
 * The paper record's figures and the driver that runs their jobs and
 * writes their files; paper_record.cpp says how the grid is shared.
 */

#ifndef ASD_BENCH_PAPER_RECORD_HPP
#define ASD_BENCH_PAPER_RECORD_HPP

#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "runner/job.hpp"
#include "sim/system.hpp"
#include "tuner/run.hpp"

namespace asd::record
{

/** Finished jobs by id. */
class Results
{
  public:
    explicit Results(std::map<std::string, RunMetrics> metrics)
        : metrics_(std::move(metrics))
    {}

    const RunMetrics &
    at(const std::string &id) const
    {
        const auto it = metrics_.find(id);
        if (it == metrics_.end())
            panic("no result for job " + id);
        return it->second;
    }

    /** The default-body run of @p bench under @p options. */
    const RunMetrics &
    operator()(const Benchmark &bench, const RunOptions &options) const
    {
        return at(makeJobId(bench, options));
    }

  private:
    std::map<std::string, RunMetrics> metrics_;
};

/** Why a figure could not render; empty when it did. */
using Failure = std::string;

/** Reads what a finished default-body run leaves in its machine. */
using Reader = std::function<void(const System &, const RunResult &)>;

/** One output file of the record. */
struct Figure
{
    std::string file; //!< output file name, e.g. "fig11_ablation.txt"
    std::vector<JobSpec> jobs;
    /** Write the file's bytes. */
    std::function<Failure(const Results &, std::ostream &)> render;
    /** Readers of default-body jobs in `jobs`, by job id. */
    std::vector<std::pair<std::string, Reader>> readers = {};

    /** Request the default-body @p job and read it with @p reader. */
    void
    read(JobSpec job, Reader reader)
    {
        readers.emplace_back(job.id, std::move(reader));
        jobs.push_back(std::move(job));
    }
};

/** Every figure, table, ablation and extension, in file order. */
std::vector<Figure> paperFigures();

/**
 * Run the distinct jobs of @p figures once on the sweep runner, then
 * write @p dir/<file> for each figure, creating @p dir. A failed job
 * or a failed write is fatal. @return 0, or 1 when some render failed
 * (it says why on stderr; every file is written all the same).
 */
int writeRecord(const std::vector<Figure> &figures,
                const std::filesystem::path &dir);

} // namespace asd::record

#endif // ASD_BENCH_PAPER_RECORD_HPP
