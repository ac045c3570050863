/**
 * @file
 * Figure 13: effectiveness of the memory-side prefetcher in the PMS
 * configuration — percentage of useful prefetches, prefetch coverage
 * (reads served by the Prefetch Buffer, including merges with
 * in-flight prefetches), and the percentage of regular commands
 * delayed by memory-side prefetches.
 *
 * Paper: useful 82-91%, coverage 19-34%, delayed 1-3%.
 */

#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main()
{
    using namespace asd;

    Table table({"benchmark", "useful_pct", "coverage_pct",
                 "delayed_regulars_pct"});
    for (const Benchmark &bench : detailedStudyBenchmarks()) {
        RunOptions options;
        options.mode = PrefetchMode::PMS;
        const RunMetrics m = runBenchmark(bench, options);
        table.addRow({bench.name, Table::num(m.useful_prefetch_pct),
                      Table::num(m.coverage_pct),
                      Table::num(m.delayed_regular_pct)});
    }

    std::cout << "Figure 13: memory-side prefetch effectiveness "
                 "(PMS)\n\n";
    table.print(std::cout);
    std::cout << "\npaper: useful 82-91%, coverage 19-34%, delayed "
                 "1-3%\n";
    return 0;
}
