/**
 * @file
 * Figure 11: the contribution of Adaptive Stream Detection and
 * Adaptive Scheduling. For the paper's eight detailed-study
 * benchmarks, compare (all in the PMS configuration, execution time
 * normalized to the first column):
 *
 *   1. ASD + Adaptive Scheduling        (the proposed design)
 *   2-6. ASD + fixed policies 1..5     (most..least conservative)
 *   7. next-line prefetcher + Adaptive Scheduling (no ASD)
 *   8. P5-style prefetcher + Adaptive Scheduling  (no ASD)
 *
 * Paper: Adaptive Scheduling beats the fixed policies by 2.3-3.6%;
 * ASD beats the next-line baseline by ~8.4%; the P5-style prefetcher
 * in the controller is WORSE than next-line.
 */

#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main()
{
    using namespace asd;

    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    Table table({"benchmark", "ASD+AS", "pol1", "pol2", "pol3", "pol4",
                 "pol5", "nextline+AS", "p5style+AS"});

    std::vector<double> sums(8, 0.0);
    for (const Benchmark &bench : benches) {
        RunOptions options;
        options.mode = PrefetchMode::PMS;
        const RunMetrics base = runBenchmark(bench, options);

        std::vector<double> row;
        row.push_back(1.0);
        for (int policy = 1; policy <= 5; ++policy) {
            RunOptions fixed = options;
            fixed.fixed_policy = policy;
            const RunMetrics m = runBenchmark(bench, fixed);
            row.push_back(static_cast<double>(m.cycles) /
                          static_cast<double>(base.cycles));
        }
        for (const McPrefetcherKind kind :
             {McPrefetcherKind::NextLine, McPrefetcherKind::P5Style}) {
            RunOptions alt = options;
            alt.mc_prefetcher = kind;
            const RunMetrics m = runBenchmark(bench, alt);
            row.push_back(static_cast<double>(m.cycles) /
                          static_cast<double>(base.cycles));
        }

        std::vector<std::string> cells = {bench.name};
        for (std::size_t i = 0; i < row.size(); ++i) {
            cells.push_back(Table::num(row[i], 3));
            sums[i] += row[i];
        }
        table.addRow(cells);
    }
    std::vector<std::string> avg = {"Average"};
    for (const double sum : sums)
        avg.push_back(
            Table::num(sum / static_cast<double>(benches.size()), 3));
    table.addRow(avg);

    std::cout << "Figure 11: normalized execution time (PMS), lower "
                 "is better; ASD+AdaptiveScheduling = 1.0\n\n";
    table.print(std::cout);
    std::cout << "\npaper: fixed policies 1.023-1.036x; next-line "
                 "~1.084x; P5-style worse than next-line\n";
    return 0;
}
