/**
 * @file
 * Extension ablation: the paper describes (section 3.1) but does not
 * evaluate multi-line prefetching via inequality (6), and its math
 * stops prefetching at the Lm-th stream element. This bench measures
 * both options: prefetch degree 1/2/4 and the saturate-long-streams
 * flag, over the detailed-study benchmarks (PMS, cycles normalized
 * to the paper's degree-1 configuration; lower is better).
 */

#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main()
{
    using namespace asd;

    struct Variant
    {
        std::string name;
        std::uint32_t degree;
        bool saturate;
    };
    const std::vector<Variant> variants = {
        {"deg1", 1, false},
        {"deg2", 2, false},
        {"deg4", 4, false},
        {"deg1+sat", 1, true},
        {"deg2+sat", 2, true},
    };

    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    std::vector<std::string> header = {"benchmark"};
    for (const Variant &variant : variants)
        header.push_back(variant.name);
    Table table(header);

    std::vector<double> sums(variants.size(), 0.0);
    for (const Benchmark &bench : benches) {
        RunOptions options;
        options.mode = PrefetchMode::PMS;
        const RunMetrics base = runBenchmark(bench, options);

        std::vector<std::string> cells = {bench.name};
        for (std::size_t i = 0; i < variants.size(); ++i) {
            RunOptions v = options;
            v.max_degree = variants[i].degree;
            v.saturate_long_streams = variants[i].saturate;
            const RunMetrics m =
                (variants[i].degree == 1 && !variants[i].saturate)
                    ? base
                    : runBenchmark(bench, v);
            const double rel = static_cast<double>(m.cycles) /
                               static_cast<double>(base.cycles);
            sums[i] += rel;
            cells.push_back(Table::num(rel, 3));
        }
        table.addRow(cells);
    }
    std::vector<std::string> avg = {"Average"};
    for (const double sum : sums)
        avg.push_back(
            Table::num(sum / static_cast<double>(benches.size()), 3));
    table.addRow(avg);

    std::cout << "Multi-line prefetch / long-stream saturation "
                 "ablation (normalized execution time, PMS; "
                 "1.000 = paper's degree-1 design)\n\n";
    table.print(std::cout);
    std::cout << "\npaper: multi-line prefetching proposed in "
                 "section 3.1 but not evaluated\n";
    return 0;
}
