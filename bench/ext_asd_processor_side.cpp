/**
 * @file
 * Extension experiment: the paper's section 6 future work — "applying
 * Adaptive Stream Detection to processor-side prefetching". Compares
 * four machines over the detailed-study benchmarks:
 *
 *   P5-PS        : Power5 sequential PS prefetcher, no memory side
 *   ASD-PS       : ASD on the processor side, no memory side
 *   P5-PS + MS   : the paper's PMS
 *   ASD-PS + MS  : ASD on both sides
 *
 * All numbers are gains over NP (percent).
 */

#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main()
{
    using namespace asd;

    Table table({"benchmark", "P5_PS", "ASD_PS", "P5_PS+MS",
                 "ASD_PS+MS"});
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    std::vector<double> sums(4, 0.0);
    for (const Benchmark &bench : benches) {
        RunOptions options;
        options.mode = PrefetchMode::NP;
        const RunMetrics np = runBenchmark(bench, options);

        std::vector<double> gains;
        for (const PrefetchMode mode :
             {PrefetchMode::PS, PrefetchMode::PMS}) {
            for (const PsKind kind : {PsKind::Power5, PsKind::Asd}) {
                RunOptions variant;
                variant.mode = mode;
                variant.ps_kind = kind;
                const RunMetrics m = runBenchmark(bench, variant);
                gains.push_back(perfGainPct(np.cycles, m.cycles));
            }
        }
        // gains order: PS/P5, PS/ASD, PMS/P5, PMS/ASD
        table.addRow({bench.name, Table::num(gains[0]),
                      Table::num(gains[1]), Table::num(gains[2]),
                      Table::num(gains[3])});
        for (std::size_t i = 0; i < 4; ++i)
            sums[i] += gains[i];
    }
    std::vector<std::string> avg = {"Average"};
    for (const double sum : sums)
        avg.push_back(
            Table::num(sum / static_cast<double>(benches.size())));
    table.addRow(avg);

    std::cout << "Section 6 future work: ASD as a processor-side "
                 "prefetcher (gain over NP, percent)\n\n";
    table.print(std::cout);
    std::cout << "\npaper: proposed but not evaluated; ASD-PS "
                 "should avoid the sequential prefetcher's overshoot "
                 "on short streams\n";
    return 0;
}
