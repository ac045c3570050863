/**
 * @file
 * Extension comparison: ASD against a Global History Buffer (G/AC)
 * prefetcher and the next-line baseline, all resident in the memory
 * controller (MS configuration). The paper argues ASD buys most of
 * the benefit of large correlation tables at a tiny fraction of the
 * storage; this bench puts a real GHB next to it, including the
 * storage bill.
 */

#include <iostream>

#include "common/table.hpp"
#include "core/hw_cost.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main()
{
    using namespace asd;

    Table table({"benchmark", "ASD", "GHB", "nextline"});
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    std::vector<double> sums(3, 0.0);
    for (const Benchmark &bench : benches) {
        RunOptions options;
        options.mode = PrefetchMode::NP;
        const RunMetrics np = runBenchmark(bench, options);

        std::vector<double> gains;
        for (const McPrefetcherKind kind :
             {McPrefetcherKind::Asd, McPrefetcherKind::Ghb,
              McPrefetcherKind::NextLine}) {
            RunOptions ms;
            ms.mode = PrefetchMode::MS;
            ms.mc_prefetcher = kind;
            const RunMetrics m = runBenchmark(bench, ms);
            gains.push_back(perfGainPct(np.cycles, m.cycles));
        }
        table.addRow({bench.name, Table::num(gains[0]),
                      Table::num(gains[1]), Table::num(gains[2])});
        for (std::size_t i = 0; i < 3; ++i)
            sums[i] += gains[i];
    }
    std::vector<std::string> avg = {"Average"};
    for (const double sum : sums)
        avg.push_back(
            Table::num(sum / static_cast<double>(benches.size())));
    table.addRow(avg);

    std::cout << "Memory-side prefetcher comparison (MS gain over "
                 "NP, percent)\n\n";
    table.print(std::cout);

    // Storage comparison: ASD control state vs the GHB tables.
    const HwCost asd_cost = computeHwCost(AsdConfig{});
    const GhbConfig ghb;
    const std::uint64_t ghb_bits =
        static_cast<std::uint64_t>(ghb.ghb_entries) * (41 + 8 + 1) +
        static_cast<std::uint64_t>(ghb.index_entries) * (41 + 8);
    std::cout << "\ncontrol-state storage: ASD "
              << asd_cost.perThreadBits() + asd_cost.lpq_bits
              << " bits vs GHB " << ghb_bits << " bits ("
              << Table::num(static_cast<double>(ghb_bits) /
                                static_cast<double>(
                                    asd_cost.perThreadBits() +
                                    asd_cost.lpq_bits),
                            1)
              << "x)\n";
    std::cout << "paper context: ASD's advantage is comparable "
                 "benefit at far smaller tables (section 2)\n";
    return 0;
}
