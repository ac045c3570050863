/**
 * @file
 * Quickstart: simulate one benchmark in the four configurations the
 * paper compares (NP, PS, MS, PMS) and print execution time, speedup,
 * and DRAM power/energy.
 *
 * Usage: quickstart [benchmark-name]   (default: GemsFDTD)
 */

#include <iostream>
#include <string>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const asd::Benchmark &bench = asd::findBenchmark(name);

    std::cout << "Adaptive Stream Detection quickstart: " << name
              << "\n\n";

    asd::RunOptions options;
    options.mode = asd::PrefetchMode::NP;
    const asd::RunMetrics np = asd::runBenchmark(bench, options);

    asd::Table table({"config", "cycles", "speedup_vs_NP", "DRAM_W",
                      "DRAM_mJ", "coverage%", "useful%"});
    auto row = [&](const char *label, const asd::RunMetrics &m) {
        table.addRow({label, std::to_string(m.cycles),
                      asd::Table::num(asd::perfGainPct(np.cycles,
                                                       m.cycles)),
                      asd::Table::num(m.dram_watts, 2),
                      asd::Table::num(m.dram_energy_mj, 2),
                      asd::Table::num(m.coverage_pct),
                      asd::Table::num(m.useful_prefetch_pct)});
    };
    row("NP", np);
    options.mode = asd::PrefetchMode::PS;
    row("PS", asd::runBenchmark(bench, options));
    options.mode = asd::PrefetchMode::MS;
    row("MS", asd::runBenchmark(bench, options));
    options.mode = asd::PrefetchMode::PMS;
    row("PMS", asd::runBenchmark(bench, options));

    table.print(std::cout);
    std::cout << "\nPMS = processor-side + ASD memory-side "
                 "prefetching (paper's best configuration).\n";
    return 0;
}
