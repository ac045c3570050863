/**
 * @file
 * Figures 8, 9, 10: DRAM power increase and energy reduction of PMS
 * relative to PS for the SPEC2006fp, NAS and commercial suites.
 * The paper reports average power up 2.7% / 1.6% / 2.8% and energy
 * down 9.8% / 7.9% / 8.2%, with negligible power impact on the four
 * non-memory-intensive SPEC benchmarks.
 */

#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "tuner/run.hpp"

namespace
{

void
runSuite(asd::Suite suite, const std::string &figure,
         const std::string &note)
{
    std::cout << figure << ": DRAM power/energy, PMS vs PS, "
              << asd::suiteName(suite) << "\n\n";
    asd::Table table(
        {"benchmark", "power_increase_pct", "energy_reduction_pct"});
    double sum_power = 0.0;
    double sum_energy = 0.0;
    const auto &benches = asd::suiteBenchmarks(suite);
    for (const asd::Benchmark &bench : benches) {
        asd::RunOptions options;
        options.mode = asd::PrefetchMode::PS;
        const asd::RunMetrics ps = asd::runBenchmark(bench, options);
        options.mode = asd::PrefetchMode::PMS;
        const asd::RunMetrics pms = asd::runBenchmark(bench, options);

        const double power_up =
            (pms.dram_watts / ps.dram_watts - 1.0) * 100.0;
        const double energy_down =
            (1.0 - pms.dram_energy_mj / ps.dram_energy_mj) * 100.0;
        sum_power += power_up;
        sum_energy += energy_down;
        table.addRow({bench.name, asd::Table::num(power_up, 2),
                      asd::Table::num(energy_down, 2)});
    }
    const double n = static_cast<double>(benches.size());
    table.addRow({"Average", asd::Table::num(sum_power / n, 2),
                  asd::Table::num(sum_energy / n, 2)});
    table.print(std::cout);
    std::cout << "\n" << note << "\n\n";
}

} // namespace

int
main()
{
    runSuite(asd::Suite::Spec2006fp, "Figure 8",
             "paper: power +2.7% avg, energy -9.8% avg; negligible "
             "power change for gamess/namd/povray/calculix");
    runSuite(asd::Suite::Nas, "Figure 9",
             "paper: power +1.6% avg, energy -7.9% avg");
    runSuite(asd::Suite::Commercial, "Figure 10",
             "paper: power +2.8% avg, energy -8.2% avg");
    return 0;
}
