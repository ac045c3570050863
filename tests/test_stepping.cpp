/**
 * @file
 * Stepping oracle. While a bare loop hook is installed the System
 * ticks every cycle in which the memory controller is busy; without
 * one it skips to the next MC, CPU or prefetcher event and adds the
 * skipped ticks' counters in closed form. Across the mode matrix
 * (NP, PS, every memory-side contender, PMS; plain, random VM
 * placement, OS + tenants; with and without warm-up; sampled
 * schedulers and fixed LPQ policies; an SMT pair) both ways must give
 * the same statistics, the same metrics JSON, and the same snapshot
 * bytes at a cycle inside a busy-controller window.
 *
 * Tuned runs install a hook that states when it is next due, so they
 * keep the busy skip. For every mode the tuner accepts, the tuner's
 * hook is compared with the same hook re-installed bare, which ticks
 * every busy cycle: statistics, metrics JSON, snapshot bytes and the
 * decision log must match.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/run_options_schema.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"
#include "workloads/profiles.hpp"

namespace asd
{
namespace
{

constexpr std::uint64_t kAccesses = 6000;

struct Cell
{
    std::string name;
    std::string bench;
    RunOptions options;
    bool smt = false;
};

/** A System with the traces it replays. */
struct Machine
{
    Machine(const Cell &cell, bool hooked)
    {
        const Benchmark &bench = findBenchmark(cell.bench);
        SyntheticConfig trace = bench.trace;
        trace.total_accesses = kAccesses;
        traces.push_back(makeTraceSource(cell.options, trace));
        if (cell.smt) {
            trace.seed = trace.seed * 7919 + 17;
            traces.push_back(
                std::make_unique<SyntheticTraceGenerator>(trace));
        }
        std::vector<TraceSource *> ptrs;
        for (const auto &source : traces)
            ptrs.push_back(source.get());
        system = std::make_unique<System>(
            makeSystemConfig(cell.options), ptrs);
        if (hooked)
            system->setLoopHook([](Cycle) {});
    }

    std::vector<std::uint8_t>
    snapshot() const
    {
        SnapshotWriter writer;
        system->saveSnapshot(writer);
        return writer.finish(0);
    }

    std::vector<std::unique_ptr<TraceSource>> traces;
    std::unique_ptr<System> system;
};

std::vector<Cell>
cells()
{
    const std::array<const char *, 4> benches = {"bwaves", "tpcc",
                                                 "GemsFDTD", "mg"};
    const std::array<SchedulerKind, 4> schedulers = {
        SchedulerKind::Ahb, SchedulerKind::Memoryless,
        SchedulerKind::FrFcfs, SchedulerKind::InOrder};
    std::vector<std::pair<PrefetchMode, McPrefetcherKind>> modes = {
        {PrefetchMode::NP, McPrefetcherKind::Asd},
        {PrefetchMode::PS, McPrefetcherKind::Asd},
        {PrefetchMode::PMS, McPrefetcherKind::Asd}};
    for (const EnumName<McPrefetcherKind> &kind :
         enumNames(McPrefetcherKind{}))
        modes.emplace_back(PrefetchMode::MS, kind.value);

    std::vector<Cell> out;
    for (const auto &[mode, kind] : modes) {
        for (const std::string translation : {"plain", "vm", "os"}) {
            for (const Cycle warmup : {Cycle{0}, Cycle{20000}}) {
                const std::size_t index = out.size();
                Cell cell;
                RunOptions &o = cell.options;
                o.mode = mode;
                o.mc_prefetcher = kind;
                o.warmup_cycles = warmup;
                o.scheduler = schedulers[index % schedulers.size()];
                // 0 keeps Adaptive Scheduling; 1-5 pin a policy.
                if (const int policy = static_cast<int>(index % 6))
                    o.fixed_policy = policy;
                if (translation == "vm") {
                    o.vm.enabled = true;
                    o.vm.policy = FrameAllocPolicy::RandomShuffle;
                } else if (translation == "os") {
                    o.os.enabled = true;
                    o.tenants.enabled = true;
                    o.tenants.slots = 4;
                }
                cell.bench = benches[index % benches.size()];
                cell.name =
                    toString(mode) +
                    (mode == PrefetchMode::MS ? "_" + toString(kind)
                                              : "") +
                    "_" + translation + "_w" + std::to_string(warmup) +
                    "_" + toString(o.scheduler) + "_p" +
                    std::to_string(o.fixed_policy.value_or(0)) + "_" +
                    cell.bench;
                out.push_back(cell);
            }
        }
    }
    Cell smt;
    smt.name = "SMT_PMS_bwaves";
    smt.bench = "bwaves";
    smt.smt = true;
    out.push_back(smt);
    return out;
}

/** gtest prints a failing cell by name, not as raw bytes. */
void
PrintTo(const Cell &cell, std::ostream *out)
{
    *out << cell.name;
}

class SteppingOracle : public testing::TestWithParam<Cell>
{};

TEST_P(SteppingOracle, SkippingMatchesPerCycleStepping)
{
    const Cell &cell = GetParam();

    Machine reference(cell, true);
    reference.system->runUntil(kNoCycle);
    const Cycle cycles = reference.system->nowCycle();

    // A split cycle past the middle of the run, at which the
    // controller is busy and two or more quiet cycles lie ahead: a
    // skip that ignored the target would overshoot it.
    Machine stepped(cell, true);
    System &probe = *stepped.system;
    probe.runUntil(cycles / 2);
    Cycle split = kNoCycle;
    while (probe.nowCycle() < cycles) {
        const Cycle now = probe.nowCycle();
        if (probe.mc().hasWork() && probe.mc().nextEventIn(now - 1) > 2) {
            split = now + 1;
            break;
        }
        probe.runUntil(now + 1);
    }
    ASSERT_NE(split, kNoCycle) << "no busy-controller window";
    probe.runUntil(split);

    Machine skipping(cell, false);
    skipping.system->runUntil(split);
    EXPECT_EQ(skipping.system->nowCycle(), split);
    EXPECT_TRUE(skipping.snapshot() == stepped.snapshot())
        << "snapshot bytes differ at cycle " << split;

    skipping.system->runUntil(kNoCycle);
    EXPECT_EQ(skipping.system->stats().dump(),
              reference.system->stats().dump());
    EXPECT_EQ(toJson(skipping.system->collectMetrics()),
              toJson(reference.system->collectMetrics()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SteppingOracle, testing::ValuesIn(cells()),
    [](const testing::TestParamInfo<Cell> &param) {
        return param.param.name;
    });

// --- tuned runs -----------------------------------------------------

constexpr std::uint64_t kTunedAccesses = 30000;

/** Every mode the tuner accepts: ASD in MS or PMS, each translation. */
std::vector<Cell>
tunedCells()
{
    std::vector<Cell> out;
    for (const PrefetchMode mode : {PrefetchMode::MS, PrefetchMode::PMS}) {
        for (const std::string translation : {"plain", "vm", "os"}) {
            Cell cell;
            RunOptions &o = cell.options;
            o.mode = mode;
            o.tuner.enabled = true;
            o.tuner.phase_window = 1;
            o.tuner.min_epochs_between = 1;
            o.tuner.shadow_horizon = 20000;
            o.tuner.phase_threshold_milli_pct = 5000;
            if (translation == "vm") {
                o.vm.enabled = true;
                o.vm.policy = FrameAllocPolicy::RandomShuffle;
            } else if (translation == "os") {
                o.os.enabled = true;
                o.tenants.enabled = true;
                o.tenants.slots = 4;
            }
            // With the low threshold, tpcc's phases trigger several
            // decisions within the short trace.
            cell.bench = "tpcc";
            cell.name = "Tuned_" + toString(mode) + "_" + translation;
            out.push_back(cell);
        }
    }
    return out;
}

std::vector<std::uint8_t>
snapshotOf(const BenchmarkRun &run)
{
    SnapshotWriter writer;
    run.saveSnapshot(writer);
    return writer.finish(0);
}

class TunedStepping : public testing::TestWithParam<Cell>
{};

/** Re-install @p run's loop hook bare: every busy cycle ticks. */
void
stepEveryCycle(BenchmarkRun &run)
{
    System &system = run.system();
    system.setLoopHook(system.loopHook());
}

TEST_P(TunedStepping, StatedDueMatchesEveryCycleHook)
{
    const Cell &cell = GetParam();
    const Benchmark &bench = findBenchmark(cell.bench);

    BenchmarkRun reference(bench, cell.options, kTunedAccesses);
    stepEveryCycle(reference);
    const RunResult want = reference.run();
    ASSERT_GE(want.decisions.size(), 2u) << "too few decisions fired";

    // Split just after each decision, with its realization pending,
    // and just after the cycle its realization is due: a skip that
    // passed either would leave a different "tun" section.
    std::vector<Cycle> splits;
    for (const TunerDecision &d : want.decisions) {
        splits.push_back(d.cycle + 1);
        splits.push_back(d.cycle + cell.options.tuner.shadow_horizon + 1);
    }
    std::sort(splits.begin(), splits.end());

    BenchmarkRun stated(bench, cell.options, kTunedAccesses);
    BenchmarkRun stepped(bench, cell.options, kTunedAccesses);
    stepEveryCycle(stepped);
    for (const Cycle split : splits) {
        stepped.runUntil(split);
        if (stepped.system().nowCycle() < split)
            break; // the run ended first
        stated.runUntil(split);
        // An idle skip may pass the target; both runs pass it alike.
        EXPECT_EQ(stated.system().nowCycle(), stepped.system().nowCycle());
        EXPECT_TRUE(snapshotOf(stated) == snapshotOf(stepped))
            << "snapshot bytes differ at cycle " << split;
    }

    const RunResult got = stated.run();
    EXPECT_EQ(stated.system().stats().dump(),
              reference.system().stats().dump());
    EXPECT_EQ(toJson(got.metrics), toJson(want.metrics));
    EXPECT_TRUE(snapshotOf(stated) == snapshotOf(reference));
    EXPECT_EQ(tunerJson(got.decisions), tunerJson(want.decisions));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TunedStepping, testing::ValuesIn(tunedCells()),
    [](const testing::TestParamInfo<Cell> &param) {
        return param.param.name;
    });

} // namespace
} // namespace asd
