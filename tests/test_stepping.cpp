/**
 * @file
 * Stepping oracle. While a loop hook is installed the System ticks
 * every cycle in which the memory controller is busy; without one it
 * skips to the next MC, CPU or prefetcher event and adds the skipped
 * ticks' counters in closed form. Across the mode matrix (NP, PS,
 * every memory-side contender, PMS; plain, random VM placement, OS +
 * tenants; with and without warm-up; sampled schedulers and fixed
 * LPQ policies; an SMT pair) both ways must give the same statistics,
 * the same metrics JSON, and the same snapshot bytes at a cycle
 * inside a busy-controller window.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace asd
