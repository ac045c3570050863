/**
 * @file
 * The paper record: every figure, table, ablation and extension of
 * the reproduction from one deduplicated job grid. The paper_record
 * tool (paper_record_main.cpp) writes them all:
 *
 *   paper_record DIR
 *
 * Each figure declares its jobs and a render function from the
 * results to the bytes of one file. The driver merges the jobs of all
 * figures, runs each distinct job once on the sweep runner, then
 * writes DIR/<file> for every figure (the paper's figures as .txt,
 * the VM-sensitivity sweep as .csv, the OS-pressure and tuner
 * experiments as .json). ASD_SWEEP_THREADS sets the worker count and
 * ASD_BENCH_SCALE shrinks every trace.
 *
 * A default-body job (one benchmark under one RunOptions) is shared
 * by every figure that asks for its id. A figure that needs more of
 * such a run than its RunMetrics (a stream-length histogram, DRAM row
 * hits, the tuner's decision log) attaches a reader to it; the job
 * then runs through a BenchmarkRun and hands its machine to every
 * reader, in figure order. A figure that changes the machine itself
 * (SLH history, an oracle tap, a non-default address map or epoch
 * length) or runs SMT pairs gives its jobs a custom body and an id no
 * other figure uses. Readers and custom bodies leave their side
 * output in a slot that the figure's render function reads after the
 * sweep. A render that fails (a trace too short to draw, or a
 * full-scale gate of an extension that does not hold) says why on
 * stderr; the driver writes every file, then exits 1.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "core/asd_prefetcher.hpp"
#include "core/hw_cost.hpp"
#include "core/likelihood_table.hpp"
#include "core/slh_math.hpp"
#include "core/stream_filter.hpp"
#include "prefetch/ghb_prefetcher.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"
#include "tuner/run.hpp"

#include "paper_record.hpp"

namespace asd::record
{

namespace
{

using Body = std::function<RunMetrics(const JobSpec &)>;

RunOptions
withMode(PrefetchMode mode)
{
    RunOptions options;
    options.mode = mode;
    return options;
}

/** Every benchmark under every option set, benchmark-major. */
std::vector<JobSpec>
grid(const std::vector<Benchmark> &benches,
     const std::vector<RunOptions> &options)
{
    std::vector<JobSpec> jobs;
    for (const Benchmark &bench : benches)
        for (const RunOptions &o : options)
            jobs.push_back(makeJob(bench, o));
    return jobs;
}

/** A job with its own body, under an id only its figure uses. */
JobSpec
customJob(std::string id, const Benchmark &bench, Body body,
          const RunOptions &options = {})
{
    JobSpec job;
    job.id = std::move(id);
    job.bench = bench;
    job.options = options;
    job.body = std::move(body);
    return job;
}

/** A trace and the System it feeds, for custom bodies. */
struct Machine
{
    Machine(const SyntheticConfig &trace_config, const SystemConfig &config)
        : trace(trace_config), system(config, {&trace})
    {}

    SyntheticTraceGenerator trace;
    System system;
};

/** @p bench's trace at its scaled default length. */
SyntheticConfig
scaledTrace(const Benchmark &bench)
{
    SyntheticConfig trace = bench.trace;
    trace.total_accesses = scaledAccesses(bench, RunOptions{});
    return trace;
}

/**
 * One row per label, then an "Average" row of each column, summed in
 * row order.
 */
void
addRowsWithAverage(Table &table, const std::vector<std::string> &labels,
                   const std::vector<std::vector<double>> &rows,
                   int precision)
{
    std::vector<double> sums(rows.front().size(), 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> cells = {labels[r]};
        for (std::size_t i = 0; i < rows[r].size(); ++i) {
            sums[i] += rows[r][i];
            cells.push_back(Table::num(rows[r][i], precision));
        }
        table.addRow(cells);
    }
    std::vector<std::string> avg = {"Average"};
    for (const double sum : sums)
        avg.push_back(
            Table::num(sum / static_cast<double>(rows.size()), precision));
    table.addRow(avg);
}

std::vector<std::string>
namesOf(const std::vector<Benchmark> &benches)
{
    std::vector<std::string> names;
    for (const Benchmark &bench : benches)
        names.push_back(bench.name);
    return names;
}

std::vector<std::uint64_t>
combined(const SlhSnapshot &snap)
{
    std::vector<std::uint64_t> lht(snap.positive.size());
    for (std::size_t i = 0; i < lht.size(); ++i)
        lht[i] = snap.positive[i] + snap.negative[i];
    return lht;
}

/** Stream-length histograms, one slot per run, filled by readers. */
using Histograms = std::shared_ptr<std::vector<Histogram>>;

Histograms
histogramSlots(std::size_t runs)
{
    return std::make_shared<std::vector<Histogram>>(runs, Histogram(1));
}

/** A reader that keeps the run's stream-length histogram in @p slot. */
Reader
keepStreamLengths(Histograms out, std::size_t slot)
{
    return [out, slot](const System &system, const RunResult &) {
        (*out)[slot] = system.asd()->streamLengthHist();
    };
}

/** Histogram mean with the saturating 16+ bucket counted as 16. */
double
histMean(const Histogram &hist)
{
    if (hist.total() == 0)
        return 0.0;
    double sum = 0.0;
    for (std::uint64_t len = 1; len <= hist.buckets(); ++len)
        sum += static_cast<double>(len) * static_cast<double>(hist.count(len));
    return sum / static_cast<double>(hist.total());
}

/** Cycles saved against @p baseline, in thousandths of a percent. */
std::int64_t
speedupMilliPct(Cycle baseline, Cycle cycles)
{
    if (baseline == 0)
        return 0;
    return (static_cast<std::int64_t>(baseline) -
            static_cast<std::int64_t>(cycles)) *
           100000 / static_cast<std::int64_t>(baseline);
}

// --- Figs. 2, 3 and 16: inside ASD -----------------------------------

/** The per-epoch SLHs of one GemsFDTD PMS run. */
struct SlhRun
{
    std::vector<SlhSnapshot> history;
    std::size_t lht_entries = 0;
};

/** GemsFDTD in PMS, keeping the first @p epochs epoch SLHs. */
JobSpec
slhJob(const std::string &figure, std::size_t epochs,
       std::shared_ptr<SlhRun> out)
{
    return customJob(
        figure + ".GemsFDTD", findBenchmark("GemsFDTD"),
        [epochs, out](const JobSpec &job) {
            Machine m(scaledTrace(job.bench), makeSystemConfig(job.options));
            m.system.asd()->enableSlhHistory(epochs);
            const RunMetrics metrics = m.system.run();
            out->history = m.system.asd()->slhHistory();
            out->lht_entries = m.system.asd()->config().lht_entries;
            return metrics;
        });
}

Figure
fig02SlhExample()
{
    auto run = std::make_shared<SlhRun>();
    return {"fig02_slh_example.txt", {slhJob("fig02_slh_example", 64, run)},
            [run](const Results &, std::ostream &out) {
                const auto &history = run->history;
                if (history.empty()) {
                    const Failure why =
                        "no complete epoch recorded; trace too short";
                    out << why << "\n";
                    return why;
                }
                // An epoch inside the first generator phase, which
                // encodes the paper's Fig. 2 distribution (phase A
                // covers roughly the first two to three epochs).
                const SlhSnapshot &snap =
                    history[std::min<std::size_t>(1, history.size() - 1)];
                const std::vector<double> bars =
                    readWeightedSlh(combined(snap));

                out << "Figure 2: SLH for epoch " << snap.epoch
                    << " of the GemsFDTD analog (read-weighted %)\n\n";
                Table table({"stream_length", "frequency_pct"});
                for (std::size_t i = 0; i < bars.size(); ++i) {
                    const std::string label =
                        i + 1 == bars.size() ? std::to_string(i + 1) + "+"
                                             : std::to_string(i + 1);
                    table.addRow({label, Table::num(bars[i] * 100.0)});
                }
                table.print(out);
                out << "\npaper epoch: len1 21.8, len2 43.7, len16+ 1.2\n";
                return Failure{};
            }};
}

Figure
fig03SlhPhases()
{
    auto run = std::make_shared<SlhRun>();
    return {
        "fig03_slh_phases.txt", {slhJob("fig03_slh_phases", 256, run)},
        [run](const Results &, std::ostream &out) {
            const auto &history = run->history;
            if (history.size() < 8) {
                const Failure why = "trace too short: only " +
                                    std::to_string(history.size()) +
                                    " epochs";
                out << why << "\n";
                return why;
            }
            std::vector<std::uint64_t> all(run->lht_entries, 0);
            for (const auto &snap : history) {
                const auto lht = combined(snap);
                for (std::size_t i = 0; i < all.size(); ++i)
                    all[i] += lht[i];
            }
            // Two epochs from different generator phases.
            const auto &epoch_a = history[history.size() / 5];
            const auto &epoch_b = history[history.size() / 2];

            out << "Figure 3: SLH variation across epochs, GemsFDTD "
                   "analog (read-weighted %)\n\n";
            Table table({"stream_length", "all_epochs", "epoch_A", "epoch_B"});
            const auto bars_all = readWeightedSlh(all);
            const auto bars_a = readWeightedSlh(combined(epoch_a));
            const auto bars_b = readWeightedSlh(combined(epoch_b));
            for (std::size_t i = 0; i < bars_all.size(); ++i) {
                table.addRow({std::to_string(i + 1),
                              Table::num(bars_all[i] * 100.0),
                              Table::num(bars_a[i] * 100.0),
                              Table::num(bars_b[i] * 100.0)});
            }
            table.print(out);

            // Mean L1 distance between consecutive epoch SLHs puts a
            // number on "vary widely".
            double total_l1 = 0.0;
            std::size_t pairs = 0;
            for (std::size_t e = 1; e < history.size(); ++e) {
                Histogram prev(all.size());
                Histogram curr(all.size());
                const auto lht_prev = combined(history[e - 1]);
                const auto lht_curr = combined(history[e]);
                for (std::size_t i = 0; i + 1 < all.size(); ++i) {
                    prev.add(i + 1, lht_prev[i] - lht_prev[i + 1]);
                    curr.add(i + 1, lht_curr[i] - lht_curr[i + 1]);
                }
                if (prev.total() > 0 && curr.total() > 0) {
                    total_l1 += prev.l1Distance(curr);
                    ++pairs;
                }
            }
            out << "\nepochs recorded: " << history.size()
                << ", mean epoch-to-epoch SLH L1 distance: "
                << Table::num(total_l1 / static_cast<double>(pairs), 3)
                << " (0 = identical, 2 = disjoint)\n";
            out << "paper: epoch SLHs vary widely across phases "
                   "(Fig. 3 shows three very different histograms)\n";
            return Failure{};
        }};
}

/**
 * Interposes on the controller's prefetcher interface: forwards
 * everything to the real ASD prefetcher while feeding the same read
 * stream to an oracle (unbounded, non-expiring) Stream Filter whose
 * per-epoch stream counts give the "actual" SLH.
 */
class SlhAccuracyTap : public MemSidePrefetcher
{
  public:
    explicit SlhAccuracyTap(AsdPrefetcher &inner)
        : inner_(inner),
          oracle_(0, kNoCycle / 2, 0),
          oracle_table_(inner.config().lht_entries)
    {}

    std::vector<LineAddr>
    observeRead(LineAddr line, std::uint32_t thread, Cycle now) override
    {
        oracle_.observe(line, now);
        if (++reads_ >= inner_.config().epoch_reads) {
            reads_ = 0;
            for (const DeadStream &dead : oracle_.flushAll())
                oracle_table_.recordStream(dead.length);
            epochs_.push_back(oracle_table_.counts());
            oracle_table_.clear();
        }
        return inner_.observeRead(line, thread, now);
    }

    void
    observeWrite(LineAddr line, Cycle now) override
    {
        inner_.observeWrite(line, now);
    }

    bool lookupBuffer(LineAddr line) override
    {
        return inner_.lookupBuffer(line);
    }

    bool bufferContains(LineAddr line) const override
    {
        return inner_.bufferContains(line);
    }

    void fillBuffer(LineAddr line, Cycle now) override
    {
        inner_.fillBuffer(line, now);
    }

    int schedulingPolicy() const override
    {
        return inner_.schedulingPolicy();
    }

    void notifyPrefetchConflict(Cycle now) override
    {
        inner_.notifyPrefetchConflict(now);
    }

    void tick(Cycle now) override { inner_.tick(now); }

    Cycle nextTickDue(Cycle now) const override
    {
        return inner_.nextTickDue(now);
    }

    // Record-only interposer; never checkpointed.
    void snapshot(SnapshotIo &) override {}

    const std::vector<std::vector<std::uint64_t>> &
    epochs() const
    {
        return epochs_;
    }

  private:
    AsdPrefetcher &inner_;
    StreamFilter oracle_;
    LikelihoodTable oracle_table_;
    std::uint32_t reads_ = 0;
    std::vector<std::vector<std::uint64_t>> epochs_;
};

Histogram
toHistogram(const std::vector<std::uint64_t> &lht)
{
    Histogram hist(lht.size());
    const auto bars = readWeightedSlh(lht);
    for (std::size_t i = 0; i < bars.size(); ++i)
        hist.add(i + 1, static_cast<std::uint64_t>(bars[i] * 100000.0));
    return hist;
}

Figure
fig16SlhAccuracy()
{
    struct Epochs
    {
        std::vector<SlhSnapshot> approx;
        std::vector<std::vector<std::uint64_t>> actual;
    };
    auto run = std::make_shared<Epochs>();
    JobSpec job = customJob(
        "fig16_slh_accuracy.GemsFDTD", findBenchmark("GemsFDTD"),
        [run](const JobSpec &spec) {
            Machine m(scaledTrace(spec.bench),
                      makeSystemConfig(spec.options));
            m.system.asd()->enableSlhHistory(256);
            SlhAccuracyTap tap(*m.system.asd());
            m.system.mc().attachPrefetcher(&tap);
            const RunMetrics metrics = m.system.run();
            run->approx = m.system.asd()->slhHistory();
            run->actual = tap.epochs();
            return metrics;
        });
    return {
        "fig16_slh_accuracy.txt", {job},
        [run](const Results &, std::ostream &out) {
            const auto &approx_epochs = run->approx;
            const auto &actual_epochs = run->actual;
            const std::size_t epochs =
                std::min(approx_epochs.size(), actual_epochs.size());
            if (epochs < 4) {
                const Failure why =
                    "trace too short (" + std::to_string(epochs) + " epochs)";
                out << why << "\n";
                return why;
            }

            const std::size_t sample = epochs / 4;
            out << "Figure 16: actual vs approximated SLH, epoch "
                << sample << " of the GemsFDTD analog "
                << "(read-weighted %)\n\n";
            Table table({"stream_length", "actual", "approximation"});
            const auto bars_actual = readWeightedSlh(actual_epochs[sample]);
            const auto bars_approx =
                readWeightedSlh(combined(approx_epochs[sample]));
            for (std::size_t i = 0; i < bars_actual.size(); ++i) {
                table.addRow({std::to_string(i + 1),
                              Table::num(bars_actual[i] * 100.0),
                              Table::num(bars_approx[i] * 100.0)});
            }
            table.print(out);

            double total_l1 = 0.0;
            std::size_t measured = 0;
            for (std::size_t e = 0; e < epochs; ++e) {
                const Histogram ha = toHistogram(combined(approx_epochs[e]));
                const Histogram hb = toHistogram(actual_epochs[e]);
                if (ha.total() > 0 && hb.total() > 0) {
                    total_l1 += ha.l1Distance(hb);
                    ++measured;
                }
            }
            out << "\nmean per-epoch L1 distance (0 = identical, "
                   "2 = disjoint): "
                << Table::num(total_l1 / static_cast<double>(measured), 3)
                << " over " << measured << " epochs\n";
            out << "paper: the 8-slot approximation closely matches "
                   "the actual SLH\n";
            return Failure{};
        }};
}

// --- Figs. 5-10, 13: the suites in the paper's configurations --------

/** Figs. 5/6/7: PMS vs NP, MS vs NP and PMS vs PS over a suite. */
Figure
suitePerf(std::string file, Suite suite, std::string figure,
          std::string note)
{
    const std::vector<Benchmark> &benches = suiteBenchmarks(suite);
    const std::vector<RunOptions> modes = {
        withMode(PrefetchMode::NP), withMode(PrefetchMode::PS),
        withMode(PrefetchMode::MS), withMode(PrefetchMode::PMS)};
    return {std::move(file), grid(benches, modes),
            [=](const Results &r, std::ostream &out) {
                out << figure << ": performance improvements for the "
                    << suiteName(suite) << " benchmarks (percent)\n\n";
                std::vector<std::vector<double>> rows;
                for (const Benchmark &bench : benches) {
                    std::vector<Cycle> c; // NP, PS, MS, PMS
                    for (const RunOptions &mode : modes)
                        c.push_back(r(bench, mode).cycles);
                    rows.push_back({perfGainPct(c[0], c[3]),
                                    perfGainPct(c[0], c[2]),
                                    perfGainPct(c[1], c[3])});
                }
                Table table(
                    {"benchmark", "PMS_vs_NP", "MS_vs_NP", "PMS_vs_PS"});
                addRowsWithAverage(table, namesOf(benches), rows, 1);
                table.print(out);
                out << "\n" << note << "\n";
                return Failure{};
            }};
}

/** Figs. 8/9/10: DRAM power up and energy down of PMS against PS. */
Figure
fig08to10PowerEnergy()
{
    struct Panel
    {
        Suite suite;
        const char *figure;
        const char *note;
    };
    const std::vector<Panel> panels = {
        {Suite::Spec2006fp, "Figure 8",
         "paper: power +2.7% avg, energy -9.8% avg; negligible "
         "power change for gamess/namd/povray/calculix"},
        {Suite::Nas, "Figure 9", "paper: power +1.6% avg, energy -7.9% avg"},
        {Suite::Commercial, "Figure 10",
         "paper: power +2.8% avg, energy -8.2% avg"},
    };
    const std::vector<RunOptions> modes = {withMode(PrefetchMode::PS),
                                           withMode(PrefetchMode::PMS)};
    std::vector<JobSpec> jobs;
    for (const Panel &panel : panels)
        for (JobSpec &job : grid(suiteBenchmarks(panel.suite), modes))
            jobs.push_back(std::move(job));
    return {
        "fig08_10_power_energy.txt", std::move(jobs),
        [=](const Results &r, std::ostream &out) {
            for (const Panel &panel : panels) {
                const std::vector<Benchmark> &benches =
                    suiteBenchmarks(panel.suite);
                out << panel.figure << ": DRAM power/energy, PMS vs PS, "
                    << suiteName(panel.suite) << "\n\n";
                std::vector<std::vector<double>> rows;
                for (const Benchmark &bench : benches) {
                    const RunMetrics &ps = r(bench, modes[0]);
                    const RunMetrics &pms = r(bench, modes[1]);
                    rows.push_back(
                        {(pms.dram_watts / ps.dram_watts - 1.0) * 100.0,
                         (1.0 - pms.dram_energy_mj / ps.dram_energy_mj) *
                             100.0});
                }
                Table table({"benchmark", "power_increase_pct",
                             "energy_reduction_pct"});
                addRowsWithAverage(table, namesOf(benches), rows, 2);
                table.print(out);
                out << "\n" << panel.note << "\n\n";
            }
            return Failure{};
        }};
}

Figure
fig13Efficiency()
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const RunOptions pms = withMode(PrefetchMode::PMS);
    return {"fig13_efficiency.txt", grid(benches, {pms}),
            [=](const Results &r, std::ostream &out) {
                Table table({"benchmark", "useful_pct", "coverage_pct",
                             "delayed_regulars_pct"});
                for (const Benchmark &bench : benches) {
                    const RunMetrics &m = r(bench, pms);
                    table.addRow({bench.name,
                                  Table::num(m.useful_prefetch_pct),
                                  Table::num(m.coverage_pct),
                                  Table::num(m.delayed_regular_pct)});
                }
                out << "Figure 13: memory-side prefetch effectiveness "
                       "(PMS)\n\n";
                table.print(out);
                out << "\npaper: useful 82-91%, coverage 19-34%, delayed "
                       "1-3%\n";
                return Failure{};
            }};
}

// --- Figs. 11, 14, 15 and the ablations: PMS variants ----------------

/**
 * The detailed-study benchmarks under each of @p variants, as
 * execution time relative to variant @p base (@p inverse: base over
 * variant, i.e. performance), one row per benchmark plus the average.
 */
Figure
relativeFigure(std::string file, std::vector<RunOptions> variants,
               std::size_t base, bool inverse,
               std::vector<std::string> header, std::string title,
               std::string note)
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    return {std::move(file), grid(benches, variants),
            [=](const Results &r, std::ostream &out) {
                std::vector<std::vector<double>> rows;
                for (const Benchmark &bench : benches) {
                    const auto base_cycles =
                        static_cast<double>(r(bench, variants[base]).cycles);
                    std::vector<double> &row = rows.emplace_back();
                    for (const RunOptions &variant : variants) {
                        const auto cycles =
                            static_cast<double>(r(bench, variant).cycles);
                        row.push_back(inverse ? base_cycles / cycles
                                              : cycles / base_cycles);
                    }
                }
                Table table(header);
                addRowsWithAverage(table, namesOf(benches), rows, 3);
                out << title;
                table.print(out);
                out << note;
                return Failure{};
            }};
}

Figure
fig11Ablation()
{
    const RunOptions pms = withMode(PrefetchMode::PMS);
    std::vector<RunOptions> variants = {pms};
    for (int policy = 1; policy <= 5; ++policy)
        variants.emplace_back(pms).fixed_policy = policy;
    for (const McPrefetcherKind kind :
         {McPrefetcherKind::NextLine, McPrefetcherKind::P5Style})
        variants.emplace_back(pms).mc_prefetcher = kind;
    return relativeFigure(
        "fig11_ablation.txt", variants, 0, false,
        {"benchmark", "ASD+AS", "pol1", "pol2", "pol3", "pol4", "pol5",
         "nextline+AS", "p5style+AS"},
        "Figure 11: normalized execution time (PMS), lower is better; "
        "ASD+AdaptiveScheduling = 1.0\n\n",
        "\npaper: fixed policies 1.023-1.036x; next-line ~1.084x; "
        "P5-style worse than next-line\n");
}

Figure
fig14BufferSize()
{
    std::vector<RunOptions> variants;
    for (const std::uint32_t lines : {8u, 16u, 32u, 1024u})
        variants.emplace_back().buffer_lines = lines; // PMS
    return relativeFigure(
        "fig14_pb_sensitivity.txt", variants, 1, true,
        {"benchmark", "8_blocks", "16_blocks", "32_blocks", "1024_blocks"},
        "Figure 14: PMS sensitivity to Prefetch Buffer size (performance "
        "relative to 16 blocks)\n\n",
        "\npaper: bigger buffers help slightly with diminishing returns "
        "beyond 16 blocks\n");
}

Figure
fig15FilterSize()
{
    std::vector<RunOptions> variants;
    for (const std::uint32_t slots : {4u, 8u, 16u, 64u})
        variants.emplace_back().filter_slots = slots; // PMS
    return relativeFigure(
        "fig15_sf_sensitivity.txt", variants, 1, true,
        {"benchmark", "4_entry", "8_entry", "16_entry", "64_entry"},
        "Figure 15: PMS sensitivity to Stream Filter size (performance "
        "relative to 8 entries)\n\n",
        "\npaper: performance improves up to 8 entries, with diminishing "
        "returns beyond\n");
}

Figure
ablationMultiline()
{
    std::vector<RunOptions> variants;
    for (const auto &[degree, saturate] :
         std::vector<std::pair<std::uint32_t, bool>>{
             {1, false}, {2, false}, {4, false}, {1, true}, {2, true}}) {
        RunOptions &v = variants.emplace_back(); // PMS
        v.max_degree = degree;
        v.saturate_long_streams = saturate;
    }
    return relativeFigure(
        "ablation_multiline.txt", variants, 0, false,
        {"benchmark", "deg1", "deg2", "deg4", "deg1+sat", "deg2+sat"},
        "Multi-line prefetch / long-stream saturation ablation "
        "(normalized execution time, PMS; 1.000 = paper's degree-1 "
        "design)\n\n",
        "\npaper: multi-line prefetching proposed in section 3.1 but not "
        "evaluated\n");
}

/** The detailed-study benchmarks' gain over NP under @p variants. */
Figure
gainOverNpFigure(std::string file, std::vector<RunOptions> variants,
                 std::vector<std::string> header, std::string title,
                 std::string note)
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const RunOptions np = withMode(PrefetchMode::NP);
    std::vector<RunOptions> options = variants;
    options.insert(options.begin(), np);
    return {std::move(file), grid(benches, options),
            [=](const Results &r, std::ostream &out) {
                std::vector<std::vector<double>> rows;
                for (const Benchmark &bench : benches) {
                    const Cycle base = r(bench, np).cycles;
                    std::vector<double> &row = rows.emplace_back();
                    for (const RunOptions &variant : variants)
                        row.push_back(
                            perfGainPct(base, r(bench, variant).cycles));
                }
                Table table(header);
                addRowsWithAverage(table, namesOf(benches), rows, 1);
                out << title;
                table.print(out);
                out << note;
                return Failure{};
            }};
}

/** Section 6 future work: ASD as a processor-side prefetcher. */
Figure
extAsdProcessorSide()
{
    std::vector<RunOptions> variants;
    for (const PrefetchMode mode : {PrefetchMode::PS, PrefetchMode::PMS})
        for (const PsKind kind : {PsKind::Power5, PsKind::Asd})
            variants.emplace_back(withMode(mode)).ps_kind = kind;
    return gainOverNpFigure(
        "ext_asd_processor_side.txt", variants,
        {"benchmark", "P5_PS", "ASD_PS", "P5_PS+MS", "ASD_PS+MS"},
        "Section 6 future work: ASD as a processor-side prefetcher (gain "
        "over NP, percent)\n\n",
        "\npaper: proposed but not evaluated; ASD-PS should avoid the "
        "sequential prefetcher's overshoot on short streams\n");
}

/** ASD against a GHB (G/AC) and next-line in the controller. */
Figure
extGhbComparison()
{
    std::vector<RunOptions> variants;
    for (const McPrefetcherKind kind :
         {McPrefetcherKind::Asd, McPrefetcherKind::Ghb,
          McPrefetcherKind::NextLine})
        variants.emplace_back(withMode(PrefetchMode::MS)).mc_prefetcher = kind;
    // Storage comparison: ASD control state vs the GHB tables.
    const HwCost asd_cost = computeHwCost(AsdConfig{});
    const GhbConfig ghb;
    const std::uint64_t ghb_bits =
        static_cast<std::uint64_t>(ghb.ghb_entries) * (41 + 8 + 1) +
        static_cast<std::uint64_t>(ghb.index_entries) * (41 + 8);
    const std::uint64_t asd_bits =
        asd_cost.perThreadBits() + asd_cost.lpq_bits;
    std::ostringstream note;
    note << "\ncontrol-state storage: ASD " << asd_bits << " bits vs GHB "
         << ghb_bits << " bits ("
         << Table::num(static_cast<double>(ghb_bits) /
                           static_cast<double>(asd_bits),
                       1)
         << "x)\n"
         << "paper context: ASD's advantage is comparable benefit at far "
            "smaller tables (section 2)\n";
    return gainOverNpFigure(
        "ext_ghb_comparison.txt", variants,
        {"benchmark", "ASD", "GHB", "nextline"},
        "Memory-side prefetcher comparison (MS gain over NP, percent)\n\n",
        note.str());
}

/** Section 5.3: the prefetcher's gain under each MC scheduler. */
Figure
schedInteraction()
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const std::vector<std::pair<SchedulerKind, std::string>> scheds = {
        {SchedulerKind::Ahb, "AHB"},
        {SchedulerKind::FrFcfs, "FR-FCFS"},
        {SchedulerKind::Memoryless, "memoryless"},
        {SchedulerKind::InOrder, "in-order"},
    };
    const auto under = [](SchedulerKind kind, PrefetchMode mode) {
        RunOptions options = withMode(mode);
        options.scheduler = kind;
        return options;
    };
    std::vector<RunOptions> options;
    for (const auto &[kind, name] : scheds)
        for (const PrefetchMode mode : {PrefetchMode::PS, PrefetchMode::PMS})
            options.push_back(under(kind, mode));
    return {
        "sched_interaction.txt", grid(benches, options),
        [=](const Results &r, std::ostream &out) {
            Table table({"scheduler", "avg_PMS_vs_PS_gain_pct"});
            std::vector<double> gains;
            for (const auto &[kind, name] : scheds) {
                double sum = 0.0;
                for (const Benchmark &bench : benches)
                    sum += perfGainPct(
                        r(bench, under(kind, PrefetchMode::PS)).cycles,
                        r(bench, under(kind, PrefetchMode::PMS)).cycles);
                const double avg = sum / static_cast<double>(benches.size());
                gains.push_back(avg);
                table.addRow({name, Table::num(avg, 2)});
            }
            out << "Section 5.3: prefetcher gain under different memory "
                   "schedulers (avg over the 8 detailed-study "
                   "benchmarks)\n\n";
            table.print(out);
            out << "\ngain reduction vs AHB: FR-FCFS "
                << Table::num(gains[0] - gains[1], 2) << ", memoryless "
                << Table::num(gains[0] - gains[2], 2) << ", in-order "
                << Table::num(gains[0] - gains[3], 2) << " points\n";
            out << "paper: gain reduced ~1% with memoryless and ~5% with "
                   "in-order scheduling\n";
            return Failure{};
        }};
}

// --- Fig. 12 and the machine ablations: readers and custom bodies ----

/** Fig. 12: lengths 1-5 of the streams the Stream Filter saw. */
Figure
fig12StreamLengths()
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const Histograms hists = histogramSlots(benches.size());
    Figure figure{
        "fig12_stream_lengths.txt", {},
        [=](const Results &, std::ostream &out) {
            Table table({"benchmark", "len1", "len2", "len3", "len4", "len5",
                         "len1_5_total", "len2_5_total"});
            for (std::size_t b = 0; b < benches.size(); ++b) {
                const Histogram &hist = (*hists)[b];
                std::vector<std::string> cells = {benches[b].name};
                double total_1_5 = 0.0;
                for (std::uint64_t len = 1; len <= 5; ++len) {
                    const double pct = hist.fraction(len) * 100.0;
                    total_1_5 += pct;
                    cells.push_back(Table::num(pct));
                }
                cells.push_back(Table::num(total_1_5));
                cells.push_back(
                    Table::num(total_1_5 - hist.fraction(1) * 100.0));
                table.addRow(cells);
            }
            out << "Figure 12: stream length distribution (percent of "
                   "all streams seen by the Stream Filter)\n\n";
            table.print(out);
            out << "\npaper: lengths 1-5 are 78-96% of streams; "
                   "lengths 2-5 are 37/49/40/62% for "
                   "tpcc/trade2/sap/notesbench\n";
            return Failure{};
        }};
    for (std::size_t b = 0; b < benches.size(); ++b)
        figure.read(makeJob(benches[b], withMode(PrefetchMode::PMS)),
                    keepStreamLengths(hists, b));
    return figure;
}

/** DRAM address mapping: PMS gain over NP and PMS row-hit rate. */
Figure
ablationAddrmap()
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const std::vector<std::pair<AddrMap, std::string>> maps = {
        {AddrMap::PageInterleaved, "page"},
        {AddrMap::LineInterleaved, "line"},
        {AddrMap::XorPage, "xor-page"},
    };
    const auto idOf = [maps](const Benchmark &bench, std::size_t i,
                             PrefetchMode mode) {
        // The default machine: figs. 5-7 run it too.
        if (maps[i].first == DramConfig{}.addr_map)
            return makeJobId(bench, withMode(mode));
        return "ablation_addrmap." + bench.name + "." + maps[i].second +
               "." + toString(mode);
    };
    // Per benchmark x map: the PMS run's row-hit percentage.
    auto row_hit_pct = std::make_shared<std::vector<double>>(
        benches.size() * maps.size(), 0.0);
    const auto keepRowHits = [row_hit_pct](std::size_t slot,
                                           const System &system) {
        const auto hits = system.dram().rowHits();
        const auto misses = system.dram().rowMisses();
        if (hits + misses > 0)
            (*row_hit_pct)[slot] = 100.0 * static_cast<double>(hits) /
                                   static_cast<double>(hits + misses);
    };
    Figure figure{
        "ablation_addrmap.txt", {},
        [=](const Results &r, std::ostream &out) {
            Table table({"benchmark", "map", "PMS_vs_NP", "row_hit_pct"});
            for (std::size_t b = 0; b < benches.size(); ++b) {
                for (std::size_t i = 0; i < maps.size(); ++i) {
                    const Cycle np =
                        r.at(idOf(benches[b], i, PrefetchMode::NP)).cycles;
                    const Cycle pms =
                        r.at(idOf(benches[b], i, PrefetchMode::PMS)).cycles;
                    table.addRow(
                        {benches[b].name, maps[i].second,
                         Table::num(perfGainPct(np, pms)),
                         Table::num((*row_hit_pct)[b * maps.size() + i])});
                }
            }
            out << "DRAM address-mapping ablation (PMS gain over NP "
                   "under each mapping)\n\n";
            table.print(out);
            out << "\nopen-page mappings keep stream row hits; line "
                   "interleaving trades them for bank parallelism\n";
            return Failure{};
        }};
    for (std::size_t b = 0; b < benches.size(); ++b) {
        for (std::size_t i = 0; i < maps.size(); ++i) {
            const AddrMap map = maps[i].first;
            const std::size_t slot = b * maps.size() + i;
            for (const PrefetchMode mode :
                 {PrefetchMode::NP, PrefetchMode::PMS}) {
                if (map != DramConfig{}.addr_map) {
                    figure.jobs.push_back(customJob(
                        idOf(benches[b], i, mode), benches[b],
                        [map, slot, keepRowHits](const JobSpec &job) {
                            SystemConfig config =
                                makeSystemConfig(job.options);
                            config.dram.addr_map = map;
                            Machine m(scaledTrace(job.bench), config);
                            const RunMetrics metrics = m.system.run();
                            if (job.options.mode == PrefetchMode::PMS)
                                keepRowHits(slot, m.system);
                            return metrics;
                        },
                        withMode(mode)));
                } else if (mode == PrefetchMode::PMS) {
                    figure.read(makeJob(benches[b], withMode(mode)),
                                [slot, keepRowHits](const System &system,
                                                    const RunResult &) {
                                    keepRowHits(slot, system);
                                });
                } else {
                    figure.jobs.push_back(makeJob(benches[b], withMode(mode)));
                }
            }
        }
    }
    return figure;
}

/** PMS performance across epoch lengths, against the paper's 2000. */
Figure
extEpochSensitivity()
{
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    const std::vector<std::uint32_t> epochs = {500,  1000, 2000,
                                               4000, 8000, 16000};
    const auto idOf = [](const Benchmark &bench, std::uint32_t epoch) {
        // The default machine: figs. 5-7 run it too.
        if (epoch == AsdConfig{}.epoch_reads)
            return makeJobId(bench, RunOptions{});
        return "ext_epoch_sensitivity." + bench.name + ".e" +
               std::to_string(epoch);
    };
    std::vector<JobSpec> jobs;
    for (const Benchmark &bench : benches) {
        for (const std::uint32_t epoch : epochs) {
            if (epoch == AsdConfig{}.epoch_reads) {
                jobs.push_back(makeJob(bench, RunOptions{}));
                continue;
            }
            jobs.push_back(customJob(
                idOf(bench, epoch), bench, [epoch](const JobSpec &job) {
                    SystemConfig config = makeSystemConfig(job.options);
                    config.asd.epoch_reads = epoch;
                    Machine m(scaledTrace(job.bench), config);
                    return m.system.run();
                }));
        }
    }
    std::vector<std::string> header = {"benchmark"};
    for (const std::uint32_t epoch : epochs)
        header.push_back(std::to_string(epoch));
    return {"ext_epoch_sensitivity.txt", std::move(jobs),
            [=](const Results &r, std::ostream &out) {
                std::vector<std::vector<double>> rows;
                for (const Benchmark &bench : benches) {
                    const auto cycles = [&](std::uint32_t epoch) {
                        return static_cast<double>(
                            r.at(idOf(bench, epoch)).cycles);
                    };
                    std::vector<double> &row = rows.emplace_back();
                    for (const std::uint32_t epoch : epochs)
                        row.push_back(cycles(2000) / cycles(epoch));
                }
                Table table(header);
                addRowsWithAverage(table, namesOf(benches), rows, 3);
                out << "Epoch-length sensitivity (PMS performance relative "
                       "to the paper's 2000-read epoch; higher is "
                       "better)\n\n";
                table.print(out);
                out << "\npaper: epoch fixed at 2000 reads, no sensitivity "
                       "study\n";
                return Failure{};
            }};
}

/** A streaming workload whose streams walk with strides 1..4. */
Benchmark
stridedWorkload(double unit_share)
{
    SyntheticConfig config;
    config.seed = 4242;
    config.total_accesses = 300000;
    config.working_set_bytes = 512ULL << 20;
    config.mean_gap = 6.0;
    config.mean_touches_per_line = 10.0;
    config.write_frac = 0.2;
    config.reuse_frac = 0.2;
    config.dependent_frac = 0.12;
    config.negative_dir_frac = 0.05;
    config.concurrent_streams = 6;
    config.phases = {PhaseProfile{
        {0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0, 0.9, 0.6, 0.4}, 0}};
    const double rest = (1.0 - unit_share) / 3.0;
    config.stride_weights = {unit_share, rest, rest, rest};
    return {"strided_u" + Table::num(unit_share * 100.0, 0), config};
}

/** MS gain over NP of ASD, the stride unit and next-line. */
Figure
extStrideWorkloads()
{
    const std::vector<double> shares = {1.0, 0.75, 0.5, 0.25, 0.0};
    std::vector<RunOptions> options = {withMode(PrefetchMode::NP)};
    for (const McPrefetcherKind kind :
         {McPrefetcherKind::Asd, McPrefetcherKind::Stride,
          McPrefetcherKind::NextLine})
        options.emplace_back(withMode(PrefetchMode::MS)).mc_prefetcher = kind;
    const auto idOf = [](const Benchmark &bench, const RunOptions &o) {
        return "ext_stride_workloads." + bench.name + "." +
               toString(o.mode) + "." + toString(o.mc_prefetcher);
    };
    std::vector<JobSpec> jobs;
    for (const double share : shares) {
        const Benchmark bench = stridedWorkload(share);
        for (const RunOptions &o : options) {
            jobs.push_back(customJob(
                idOf(bench, o), bench,
                [](const JobSpec &job) {
                    // Scaled without the figure traces' 1000-access floor.
                    SyntheticConfig trace = job.bench.trace;
                    trace.total_accesses = static_cast<std::uint64_t>(
                        static_cast<double>(trace.total_accesses) *
                        benchScale());
                    Machine m(trace, makeSystemConfig(job.options));
                    return m.system.run();
                },
                o));
        }
    }
    return {"ext_stride_workloads.txt", std::move(jobs),
            [=](const Results &r, std::ostream &out) {
                Table table(
                    {"unit_stride_share", "ASD", "stride_pf", "nextline"});
                for (const double share : shares) {
                    const Benchmark bench = stridedWorkload(share);
                    const Cycle np = r.at(idOf(bench, options[0])).cycles;
                    std::vector<std::string> cells = {Table::num(share, 2)};
                    for (std::size_t i = 1; i < options.size(); ++i)
                        cells.push_back(Table::num(perfGainPct(
                            np, r.at(idOf(bench, options[i])).cycles)));
                    table.addRow(cells);
                }
                out << "Non-unit-stride workloads: MS gain over NP (percent) "
                       "as the unit-stride share falls\n\n";
                table.print(out);
                out << "\nASD follows only unit-stride streams (paper "
                       "section 1); the Baer-Chen-style stride unit keeps "
                       "covering strided walks\n";
                return Failure{};
            }};
}

/** Section 5.2: each benchmark paired with itself on one SMT core. */
Figure
smtPerf()
{
    const std::vector<Suite> suites = {Suite::Spec2006fp, Suite::Nas,
                                       Suite::Commercial};
    const std::vector<PrefetchMode> modes = {
        PrefetchMode::NP, PrefetchMode::PS, PrefetchMode::PMS};
    const auto idOf = [](const Benchmark &bench, PrefetchMode mode) {
        return "smt_perf." + bench.name + "." + toString(mode);
    };
    std::vector<JobSpec> jobs;
    for (const Suite suite : suites)
        for (const Benchmark &bench : suiteBenchmarks(suite))
            for (const PrefetchMode mode : modes)
                jobs.push_back(customJob(
                    idOf(bench, mode), bench,
                    [](const JobSpec &job) {
                        return runSmtPair(job.bench, job.bench, job.options);
                    },
                    withMode(mode)));
    return {"smt_perf.txt", std::move(jobs),
            [=](const Results &r, std::ostream &out) {
                out << "Section 5.2: SMT performance results\n\n";
                for (const Suite suite : suites) {
                    const std::vector<Benchmark> &benches =
                        suiteBenchmarks(suite);
                    std::vector<std::string> labels;
                    std::vector<std::vector<double>> rows;
                    for (const Benchmark &bench : benches) {
                        const Cycle np = r.at(idOf(bench, modes[0])).cycles;
                        const Cycle ps = r.at(idOf(bench, modes[1])).cycles;
                        const Cycle pms = r.at(idOf(bench, modes[2])).cycles;
                        labels.push_back(bench.name + "x2");
                        rows.push_back(
                            {perfGainPct(np, pms), perfGainPct(ps, pms)});
                    }
                    Table table({"benchmark_pair", "PMS_vs_NP", "PMS_vs_PS"});
                    addRowsWithAverage(table, labels, rows, 1);
                    out << suiteName(suite) << " (SMT, 2 threads)\n";
                    table.print(out);
                    out << "\n";
                }
                out << "paper: PMS vs NP 28.5/20.4/11.1, PMS vs PS "
                       "10.7/9.2/7.5 (SPEC/NAS/commercial)\n";
                return Failure{};
            }};
}

/** Section 5.1: storage bits of every ASD structure (no simulation). */
Figure
tabHardwareCost()
{
    return {"tab_hardware_cost.txt", {},
            [](const Results &, std::ostream &out) {
                out << "Section 5.1: ASD hardware storage cost\n\n";
                Table table({"threads", "filter_bits/t", "lht_bits/t",
                             "comparators/t", "buffer_bits", "lpq_bits",
                             "total_KiB", "64KB_tables_KiB"});
                for (const std::uint32_t threads : {1u, 2u, 4u}) {
                    AsdConfig config;
                    config.threads = threads;
                    const HwCost cost = computeHwCost(config);
                    table.addRow({std::to_string(threads),
                                  std::to_string(cost.stream_filter_bits),
                                  std::to_string(cost.lht_bits),
                                  std::to_string(cost.comparator_count),
                                  std::to_string(cost.prefetch_buffer_bits),
                                  std::to_string(cost.lpq_bits),
                                  Table::num(cost.totalKiB(), 2),
                                  std::to_string(64 * threads)});
                }
                table.print(out);

                const auto bits =
                    static_cast<double>(computeHwCost(AsdConfig{})
                                            .perThreadBits());
                out << "\nper-thread ASD state: "
                    << Table::num(bits / 8.0 / 1024.0, 3)
                    << " KiB vs 64 KiB for a spatial-locality table ("
                    << Table::num(64.0 * 8.0 * 1024.0 / bits, 0)
                    << "x smaller)\n";
                out << "paper: prefetcher adds ~6.08% to the memory "
                       "controller, 0.098% to total chip area, and ~0.06% "
                       "to chip power; a 4-thread 64KB-table design would "
                       "add ~2.4% to chip power\n";
                return Failure{};
            }};
}

// --- VM, OS pressure and the tuner: extension results ----------------

/** One VM configuration of the VM-sensitivity sweep. */
struct VmPoint
{
    std::string label;
    VmConfig vm;
};

std::vector<VmPoint>
vmPoints()
{
    std::vector<VmPoint> points;
    points.push_back({"off", VmConfig{}});

    VmConfig identity;
    identity.enabled = true;
    identity.policy = FrameAllocPolicy::Identity;
    points.push_back({"identity-4k", identity});

    VmConfig seq = identity;
    seq.policy = FrameAllocPolicy::Sequential;
    points.push_back({"seq-4k", seq});

    VmConfig random4k = identity;
    random4k.policy = FrameAllocPolicy::RandomShuffle;
    points.push_back({"random-4k", random4k});

    VmConfig random64k = random4k;
    random64k.page_bytes = 64 * 1024;
    points.push_back({"random-64k", random64k});

    VmConfig huge = identity;
    huge.policy = FrameAllocPolicy::HugePage;
    points.push_back({"huge-2m", huge});
    return points;
}

/**
 * A deliberately stream-heavy workload: nearly all streams are 12-16
 * lines (1.5-2 KB), long enough that a 4 KB page boundary falls
 * inside a stream about half the time.
 */
Benchmark
longStreamWorkload()
{
    SyntheticConfig config;
    config.seed = 7;
    config.total_accesses = 150000;
    config.working_set_bytes = 512ULL << 20;
    config.mean_gap = 4.0;
    config.write_frac = 0.1;
    config.reuse_frac = 0.05;
    config.concurrent_streams = 4;
    std::vector<double> weights(16, 0.0);
    weights[11] = 0.15;
    weights[13] = 0.25;
    weights[15] = 0.6;
    config.phases = {PhaseProfile{weights, 0}};
    return Benchmark{"longstream", config};
}

/**
 * Fig. 12-style stream lengths against the virtual-memory
 * configuration. ASD observes physical lines in the memory
 * controller, so frame allocation shapes what it can detect: random
 * 4 KB placement breaks long virtual streams at every page boundary,
 * larger pages push the break points out, and 2 MB huge pages restore
 * nearly all of the virtual contiguity. One long-stream workload and
 * two paper benchmarks under PMS, as CSV; VM off is the untranslated
 * machine of figs. 5-7.
 */
Figure
extVmSensitivity()
{
    const std::vector<Benchmark> benches = {
        longStreamWorkload(), findBenchmark("bwaves"), findBenchmark("tpcc")};
    const std::vector<VmPoint> points = vmPoints();
    const auto optionsOf = [](const VmPoint &point) {
        RunOptions options = withMode(PrefetchMode::PMS);
        options.vm = point.vm;
        return options;
    };
    const Histograms hists = histogramSlots(benches.size() * points.size());
    Figure figure{
        "ext_vm_sensitivity.csv", {},
        [=](const Results &r, std::ostream &out) {
            out << "benchmark,vm,policy,page_bytes,mean_len,len1_5_pct,"
                   "len16_pct,tlb_hits,tlb_misses,pages_mapped,cycles\n";
            for (std::size_t b = 0; b < benches.size(); ++b) {
                for (std::size_t p = 0; p < points.size(); ++p) {
                    const VmPoint &point = points[p];
                    const RunMetrics &m = r(benches[b], optionsOf(point));
                    const Histogram &hist = (*hists)[b * points.size() + p];
                    double len1_5 = 0.0;
                    for (std::uint64_t len = 1; len <= 5; ++len)
                        len1_5 += hist.fraction(len) * 100.0;
                    out << benches[b].name << ',' << point.label << ','
                        << toString(point.vm.policy) << ','
                        << point.vm.pageBytes() << ','
                        << Table::num(histMean(hist)) << ','
                        << Table::num(len1_5) << ','
                        << Table::num(hist.fraction(16) * 100.0) << ','
                        << m.tlb_hits << ',' << m.tlb_misses << ','
                        << m.pages_mapped << ',' << m.cycles << "\n";
                }
            }
            return Failure{};
        }};
    for (std::size_t b = 0; b < benches.size(); ++b)
        for (std::size_t p = 0; p < points.size(); ++p)
            figure.read(makeJob(benches[b], optionsOf(points[p])),
                        keepStreamLengths(hists, b * points.size() + p));
    return figure;
}

/** Tuner decision logs, one slot per run, filled by readers. */
using DecisionLogs =
    std::shared_ptr<std::vector<std::vector<TunerDecision>>>;

DecisionLogs
decisionSlots(std::size_t runs)
{
    return std::make_shared<std::vector<std::vector<TunerDecision>>>(runs);
}

/** A reader that keeps the run's tuner decisions in @p slot. */
Reader
keepDecisions(DecisionLogs out, std::size_t slot)
{
    return [out, slot](const System &, const RunResult &result) {
        (*out)[slot] = result.decisions;
    };
}

/**
 * @p options with ASD under the phase-adaptive tuner, searching only
 * the degree axis {1, 2, 4}. The horizon must be long enough for the
 * degree choice to separate the candidates by whole retired accesses:
 * a regime of the phase-churning workloads spans ~1.7M cycles, so
 * 300k cycles samples it cleanly without straddling the next flip.
 */
RunOptions
degreeTuned(RunOptions options)
{
    options.tuner.enabled = true;
    options.tuner.shadow_horizon = 300000;
    options.tuner.phase_threshold_milli_pct = 30000;
    options.tuner.space.degrees = {1, 2, 4};
    options.tuner.space.filter_slots = {8};
    options.tuner.space.buffer_lines = {16};
    options.tuner.space.epoch_reads = {2000};
    options.tuner.space.policies = {0};
    return options;
}

/** ASD in the memory controller only, at prefetch degree @p degree. */
RunOptions
msAsd(std::uint32_t degree = 1)
{
    RunOptions options = withMode(PrefetchMode::MS);
    options.mc_prefetcher = McPrefetcherKind::Asd;
    options.max_degree = degree;
    return options;
}

double
accuracyPct(const RunMetrics &m)
{
    if (m.ms_prefetches_issued == 0)
        return 0.0;
    return 100.0 * static_cast<double>(m.buffer_hits) /
           static_cast<double>(m.ms_prefetches_issued);
}

double
faultsPerKiloAccess(const RunMetrics &m)
{
    if (m.accesses == 0)
        return 0.0;
    return 1000.0 *
           static_cast<double>(m.os_minor_faults + m.os_major_faults) /
           static_cast<double>(m.accesses);
}

/**
 * Stream-heavy workload with phase churn: regimes of 15-16 line
 * streams (deep prefetch pays) alternate with 2-4 line bursts (deep
 * prefetch pollutes), each long enough for the phase detector to see
 * the flip. The 512 MB working set dwarfs every frame pool of the
 * OS-pressure sweep, so page faults land mid-stream, not just at
 * startup.
 */
Benchmark
pressureWorkload()
{
    Benchmark bench;
    bench.name = "os-pressure";
    SyntheticConfig &trace = bench.trace;
    trace.seed = 7;
    trace.total_accesses = 150000;
    trace.working_set_bytes = 512ULL << 20;
    trace.mean_gap = 3.0;
    trace.mean_touches_per_line = 3.0;
    trace.reuse_frac = 0.1;
    trace.write_frac = 0.2;
    trace.dependent_frac = 0.1;
    trace.concurrent_streams = 8;

    std::vector<double> longs(16, 0.0);
    longs[15] = 1.0;
    longs[14] = 0.5;
    std::vector<double> shorts(16, 0.0);
    shorts[1] = 1.0;
    shorts[3] = 0.5;
    trace.phases = {PhaseProfile{longs, 50000}, PhaseProfile{shorts, 50000}};
    return bench;
}

/** One OS-pressure mix. */
struct Mix
{
    std::string label;
    std::optional<std::uint64_t> frames; //!< nullopt = OS model off
    std::uint32_t tenants = 0;           //!< 0 = single tenant
};

/** @p mix's machine with fixed ASD in the memory controller. */
RunOptions
mixOptions(const Mix &mix)
{
    RunOptions options = msAsd();
    if (mix.frames) {
        options.os.enabled = true;
        options.os.frames = *mix.frames;
    }
    if (mix.tenants > 0) {
        options.tenants.enabled = true;
        options.tenants.slots = mix.tenants;
        options.tenants.mean_lifetime = 40000;
    }
    return options;
}

/**
 * ASD under operating-system memory pressure. Demand paging over a
 * finite frame pool with CLOCK reclaim, and churning tenants, both
 * attack what ASD depends on: contiguous physical streams and a
 * stable access mix. Each mix of rising fault pressure and tenant
 * count runs NP, fixed ASD and ASD under the degree tuner, as JSON
 * (schema asd/bench/os/v1). At full scale the run is gated: stream
 * length and coverage must fall from the first mix to the heaviest,
 * and the tuner must recover part of the fixed configuration's loss
 * on at least one pressured mix. Downscaled runs skip the gates: with
 * a handful of epochs neither the fault pressure nor the phase
 * detector has room to act.
 */
Figure
extOsPressure()
{
    const Benchmark bench = pressureWorkload();
    const std::vector<Mix> mixes = {
        {"os-off", std::nullopt, 0}, {"os-16k", 16384, 0},
        {"os-2k", 2048, 0},          {"os-16k-t4", 16384, 4},
        {"os-2k-t4", 2048, 4},       {"os-2k-t8", 2048, 8},
    };
    const auto npOf = [](const Mix &mix) {
        RunOptions options = mixOptions(mix);
        options.mode = PrefetchMode::NP;
        return options;
    };
    const Histograms hists = histogramSlots(mixes.size());
    const DecisionLogs logs = decisionSlots(mixes.size());
    Figure figure{
        "ext_os_pressure.json", {},
        [=](const Results &r, std::ostream &out) {
            const auto fixedOf = [&](std::size_t i) -> const RunMetrics & {
                return r(bench, mixOptions(mixes[i]));
            };
            JsonWriter writer;
            writer.beginObject();
            writer.key("schema").value("asd/bench/os/v1");
            writer.key("bench_scale").value(benchScale());
            writer.key("workload").value(bench.name);
            writer.key("mixes").beginArray();
            // The pressured mix on which the tuner gains most over
            // fixed ASD (the first, on a tie).
            std::optional<std::size_t> best;
            std::int64_t best_margin = 0;
            for (std::size_t i = 0; i < mixes.size(); ++i) {
                const Mix &mix = mixes[i];
                const Cycle np = r(bench, npOf(mix)).cycles;
                const RunMetrics &fixed = fixedOf(i);
                const RunMetrics &tuned =
                    r(bench, degreeTuned(mixOptions(mix)));
                const std::int64_t margin =
                    speedupMilliPct(fixed.cycles, tuned.cycles);
                if (mix.frames && (!best || margin > best_margin)) {
                    best = i;
                    best_margin = margin;
                }
                const auto beginContender = [&](const RunMetrics &m) {
                    writer.beginObject();
                    writer.key("cycles").value(m.cycles);
                    writer.key("speedup_milli_pct")
                        .value(speedupMilliPct(np, m.cycles));
                    writer.key("coverage_pct").value(m.coverage_pct);
                    writer.key("accuracy_pct").value(accuracyPct(m));
                };
                writer.beginObject();
                writer.key("label").value(mix.label);
                if (mix.frames)
                    writer.key("frames").value(*mix.frames);
                writer.key("tenants").value(
                    static_cast<std::uint64_t>(mix.tenants));
                writer.key("np_cycles").value(np);
                writer.key("asd");
                beginContender(fixed);
                writer.key("mean_stream_len").value(histMean((*hists)[i]));
                writer.key("len16_pct")
                    .value((*hists)[i].fraction(16) * 100.0);
                writer.key("faults_per_kacc")
                    .value(faultsPerKiloAccess(fixed));
                writer.key("reclaims").value(fixed.os_reclaims);
                writer.key("shootdowns").value(fixed.os_shootdowns);
                writer.key("os_stall_cycles").value(fixed.os_stall_cycles);
                writer.endObject();
                writer.key("asd_tuner");
                beginContender(tuned);
                std::uint64_t adoptions = 0;
                for (const TunerDecision &d : (*logs)[i])
                    adoptions += d.adopted_change ? 1 : 0;
                writer.key("decisions").value(
                    static_cast<std::uint64_t>((*logs)[i].size()));
                writer.key("adoptions").value(adoptions);
                writer.endObject();
                writer.key("tuner_recovery_milli_pct").value(margin);
                writer.endObject();
            }
            writer.endArray();

            const std::size_t heaviest = mixes.size() - 1;
            const bool streams_degrade =
                histMean((*hists)[heaviest]) < histMean((*hists)[0]);
            const bool coverage_degrades =
                fixedOf(heaviest).coverage_pct < fixedOf(0).coverage_pct;
            const bool recovers = best && best_margin > 0;
            writer.key("headline").beginObject();
            writer.key("streams_degrade_under_pressure")
                .value(streams_degrade);
            writer.key("coverage_degrades_under_pressure")
                .value(coverage_degrades);
            writer.key("tuner_recovers_on")
                .value(recovers ? mixes[*best].label : "");
            writer.key("best_recovery_milli_pct").value(best_margin);
            writer.endObject();
            writer.endObject();
            out << writer.str() << "\n";

            if (benchScale() < 1.0)
                return Failure{};
            if (!streams_degrade || !coverage_degrades)
                return "OS pressure did not degrade ASD stream length or "
                       "coverage (streams " +
                       std::to_string(streams_degrade) + ", coverage " +
                       std::to_string(coverage_degrades) + ")";
            if (!recovers)
                return Failure("tuner recovered nothing on any OS-pressure "
                               "mix");
            return Failure{};
        }};
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        figure.jobs.push_back(makeJob(bench, npOf(mixes[i])));
        figure.read(makeJob(bench, mixOptions(mixes[i])),
                    keepStreamLengths(hists, i));
        figure.read(makeJob(bench, degreeTuned(mixOptions(mixes[i]))),
                    keepDecisions(logs, i));
    }
    return figure;
}

/**
 * Alternating stream-length regimes under tight bandwidth pressure,
 * each spanning several epochs so the phase detector can see the
 * change and an adopted configuration has time to matter. The
 * generator cycles through the phase list for the whole trace.
 *
 * The regimes are chosen so the best prefetch degree flips with the
 * phase (measured on each regime in isolation):
 *  - 16-line streams: degree 4 beats degree 1 by >2 pp of NP cycles
 *    (deep prefetch is pure timeliness).
 *  - 2-line bursts mixed with 4-line streams: the SLH keeps
 *    prefetching on the length-4 evidence, the length-2 majority
 *    wastes it, and every extra degree amplifies the pollution —
 *    degree 1 is the least bad (both lose to NP here).
 * No fixed degree is optimal in both regimes, which is exactly the
 * gap an online reconfiguration controller can close.
 */
Benchmark
churningWorkload()
{
    Benchmark bench;
    bench.name = "phase-churn";
    SyntheticConfig &trace = bench.trace;
    trace.seed = 777;
    trace.total_accesses = 360000;
    trace.working_set_bytes = 512ULL << 20;
    trace.mean_gap = 2.0;
    trace.mean_touches_per_line = 3.0;
    trace.reuse_frac = 0.1;
    trace.write_frac = 0.2;
    trace.dependent_frac = 0.1;
    trace.negative_dir_frac = 0.1;
    trace.concurrent_streams = 8;

    // Long regime: 15-16 line streams.
    std::vector<double> longs(16, 0.0);
    longs[15] = 1.0;
    longs[14] = 0.5;
    // Toxic regime: 2-line bursts with enough 4-line streams that
    // the SLH stays optimistic.
    std::vector<double> shorts(16, 0.0);
    shorts[1] = 1.0;
    shorts[3] = 0.5;

    trace.phases = {PhaseProfile{longs, 60000}, PhaseProfile{shorts, 60000}};
    return bench;
}

/**
 * Online phase-adaptive reconfiguration: every fixed degree of the
 * tuner's own search space runs straight through, and the tuner runs
 * once, re-deciding its configuration at detected phase changes via
 * snapshot-forked shadow simulations; as JSON (schema
 * asd/bench/tuner/v1). Since the fixed grid is the tuner's whole
 * space, any win over the best fixed run comes from phase-switching
 * alone. At full scale the tuner must decide at least once and finish
 * ahead of the best fixed configuration; downscaled runs skip the
 * gates, as the phase detector never has enough evidence to act.
 */
Figure
extTunerAdaptation()
{
    const Benchmark bench = churningWorkload();
    const std::vector<std::uint32_t> degrees = {1, 2, 4};
    const RunOptions np = withMode(PrefetchMode::NP);
    const RunOptions tuned = degreeTuned(msAsd());
    const DecisionLogs log = decisionSlots(1);
    Figure figure{
        "ext_tuner_adaptation.json", {},
        [=](const Results &r, std::ostream &out) {
            const Cycle np_cycles = r(bench, np).cycles;
            const auto cyclesOf = [&](std::uint32_t degree) {
                return r(bench, msAsd(degree)).cycles;
            };
            std::uint32_t best_degree = degrees.front();
            for (const std::uint32_t degree : degrees)
                if (cyclesOf(degree) < cyclesOf(best_degree))
                    best_degree = degree;
            const Cycle best_cycles = cyclesOf(best_degree);
            const Cycle tuner_cycles = r(bench, tuned).cycles;
            const std::vector<TunerDecision> &decisions = log->front();
            std::uint64_t shadow_cycles_total = 0;
            std::uint64_t adoptions = 0;
            for (const TunerDecision &d : decisions) {
                shadow_cycles_total += d.shadow_cycles;
                adoptions += d.adopted_change ? 1 : 0;
            }
            const bool beats_best = tuner_cycles < best_cycles;

            JsonWriter writer;
            writer.beginObject();
            writer.key("schema").value("asd/bench/tuner/v1");
            writer.key("bench_scale").value(benchScale());
            writer.key("workload").value(bench.name);
            writer.key("np_cycles").value(np_cycles);
            const auto writeFixed = [&](std::uint32_t degree) {
                writer.beginObject();
                writer.key("degree").value(static_cast<std::uint64_t>(degree));
                writer.key("cycles").value(cyclesOf(degree));
                writer.key("speedup_milli_pct")
                    .value(speedupMilliPct(np_cycles, cyclesOf(degree)));
                writer.endObject();
            };
            writer.key("fixed").beginArray();
            for (const std::uint32_t degree : degrees)
                writeFixed(degree);
            writer.endArray();
            writer.key("best_fixed");
            writeFixed(best_degree);
            writer.key("tuner").beginObject();
            writer.key("cycles").value(tuner_cycles);
            writer.key("speedup_milli_pct")
                .value(speedupMilliPct(np_cycles, tuner_cycles));
            writer.key("decisions")
                .value(static_cast<std::uint64_t>(decisions.size()));
            writer.key("adoptions").value(adoptions);
            writer.key("shadow_cycles_total").value(shadow_cycles_total);
            writer.key("log").beginArray();
            for (const TunerDecision &d : decisions) {
                writer.beginObject();
                writer.key("cycle").value(d.cycle);
                writer.key("phase").value(d.phase);
                writer.key("adopted_change").value(d.adopted_change);
                writer.key("degree").value(
                    static_cast<std::uint64_t>(d.adopted.max_degree));
                writer.key("epoch_reads").value(
                    static_cast<std::uint64_t>(d.adopted.epoch_reads));
                writer.key("winner_shadow_accesses")
                    .value(d.winner_shadow_accesses);
                writer.key("realized_accesses").value(d.realized_accesses);
                writer.key("realized_valid").value(d.realized_valid);
                writer.endObject();
            }
            writer.endArray();
            writer.endObject();
            writer.key("tuner_beats_best_fixed").value(beats_best);
            writer.key("margin_milli_pct")
                .value(speedupMilliPct(best_cycles, tuner_cycles));
            writer.endObject();
            out << writer.str() << "\n";

            if (benchScale() < 1.0)
                return Failure{};
            if (decisions.empty())
                return Failure("tuner made no decisions on the "
                               "phase-churning workload at full scale");
            if (!beats_best)
                return "tuner did not beat the best fixed configuration "
                       "(tuner " +
                       std::to_string(tuner_cycles) + " vs fixed d" +
                       std::to_string(best_degree) + " " +
                       std::to_string(best_cycles) + ")";
            return Failure{};
        }};
    figure.jobs.push_back(makeJob(bench, np));
    for (const std::uint32_t degree : degrees)
        figure.jobs.push_back(makeJob(bench, msAsd(degree)));
    figure.read(makeJob(bench, tuned), keepDecisions(log, 0));
    return figure;
}

} // namespace

std::vector<Figure>
paperFigures()
{
    return {
        fig02SlhExample(),
        fig03SlhPhases(),
        suitePerf("fig05_spec_perf.txt", Suite::Spec2006fp, "Figure 5",
                  "paper averages: PMS vs NP 32.7, MS vs NP 14.6, "
                  "PMS vs PS 10.2 (range 0-68.6 for PMS vs NP)"),
        suitePerf("fig06_nas_perf.txt", Suite::Nas, "Figure 6",
                  "paper averages: PMS vs NP 24.2, MS vs NP 11.7, "
                  "PMS vs PS 8.1"),
        suitePerf("fig07_commercial_perf.txt", Suite::Commercial, "Figure 7",
                  "paper averages: PMS vs NP 15.1, MS vs NP 9.3, "
                  "PMS vs PS 8.4"),
        fig08to10PowerEnergy(),
        fig11Ablation(),
        fig12StreamLengths(),
        fig13Efficiency(),
        fig14BufferSize(),
        fig15FilterSize(),
        fig16SlhAccuracy(),
        tabHardwareCost(),
        smtPerf(),
        schedInteraction(),
        ablationAddrmap(),
        ablationMultiline(),
        extAsdProcessorSide(),
        extEpochSensitivity(),
        extGhbComparison(),
        extStrideWorkloads(),
        extVmSensitivity(),
        extOsPressure(),
        extTunerAdaptation(),
    };
}

int
writeRecord(const std::vector<Figure> &figures,
            const std::filesystem::path &dir)
{
    std::filesystem::create_directories(dir);

    // One job per distinct id. Only default-body jobs may share an
    // id, and only under the same options; a custom body's id belongs
    // to its figure alone.
    std::vector<JobSpec> jobs;
    std::map<std::string, std::size_t> index_of;
    std::map<std::string, std::vector<Reader>> readers_of;
    std::size_t requested = 0;
    for (const Figure &figure : figures) {
        for (const JobSpec &job : figure.jobs) {
            ++requested;
            const auto [it, added] = index_of.emplace(job.id, jobs.size());
            if (added) {
                jobs.push_back(job);
                continue;
            }
            const JobSpec &first = jobs[it->second];
            if (job.body || first.body)
                panic("custom job id " + job.id + " is not unique");
            if (toJson(job.options) != toJson(first.options))
                panic("job id " + job.id + " names two option sets");
        }
        for (const auto &[id, reader] : figure.readers) {
            const auto it = index_of.find(id);
            if (it == index_of.end() || jobs[it->second].body)
                panic("reader on " + id + ", not a default-body job");
            readers_of[id].push_back(reader);
        }
    }
    // A read job runs through BenchmarkRun, as the default body does,
    // and keeps its machine for the readers.
    for (const auto &[id, readers] : readers_of) {
        jobs[index_of.at(id)].body = [readers](const JobSpec &job) {
            BenchmarkRun run(effectiveBench(job), job.options);
            const RunResult result = run.run();
            for (const Reader &read : readers)
                read(run.system(), result);
            return result.metrics;
        };
    }

    SweepRunner runner;
    std::map<std::string, RunMetrics> metrics;
    for (const JobResult &result : runner.run(jobs)) {
        if (result.status != JobStatus::Ok)
            fatal("job " + result.spec.id + " failed: " + result.error);
        metrics.emplace(result.spec.id, result.metrics);
    }
    const SweepSummary &summary = runner.lastSummary();
    std::fprintf(stderr,
                 "paper_record: %zu jobs, %zu distinct, wall_ms %.0f, "
                 "threads %u\n",
                 requested, summary.jobs, summary.wall_ms, summary.threads);

    const Results results(std::move(metrics));
    int status = 0;
    for (const Figure &figure : figures) {
        const std::filesystem::path path = dir / figure.file;
        std::ofstream out(path);
        const Failure failure = figure.render(results, out);
        if (!failure.empty()) {
            std::cerr << "paper_record: " << figure.file << ": " << failure
                      << "\n";
            status = 1;
        }
        out.close();
        if (!out)
            fatal("cannot write " + path.string());
    }
    return status;
}

} // namespace asd::record
