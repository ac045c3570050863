/**
 * @file
 * Figure 16: accuracy of the Stream Length Histogram computed by the
 * finite (8-slot, lifetime-bounded) Stream Filter against the actual
 * SLH computed by an oracle tracker with unbounded slots and no
 * lifetime expiry, fed the identical controller-visible read stream.
 *
 * Paper: the approximation closely matches the actual SLH
 * (illustrated on a GemsFDTD epoch).
 */

#include <iostream>
#include <vector>

#include "common/histogram.hpp"
#include "common/table.hpp"
#include "core/asd_prefetcher.hpp"
#include "core/likelihood_table.hpp"
#include "core/slh_math.hpp"
#include "core/stream_filter.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"

namespace
{

using namespace asd;

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

    // Bench-only interposer; never checkpointed.
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
    for (std::size_t i = 0; i < bars.size(); ++i) {
        hist.add(i + 1,
                 static_cast<std::uint64_t>(bars[i] * 100000.0));
    }
    return hist;
}

} // namespace

int
main()
{
    const Benchmark &bench = findBenchmark("GemsFDTD");
    RunOptions options;
    options.mode = PrefetchMode::PMS;

    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, options);
    SyntheticTraceGenerator trace(trace_config);

    System system(makeSystemConfig(options), {&trace});
    system.asd()->enableSlhHistory(256);
    SlhAccuracyTap tap(*system.asd());
    system.mc().attachPrefetcher(&tap);
    system.run();

    const auto &approx_epochs = system.asd()->slhHistory();
    const auto &actual_epochs = tap.epochs();
    const std::size_t epochs =
        std::min(approx_epochs.size(), actual_epochs.size());
    if (epochs < 4) {
        std::cout << "trace too short (" << epochs << " epochs)\n";
        return 1;
    }

    const std::size_t sample = epochs / 4;
    std::vector<std::uint64_t> approx(
        approx_epochs[sample].positive.size());
    for (std::size_t i = 0; i < approx.size(); ++i) {
        approx[i] = approx_epochs[sample].positive[i] +
                    approx_epochs[sample].negative[i];
    }
    const auto &actual = actual_epochs[sample];

    std::cout << "Figure 16: actual vs approximated SLH, epoch "
              << sample << " of the GemsFDTD analog "
              << "(read-weighted %)\n\n";
    Table table({"stream_length", "actual", "approximation"});
    const auto bars_actual = readWeightedSlh(actual);
    const auto bars_approx = readWeightedSlh(approx);
    for (std::size_t i = 0; i < bars_actual.size(); ++i) {
        table.addRow({std::to_string(i + 1),
                      Table::num(bars_actual[i] * 100.0),
                      Table::num(bars_approx[i] * 100.0)});
    }
    table.print(std::cout);

    double total_l1 = 0.0;
    std::size_t measured = 0;
    for (std::size_t e = 0; e < epochs; ++e) {
        std::vector<std::uint64_t> a(
            approx_epochs[e].positive.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            a[i] = approx_epochs[e].positive[i] +
                   approx_epochs[e].negative[i];
        }
        const Histogram ha = toHistogram(a);
        const Histogram hb = toHistogram(actual_epochs[e]);
        if (ha.total() > 0 && hb.total() > 0) {
            total_l1 += ha.l1Distance(hb);
            ++measured;
        }
    }
    std::cout << "\nmean per-epoch L1 distance (0 = identical, "
                 "2 = disjoint): "
              << Table::num(total_l1 / static_cast<double>(measured),
                            3)
              << " over " << measured << " epochs\n";
    std::cout << "paper: the 8-slot approximation closely matches "
                 "the actual SLH\n";
    return 0;
}
