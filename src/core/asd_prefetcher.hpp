#ifndef ASD_CORE_ASD_PREFETCHER_HPP
#define ASD_CORE_ASD_PREFETCHER_HPP

/**
 * @file
 * The Adaptive Stream Detection memory-side prefetcher (the paper's
 * primary contribution, sections 3.1-3.3) on the shared Prefetch
 * Buffer, Adaptive Scheduling and epoch clock of BufferedMcPrefetcher.
 *
 * Per hardware thread: one Stream Filter and one LHTcurr/LHTnext pair
 * per stream direction. Epochs are counted in Read commands observed
 * by the controller.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "core/buffered_prefetcher.hpp"
#include "core/likelihood_table.hpp"
#include "core/stream_filter.hpp"

namespace asd
{

/** Snapshot of one epoch's Stream Length Histogram (both directions). */
struct SlhSnapshot
{
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> positive; //!< stream-count lht()
    std::vector<std::uint64_t> negative;
};

/** The ASD prefetcher. */
class AsdPrefetcher : public BufferedMcPrefetcher
{
  public:
    explicit AsdPrefetcher(const AsdConfig &config);

    // MemSidePrefetcher interface ------------------------------------
    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;
    void tick(Cycle now) override;

    /** The earliest Stream Filter expiry across the threads. */
    Cycle nextTickDue(Cycle now) const override;

    // Introspection for figures, benches and tests -------------------

    /** Keep per-epoch SLH snapshots (costs memory; off by default). */
    void enableSlhHistory(std::size_t max_epochs);

    /** Recorded epoch SLHs (oldest first). */
    const std::vector<SlhSnapshot> &slhHistory() const
    {
        return slh_history_;
    }

    /** Stream-length histogram over every completed stream. */
    const Histogram &streamLengthHist() const { return stream_hist_; }

    /** Live LHTcurr of @p thread in direction @p dir. */
    const LikelihoodTable &lhtCurr(std::uint32_t thread,
                                   StreamDir dir) const;

    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads_.size());
    }

    /** LHT depletion clamps summed over threads and directions. */
    std::uint64_t lhtUnderflowClamps() const;

    /** The shared "ms.*" stats plus ASD's own "asd.*" counters. */
    void registerStats(StatRegistry &registry) const override;

    // Online reconfiguration -----------------------------------------

    /**
     * Apply a new tuning to the live prefetcher, preserving trained
     * state wherever the shape allows:
     *  - max_degree / epoch_reads change in place (an epoch already
     *    longer than the new length ends on the next read);
     *  - the Stream Filter resizes per thread, folding any streams a
     *    shrink drops into the SLH as dead streams;
     *  - the Prefetch Buffer rebuilds at the new capacity keeping
     *    resident lines by recency (a shrink evicts the oldest);
     *  - the scheduler swaps policy configuration, keeping the
     *    current policy as the walk position unless newly pinned.
     * LHT depth, lifetimes, ways and thread count are NOT tunable —
     * the likelihood tables and stream histogram are keyed on them.
     */
    void applyTuning(const AsdTuning &tuning);

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct ThreadState
    {
        ThreadState(const AsdConfig &config);

        StreamFilter filter;
        LikelihoodTablePair positive;
        LikelihoodTablePair negative;
    };

    LikelihoodTablePair &tables(ThreadState &state, StreamDir dir);

    /** Fold a dead stream into histograms and LHTs. */
    void streamDied(ThreadState &state, const DeadStream &dead);

    /** Run the prefetch decision for the k-th element of a stream. */
    void decide(ThreadState &state, const StreamObservation &obs,
                LineAddr line, std::vector<LineAddr> &out);

    /**
     * Flush live streams into LHTnext, swap the LHTs, snapshot the
     * SLH and sync the underflow counter (the scheduler has already
     * stepped; none of this touches it).
     */
    void onEpochEnd(Cycle now) override;

    std::vector<std::unique_ptr<ThreadState>> threads_;

    Histogram stream_hist_;
    std::vector<SlhSnapshot> slh_history_;
    std::size_t slh_history_cap_ = 0;

    Counter prefetches_suggested_;
    Counter decisions_negative_;
    Counter overflow_reads_;
    Counter stream_merges_;  //!< filter slots retired by convergence
    Counter lht_underflow_;  //!< mirror of lhtUnderflowClamps()
};

} // namespace asd

#endif // ASD_CORE_ASD_PREFETCHER_HPP
