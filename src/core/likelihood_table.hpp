#ifndef ASD_CORE_LIKELIHOOD_TABLE_HPP
#define ASD_CORE_LIKELIHOOD_TABLE_HPP

/**
 * @file
 * The LHTcurr/LHTnext pair of section 3.4. Each direction of each
 * hardware thread owns one LikelihoodTablePair; entries are saturating
 * counters sized for the epoch length (ceil(log2(epoch)) bits in
 * hardware; 64-bit here with explicit clamping at zero).
 */

#include <cstdint>
#include <vector>

#include "core/slh_math.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/**
 * One likelihood table: entry i-1 approximates the number of streams
 * of length >= i observed in an epoch.
 */
class LikelihoodTable : public Snapshottable
{
  public:
    explicit LikelihoodTable(std::size_t entries);

    /** A stream of length @p len completed: ++entries 1..min(len,Lm). */
    void recordStream(std::uint64_t len);

    /**
     * Deplete entries 1..min(len,Lm). Removing more streams than were
     * recorded is an add/remove mismatch that silently skews
     * inequality (6); under checksEnabled() it panics, otherwise the
     * affected entries saturate at zero and the clamp is counted
     * (underflowClamps()).
     */
    void removeStream(std::uint64_t len);

    /**
     * Deplete entries 1..min(len,Lm), clamping at zero and counting
     * clamps even under checksEnabled(). This is the correct form for
     * the paper's epoch protocol: LHTcurr starts an epoch as a copy of
     * the *previous* epoch's stream population, so a busier epoch
     * legitimately removes more streams than the copy recorded
     * (expected from epoch 1, whose LHTcurr is all zeroes).
     */
    void removeStreamSaturating(std::uint64_t len);

    /** Times an entry was depleted past zero and clamped. */
    std::uint64_t underflowClamps() const { return underflow_clamps_; }

    /** lht(i), 1-based; 0 beyond the table. */
    std::uint64_t at(std::size_t i) const;

    /** Copy counts from @p other (epoch swap: curr <- next). */
    void loadFrom(const LikelihoodTable &other);

    /** Zero all entries. */
    void clear();

    std::size_t entries() const { return counts_.size(); }

    /** Raw counts for the slh_math helpers and the figure benches. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /**
     * Hardware decision (section 3.4): prefetch @p d lines ahead of
     * the @p k -th stream element iff lht(k) < (lht(k+d) << 1). The
     * comparator feeds the left-shifted next entry exactly as the
     * paper describes.
     */
    bool
    shouldPrefetch(std::size_t k, std::size_t d = 1) const
    {
        return shouldPrefetchDegree(counts_, k, d);
    }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_clamps_ = 0;
};

/** The (current, next) pair with the paper's epoch-boundary protocol. */
class LikelihoodTablePair : public Snapshottable
{
  public:
    explicit LikelihoodTablePair(std::size_t entries)
        : curr_(entries), next_(entries)
    {}

    /**
     * A stream died mid-epoch: accumulate into next, deplete curr
     * (section 3.4's dual update).
     */
    void
    streamDied(std::uint64_t len)
    {
        next_.recordStream(len);
        curr_.removeStreamSaturating(len);
    }

    /**
     * Epoch boundary: @p leftover_lengths are streams still alive in
     * the Stream Filter; they fold into next before the swap.
     */
    template <typename Container>
    void
    epochEnd(const Container &leftover_lengths)
    {
        for (const auto len : leftover_lengths)
            next_.recordStream(len);
        curr_.loadFrom(next_);
        next_.clear();
    }

    const LikelihoodTable &curr() const { return curr_; }
    const LikelihoodTable &next() const { return next_; }

    /** Depletion clamps across both tables (telemetry stat). */
    std::uint64_t
    underflowClamps() const
    {
        return curr_.underflowClamps() + next_.underflowClamps();
    }

  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        io.component(curr_);
        io.component(next_);
    }

  private:
    LikelihoodTable curr_;
    LikelihoodTable next_;
};

} // namespace asd

#endif // ASD_CORE_LIKELIHOOD_TABLE_HPP
