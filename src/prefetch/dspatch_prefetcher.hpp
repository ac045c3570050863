#ifndef ASD_PREFETCH_DSPATCH_PREFETCHER_HPP
#define ASD_PREFETCH_DSPATCH_PREFETCHER_HPP

/**
 * @file
 * A DSPatch-style dual-bit-pattern spatial prefetcher (Bera et al.,
 * MICRO 2019) transplanted into the memory controller. Memory is
 * viewed as fixed-size spatial regions; the first demand read in a
 * region (the trigger) predicts which other lines of the region the
 * program will touch, as a bit pattern anchored at the trigger
 * offset. Two patterns are learned per trigger offset:
 *
 *  - CovP, the coverage-biased pattern: the OR of every observed
 *    access pattern — fetches everything the region ever needed.
 *  - AccP, the accuracy-biased pattern: the AND of recent observed
 *    patterns — fetches only what the region always needs.
 *
 * DSPatch picks between them by DRAM bandwidth headroom. The
 * controller here already runs Adaptive Scheduling, whose LPQ policy
 * *is* a bandwidth-pressure signal (prefetch-induced conflicts drive
 * it toward conservative), so the selection reuses it: a conservative
 * policy selects AccP, an aggressive one CovP. Since the policy is
 * part of the simulated machine state, selection stays deterministic
 * and snapshottable.
 */

#include <cstdint>
#include <vector>

#include "core/buffered_prefetcher.hpp"

namespace asd
{

/** DSPatch-style prefetcher geometry. */
struct DspatchConfig
{
    /** Lines per spatial region (power of two, at most 64). */
    std::uint32_t region_lines = 32;

    /** Tracked (active) regions. */
    std::uint32_t page_buffer_entries = 16;

    /** Most lines prefetched per trigger. */
    std::uint32_t degree = 4;

    /**
     * Select AccP while the LPQ policy is at most this value
     * (1 = most conservative .. 5 = least); CovP otherwise.
     */
    int accp_policy_max = 2;

    /**
     * Reads a region may sit untouched before it is retired and its
     * observed pattern trains the signature table.
     */
    std::uint64_t region_idle_reads = 256;

    /**
     * Retire-and-relearn threshold for CovP: when its predictions
     * fall below ~25% accuracy over a quality window, the
     * OR-accumulated pattern has decayed into noise and is rebuilt
     * from the next observation.
     */
    std::uint32_t quality_window = 8;
};

/** The MC-resident dual-bit-pattern spatial prefetcher. */
class DspatchMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    DspatchMcPrefetcher(const AsdConfig &shared,
                        const DspatchConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    /**
     * A buffer hit means a demand read was satisfied by a prefetch
     * and never reaches observeRead(); record it in the region's
     * observed pattern anyway, or AccP would drop exactly the lines
     * it predicted best.
     */
    bool lookupBuffer(LineAddr line) override;

    /** Regions currently tracked (tests). */
    std::size_t liveRegions() const;

    /** Learned patterns for @p trigger offset (tests). */
    std::uint64_t covPattern(std::uint32_t trigger) const;
    std::uint64_t accPattern(std::uint32_t trigger) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    /** One active spatial region. */
    struct Region
    {
        std::uint64_t tag = 0;      //!< line address >> region bits
        std::uint64_t observed = 0; //!< accessed offsets, absolute
        std::uint64_t predicted = 0; //!< pattern prefetched, absolute
        std::uint32_t trigger = 0;  //!< first-touched offset
        std::uint64_t last_seen = 0; //!< in observed reads
        bool valid = false;
    };

    /** Learned patterns for one trigger offset, anchored at bit 0. */
    struct Signature
    {
        std::uint64_t cov = 0;
        std::uint64_t acc = 0;
        std::uint32_t trained = 0;
        /** CovP prediction outcomes over the quality window. */
        std::uint32_t cov_predicted = 0;
        std::uint32_t cov_hit = 0;
    };

    std::uint64_t regionMask() const;
    std::uint32_t offsetOf(LineAddr line) const;
    std::uint64_t tagOf(LineAddr line) const;

    /** Rotate an absolute pattern so @p trigger lands on bit 0. */
    std::uint64_t anchor(std::uint64_t pattern,
                         std::uint32_t trigger) const;
    /** Inverse of anchor(). */
    std::uint64_t unanchor(std::uint64_t pattern,
                           std::uint32_t trigger) const;

    /** Fold a retired region's observations into its signature. */
    void train(Region &region);

    /** Retire regions idle past the lifetime. */
    void expireRegions();

    /** Emit prefetches for @p pattern (absolute), nearest first. */
    std::vector<LineAddr> emit(const Region &region,
                               std::uint64_t pattern) const;

    DspatchConfig config_;
    std::vector<Region> regions_;
    std::vector<Signature> signatures_; //!< one per trigger offset
    std::uint64_t reads_seen_ = 0;
};

} // namespace asd

#endif // ASD_PREFETCH_DSPATCH_PREFETCHER_HPP
