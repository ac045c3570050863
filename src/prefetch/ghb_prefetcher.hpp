#ifndef ASD_PREFETCH_GHB_PREFETCHER_HPP
#define ASD_PREFETCH_GHB_PREFETCHER_HPP

/**
 * @file
 * A Global History Buffer prefetcher (Nesbit & Smith, HPCA 2004 — the
 * paper's reference [18]), transplanted into the memory controller as
 * another point of comparison against Adaptive Stream Detection: a
 * FIFO of recent miss addresses plus an index table linking each
 * occurrence to its predecessor.
 *
 * Two correlation modes:
 *  - G/AC (default): the index is keyed by *address*; on a repeat,
 *    the lines that followed last time are prefetched. Can follow
 *    arbitrary pointer-chase correlation, but is structurally blind
 *    to streaming workloads — fresh lines swept once never repeat at
 *    the controller, so the index never hits (the BENCH_bakeoff
 *    speedup_milli_pct -492 finding: its rare predictions were
 *    cross-stream global-order followers, pure pollution).
 *  - G/DC (delta_correlate = true): the index is keyed by the pair
 *    of the last two global address *deltas*; predictions accumulate
 *    the follower deltas. Delta pairs recur on strided walks even
 *    when every address is new, so this form works on the stride
 *    workloads where G/AC cannot.
 */

#include <cstdint>
#include <vector>

#include "core/buffered_prefetcher.hpp"

namespace asd
{

/** GHB geometry. */
struct GhbConfig
{
    std::uint32_t ghb_entries = 256;  //!< history FIFO depth
    std::uint32_t index_entries = 256; //!< index table (hashed)
    std::uint32_t degree = 2;          //!< lines prefetched per hit

    /** False = G/AC (address keys), true = G/DC (delta-pair keys). */
    bool delta_correlate = false;
};

/** The Global History Buffer prefetcher (G/AC or G/DC). */
class GhbMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    GhbMcPrefetcher(const AsdConfig &shared, const GhbConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    /** Entries currently valid in the history buffer (tests). */
    std::size_t historySize() const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct GhbEntry
    {
        LineAddr line = 0;
        std::int64_t delta = 0; //!< line minus the previous global read
        std::uint64_t prev = kNoLink; //!< older occurrence, absolute seq
        bool valid = false;
    };

    static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

    std::size_t indexOf(LineAddr line) const;
    std::size_t indexOfDeltas(std::int64_t d1, std::int64_t d0) const;
    bool inWindow(std::uint64_t seq) const;

    std::vector<LineAddr> correlateAddress(LineAddr line);
    std::vector<LineAddr> correlateDeltas(LineAddr line);

    /** Append the newest occurrence; returns its GHB slot. */
    GhbEntry &append(LineAddr line, std::int64_t delta,
                     std::uint64_t prev_seq);

    GhbConfig config_;
    std::vector<GhbEntry> ghb_;      //!< circular, indexed by seq
    std::vector<std::uint64_t> index_; //!< key hash -> newest seq
    std::vector<LineAddr> index_tag_;  //!< G/AC key: the address
    std::vector<std::int64_t> index_tag_d1_; //!< G/DC key: older delta
    std::vector<std::int64_t> index_tag_d0_; //!< G/DC key: newer delta
    std::uint64_t next_seq_ = 0;

    /** Global delta tracking (G/DC). */
    LineAddr last_line_ = 0;
    std::int64_t last_delta_ = 0;
    bool have_last_ = false;
    bool have_delta_ = false;
};

} // namespace asd

#endif // ASD_PREFETCH_GHB_PREFETCHER_HPP
