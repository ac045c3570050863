#ifndef ASD_PREFETCH_STRIDE_PREFETCHER_HPP
#define ASD_PREFETCH_STRIDE_PREFETCHER_HPP

/**
 * @file
 * A Baer-Chen-style stride prefetcher (the paper's reference [2])
 * transplanted into the memory controller. Where ASD's Stream Filter
 * only follows unit-stride runs, this unit learns each stream's
 * stride from consecutive deltas and, once confirmed, prefetches
 * `last + stride` — covering column walks and large-struct sweeps.
 * Since the controller has no program counters, candidate streams are
 * matched by delta proximity instead of PC.
 */

#include <cstdint>
#include <vector>

#include "core/buffered_prefetcher.hpp"

namespace asd
{

/** Stride-prefetcher geometry. */
struct StrideConfig
{
    std::uint32_t slots = 8;

    /** Largest |delta| (in lines) considered a learnable stride. */
    std::int64_t max_stride = 8;

    /** Confirmations before prefetching (2 = Baer-Chen "steady"). */
    std::uint32_t confirm = 2;

    /** Lifetime of an idle slot, in observed reads. */
    std::uint64_t lifetime_reads = 64;

    /** Prefetch degree once confirmed. */
    std::uint32_t degree = 1;
};

/** The MC-resident stride prefetcher. */
class StrideMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    StrideMcPrefetcher(const AsdConfig &shared,
                       const StrideConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    std::size_t liveSlots() const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Slot
    {
        LineAddr last = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
        std::uint64_t last_seen = 0; //!< in observed reads
        bool valid = false;
    };

    StrideConfig config_;
    std::vector<Slot> slots_;
    std::uint64_t reads_seen_ = 0;
};

} // namespace asd

#endif // ASD_PREFETCH_STRIDE_PREFETCHER_HPP
