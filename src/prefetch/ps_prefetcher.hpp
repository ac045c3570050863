#ifndef ASD_PREFETCH_PS_PREFETCHER_HPP
#define ASD_PREFETCH_PS_PREFETCHER_HPP

/**
 * @file
 * The Power5+ processor-side (PS) stream prefetcher of section 4.2: a
 * 12-entry stream detection unit that confirms a stream after two
 * consecutive cache-line misses and, once in steady state, keeps one
 * extra line ahead in L1 and one more in L2. Up to eight streams may
 * be active concurrently.
 */

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "prefetch/cpu_prefetcher.hpp"

namespace asd
{

/** PS prefetcher geometry. */
struct PsConfig
{
    std::uint32_t detect_entries = 12;
    std::uint32_t max_active_streams = 8;
    std::uint32_t l1_ahead = 1; //!< lines ahead brought into L1
    std::uint32_t l2_ahead = 2; //!< lines ahead brought into L2
};

/** The Power5-style processor-side stream prefetcher. */
class PsPrefetcher : public CpuPrefetcher
{
  public:
    explicit PsPrefetcher(const PsConfig &config);

    /**
     * Observe one L1 demand data access. Streams are allocated and
     * confirmed only on misses, but an active stream advances on hits
     * too (its own prefetched lines hit L1 by design).
     */
    std::vector<PsPrefetchReq> observe(LineAddr line,
                                       bool was_l1_miss) override;

    std::size_t activeStreams() const;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const override;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Entry
    {
        LineAddr last = 0;
        LineAddr furthest = 0; //!< furthest line already requested
        std::uint64_t length = 0;
        std::uint64_t lru = 0;
        StreamDir dir = StreamDir::Positive;
        bool valid = false;
        bool active = false;
    };

    void emitAhead(Entry &entry, std::vector<PsPrefetchReq> &out);

    PsConfig config_;
    std::vector<Entry> table_;
    std::uint64_t clock_ = 0;

    Counter streams_confirmed_;
    Counter prefetches_requested_;
};

} // namespace asd

#endif // ASD_PREFETCH_PS_PREFETCHER_HPP
