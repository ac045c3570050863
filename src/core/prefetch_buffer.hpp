#ifndef ASD_CORE_PREFETCH_BUFFER_HPP
#define ASD_CORE_PREFETCH_BUFFER_HPP

/**
 * @file
 * The Prefetch Buffer of section 3.3: a small set-associative, LRU
 * buffer on the memory controller holding memory-side prefetched
 * lines. Entries are invalidated when a write hits them and when a
 * demand read consumes them (the data moves into L1/L2 and is unlikely
 * to be useful here again).
 */

#include <string>

#include "cache/cache.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace asd
{

/** The memory-side prefetch buffer. */
class PrefetchBuffer : public Snapshottable
{
  public:
    /**
     * @param lines capacity in cache lines (2 KB = 16 x 128 B in the
     *              paper's configuration).
     * @param ways associativity (capped at @p lines).
     */
    PrefetchBuffer(std::uint32_t lines, std::uint32_t ways);

    /** Non-destructive presence check. */
    bool contains(LineAddr line) const;

    /**
     * Demand-read probe: on a hit the entry is consumed (invalidated)
     * and counted useful.
     * @retval true on hit.
     */
    bool consume(LineAddr line);

    /** Install a prefetched line; unused victims count as useless. */
    void insert(LineAddr line);

    /** A write to @p line invalidates any buffered copy. */
    void invalidateOnWrite(LineAddr line);

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    std::uint64_t inserted() const { return inserted_.value(); }
    std::uint64_t consumed() const { return consumed_.value(); }
    std::uint64_t evictedUnused() const
    {
        return evicted_unused_.value();
    }
    std::uint64_t writeInvalidations() const
    {
        return write_invalidations_.value();
    }

    std::uint32_t capacityLines() const;

    /**
     * Online reconfiguration: rebuild the tag store with a new
     * geometry, re-installing the resident lines oldest-first so
     * their recency ranking survives. Growing preserves every line;
     * shrinking drops the least recent ones, counted as unused
     * evictions (they were prefetched and never consumed). The
     * inserted/consumed counters are untouched — only genuinely new
     * prefetches count as insertions.
     */
    void resize(std::uint32_t lines, std::uint32_t ways);

    /** Lines currently buffered (telemetry/invariants). */
    std::uint64_t occupancy() const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    SetAssocCache cache_;
    Counter inserted_;
    Counter consumed_;
    Counter evicted_unused_;
    Counter write_invalidations_;
};

} // namespace asd

#endif // ASD_CORE_PREFETCH_BUFFER_HPP
